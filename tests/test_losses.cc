#include "ml/losses.h"

#include <cmath>

#include <gtest/gtest.h>

#include "common/rng.h"

namespace freeway {
namespace {

TEST(SoftmaxTest, RowsSumToOne) {
  Matrix logits =
      Matrix::FromData(2, 3, {1.0, 2.0, 3.0, -5.0, 0.0, 5.0}).value();
  Matrix probs = Softmax(logits);
  for (size_t i = 0; i < 2; ++i) {
    double sum = 0.0;
    for (size_t j = 0; j < 3; ++j) {
      EXPECT_GT(probs.At(i, j), 0.0);
      sum += probs.At(i, j);
    }
    EXPECT_NEAR(sum, 1.0, 1e-12);
  }
}

TEST(SoftmaxTest, NumericallyStableForLargeLogits) {
  Matrix logits = Matrix::FromData(1, 2, {1000.0, 999.0}).value();
  Matrix probs = Softmax(logits);
  EXPECT_TRUE(std::isfinite(probs.At(0, 0)));
  EXPECT_NEAR(probs.At(0, 0), 1.0 / (1.0 + std::exp(-1.0)), 1e-9);
}

TEST(SoftmaxTest, ShiftInvariance) {
  Matrix a = Matrix::FromData(1, 3, {1.0, 2.0, 3.0}).value();
  Matrix b = Matrix::FromData(1, 3, {11.0, 12.0, 13.0}).value();
  Matrix pa = Softmax(a);
  Matrix pb = Softmax(b);
  for (size_t j = 0; j < 3; ++j) {
    EXPECT_NEAR(pa.At(0, j), pb.At(0, j), 1e-12);
  }
}

TEST(CrossEntropyTest, PerfectPredictionNearZeroLoss) {
  Matrix logits = Matrix::FromData(1, 2, {20.0, -20.0}).value();
  EXPECT_NEAR(SoftmaxCrossEntropy(logits, {0}, nullptr), 0.0, 1e-8);
  EXPECT_GT(SoftmaxCrossEntropy(logits, {1}, nullptr), 10.0);
}

TEST(CrossEntropyTest, UniformLogitsGiveLogC) {
  Matrix logits(4, 3);  // All zeros -> uniform distribution.
  const double loss = SoftmaxCrossEntropy(logits, {0, 1, 2, 0}, nullptr);
  EXPECT_NEAR(loss, std::log(3.0), 1e-9);
}

TEST(CrossEntropyGradTest, MatchesFiniteDifferences) {
  Rng rng(42);
  const size_t n = 5, c = 4;
  Matrix logits(n, c);
  std::vector<int> labels(n);
  for (size_t i = 0; i < n; ++i) {
    labels[i] = static_cast<int>(rng.NextBelow(c));
    for (size_t j = 0; j < c; ++j) logits.At(i, j) = rng.Gaussian(0, 2);
  }
  Matrix grad;
  SoftmaxCrossEntropy(logits, labels, &grad);

  const double eps = 1e-6;
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < c; ++j) {
      Matrix up = logits, down = logits;
      up.At(i, j) += eps;
      down.At(i, j) -= eps;
      const double numeric = (SoftmaxCrossEntropy(up, labels, nullptr) -
                              SoftmaxCrossEntropy(down, labels, nullptr)) /
                             (2 * eps);
      EXPECT_NEAR(grad.At(i, j), numeric, 1e-7);
    }
  }
}

TEST(CrossEntropyGradTest, RowsSumToZero) {
  // d/dlogits of CE sums to zero per row (softmax shift invariance).
  Rng rng(1);
  Matrix logits(3, 5);
  for (size_t i = 0; i < 3; ++i) {
    for (size_t j = 0; j < 5; ++j) logits.At(i, j) = rng.Gaussian(0, 1);
  }
  Matrix grad;
  SoftmaxCrossEntropy(logits, {4, 2, 0}, &grad);
  for (size_t i = 0; i < 3; ++i) {
    double sum = 0.0;
    for (size_t j = 0; j < 5; ++j) sum += grad.At(i, j);
    EXPECT_NEAR(sum, 0.0, 1e-12);
  }
}

}  // namespace
}  // namespace freeway
