#include "ml/layers.h"

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"

namespace freeway {
namespace {

Matrix RandomMatrix(size_t rows, size_t cols, Rng* rng, double scale = 1.0) {
  Matrix m(rows, cols);
  for (size_t i = 0; i < rows; ++i) {
    for (size_t j = 0; j < cols; ++j) m.At(i, j) = rng->Gaussian(0.0, scale);
  }
  return m;
}

/// Numerically checks dL/d(input) and dL/d(params) of a single layer, where
/// L = sum(forward(input) * probe) for a fixed random probe matrix (so the
/// upstream gradient is exactly `probe`).
void CheckLayerGradients(Layer* layer, const Matrix& input, uint64_t seed,
                         double tol = 1e-5) {
  Rng rng(seed);
  Matrix out = layer->Forward(input);
  Matrix probe = RandomMatrix(out.rows(), out.cols(), &rng);

  layer->ZeroGrads();
  layer->Forward(input);
  Matrix grad_input = layer->Backward(probe, /*need_input_grad=*/true);
  ASSERT_TRUE(grad_input.SameShape(input));

  const double eps = 1e-6;
  auto loss_at = [&](const Matrix& x) {
    Matrix y = layer->Forward(x);
    double acc = 0.0;
    for (size_t i = 0; i < y.rows(); ++i) {
      for (size_t j = 0; j < y.cols(); ++j) acc += y.At(i, j) * probe.At(i, j);
    }
    return acc;
  };

  // Input gradient (spot-check a grid of entries).
  Matrix perturbed = input;
  for (size_t i = 0; i < input.rows(); i += 2) {
    for (size_t j = 0; j < input.cols(); j += 3) {
      const double orig = perturbed.At(i, j);
      perturbed.At(i, j) = orig + eps;
      const double up = loss_at(perturbed);
      perturbed.At(i, j) = orig - eps;
      const double down = loss_at(perturbed);
      perturbed.At(i, j) = orig;
      const double numeric = (up - down) / (2 * eps);
      EXPECT_NEAR(grad_input.At(i, j), numeric, tol)
          << "input grad mismatch at (" << i << "," << j << ")";
    }
  }

  // Parameter gradients (must re-run backward after each perturbation is
  // reverted, since Forward mutates caches).
  layer->ZeroGrads();
  layer->Forward(input);
  layer->Backward(probe, /*need_input_grad=*/true);
  auto params = layer->Params();
  auto grads = layer->Grads();
  ASSERT_EQ(params.size(), grads.size());
  for (size_t p = 0; p < params.size(); ++p) {
    Matrix analytic = *grads[p];
    for (size_t i = 0; i < params[p]->rows(); i += 2) {
      for (size_t j = 0; j < params[p]->cols(); j += 3) {
        const double orig = params[p]->At(i, j);
        params[p]->At(i, j) = orig + eps;
        const double up = loss_at(input);
        params[p]->At(i, j) = orig - eps;
        const double down = loss_at(input);
        params[p]->At(i, j) = orig;
        const double numeric = (up - down) / (2 * eps);
        EXPECT_NEAR(analytic.At(i, j), numeric, tol)
            << "param " << p << " grad mismatch at (" << i << "," << j << ")";
      }
    }
  }
}

TEST(DenseLayerTest, ForwardComputesAffineMap) {
  Rng rng(1);
  DenseLayer layer(2, 2, &rng);
  // Overwrite weights with known values.
  layer.Params()[0]->At(0, 0) = 1.0;
  layer.Params()[0]->At(0, 1) = 2.0;
  layer.Params()[0]->At(1, 0) = 3.0;
  layer.Params()[0]->At(1, 1) = 4.0;
  layer.Params()[1]->At(0, 0) = 0.5;
  layer.Params()[1]->At(0, 1) = -0.5;

  Matrix x = Matrix::FromData(1, 2, {1.0, 2.0}).value();
  Matrix y = layer.Forward(x);
  EXPECT_DOUBLE_EQ(y.At(0, 0), 1.0 + 6.0 + 0.5);
  EXPECT_DOUBLE_EQ(y.At(0, 1), 2.0 + 8.0 - 0.5);
}

TEST(DenseLayerTest, GradientsMatchFiniteDifferences) {
  Rng rng(2);
  DenseLayer layer(5, 4, &rng);
  Matrix input = RandomMatrix(6, 5, &rng);
  CheckLayerGradients(&layer, input, 100);
}

TEST(ReluLayerTest, ForwardClampsNegatives) {
  ReluLayer layer;
  Matrix x = Matrix::FromData(1, 4, {-1.0, 0.0, 2.0, -0.5}).value();
  Matrix y = layer.Forward(x);
  EXPECT_DOUBLE_EQ(y.At(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(y.At(0, 1), 0.0);
  EXPECT_DOUBLE_EQ(y.At(0, 2), 2.0);
  EXPECT_DOUBLE_EQ(y.At(0, 3), 0.0);
}

TEST(ReluLayerTest, EdgeValuesKeepTheirBits) {
  // Forward maps v < 0 to +0.0 and passes -0.0, NaN and +inf through;
  // backward zeroes the gradient exactly where the input was <= 0 (a NaN
  // input is not <= 0, so its gradient passes).
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  ReluLayer layer;
  Matrix x =
      Matrix::FromData(1, 7, {-1.0, -0.0, 0.0, 2.0, nan, -inf, inf}).value();
  const Matrix y = layer.Forward(x);
  const uint64_t plus_zero = std::bit_cast<uint64_t>(0.0);
  EXPECT_EQ(std::bit_cast<uint64_t>(y.At(0, 0)), plus_zero);
  EXPECT_EQ(std::bit_cast<uint64_t>(y.At(0, 1)), std::bit_cast<uint64_t>(-0.0));
  EXPECT_EQ(std::bit_cast<uint64_t>(y.At(0, 2)), plus_zero);
  EXPECT_EQ(y.At(0, 3), 2.0);
  EXPECT_TRUE(std::isnan(y.At(0, 4)));
  EXPECT_EQ(std::bit_cast<uint64_t>(y.At(0, 5)), plus_zero);
  EXPECT_EQ(y.At(0, 6), inf);

  Matrix g = Matrix::FromData(1, 7, {-3.0, 4.0, 5.0, -6.0, 7.0, 8.0, -9.0})
                 .value();
  const Matrix gx = layer.Backward(g, /*need_input_grad=*/true);
  const double expected[7] = {0.0, 0.0, 0.0, -6.0, 7.0, 0.0, -9.0};
  for (size_t j = 0; j < 7; ++j) {
    EXPECT_EQ(std::bit_cast<uint64_t>(gx.At(0, j)),
              std::bit_cast<uint64_t>(expected[j]))
        << "column " << j;
  }
  EXPECT_TRUE(layer.Backward(g, /*need_input_grad=*/false).empty());
}

/// Runs Backward on two identical copies of a layer, one asked for its
/// input gradient and one not: the skipped copy returns an empty matrix and
/// both hold the same parameter-gradient bits.
void ExpectSkippedInputGradientKeepsParameterGradients(Layer* full,
                                                       Layer* skip,
                                                       const Matrix& input,
                                                       Rng* rng) {
  const Matrix out = full->Forward(input);
  skip->Forward(input);
  const Matrix grad = RandomMatrix(out.rows(), out.cols(), rng);
  const Matrix gx = full->Backward(grad, /*need_input_grad=*/true);
  EXPECT_TRUE(gx.SameShape(input));
  EXPECT_TRUE(skip->Backward(grad, /*need_input_grad=*/false).empty());
  const std::vector<Matrix*> a = full->Grads();
  const std::vector<Matrix*> b = skip->Grads();
  ASSERT_EQ(a.size(), b.size());
  for (size_t p = 0; p < a.size(); ++p) {
    ASSERT_TRUE(a[p]->SameShape(*b[p]));
    for (size_t i = 0; i < a[p]->size(); ++i) {
      EXPECT_EQ(std::bit_cast<uint64_t>(a[p]->data()[i]),
                std::bit_cast<uint64_t>(b[p]->data()[i]));
    }
  }
}

TEST(DenseLayerTest, SkippedInputGradientKeepsParameterGradients) {
  Rng rng(5);
  DenseLayer full(5, 3, &rng);
  DenseLayer skip = full;
  const Matrix input = RandomMatrix(7, 5, &rng);
  ExpectSkippedInputGradientKeepsParameterGradients(&full, &skip, input, &rng);
}

TEST(ReluLayerTest, GradientsMatchFiniteDifferences) {
  Rng rng(3);
  ReluLayer layer;
  // Keep activations away from the kink at 0 for a clean numeric check.
  Matrix input = RandomMatrix(4, 6, &rng);
  for (size_t i = 0; i < input.rows(); ++i) {
    for (auto& v : input.Row(i)) {
      if (std::fabs(v) < 0.05) v = 0.2;
    }
  }
  CheckLayerGradients(&layer, input, 101);
}

TEST(Conv2dLayerTest, OutputShape) {
  Rng rng(4);
  Conv2dLayer layer({3, 8, 8}, 16, 3, 3, &rng);
  EXPECT_EQ(layer.output_shape().channels, 16u);
  EXPECT_EQ(layer.output_shape().height, 6u);
  EXPECT_EQ(layer.output_shape().width, 6u);
  Matrix x = RandomMatrix(2, 3 * 8 * 8, &rng);
  Matrix y = layer.Forward(x);
  EXPECT_EQ(y.rows(), 2u);
  EXPECT_EQ(y.cols(), 16u * 6u * 6u);
}

TEST(Conv2dLayerTest, KnownConvolution) {
  Rng rng(5);
  Conv2dLayer layer({1, 1, 3}, 1, 1, 2, &rng);
  // Kernel [1, -1], bias 0.5.
  layer.Params()[0]->At(0, 0) = 1.0;
  layer.Params()[0]->At(0, 1) = -1.0;
  layer.Params()[1]->At(0, 0) = 0.5;
  Matrix x = Matrix::FromData(1, 3, {3.0, 1.0, 4.0}).value();
  Matrix y = layer.Forward(x);
  ASSERT_EQ(y.cols(), 2u);
  EXPECT_DOUBLE_EQ(y.At(0, 0), 3.0 - 1.0 + 0.5);
  EXPECT_DOUBLE_EQ(y.At(0, 1), 1.0 - 4.0 + 0.5);
}

TEST(Conv2dLayerTest, GradientsMatchFiniteDifferences) {
  Rng rng(6);
  Conv2dLayer layer({2, 5, 5}, 3, 3, 3, &rng);
  Matrix input = RandomMatrix(3, 2 * 5 * 5, &rng);
  CheckLayerGradients(&layer, input, 102, 2e-5);
}

TEST(Conv2dLayerTest, TabularOneByKKernel) {
  Rng rng(7);
  Conv2dLayer layer({1, 1, 10}, 4, 1, 3, &rng);
  EXPECT_EQ(layer.output_shape().height, 1u);
  EXPECT_EQ(layer.output_shape().width, 8u);
  Matrix input = RandomMatrix(4, 10, &rng);
  CheckLayerGradients(&layer, input, 103, 2e-5);
}

TEST(Conv2dLayerTest, SkippedInputGradientKeepsParameterGradients) {
  Rng rng(8);
  Conv2dLayer full({2, 5, 5}, 3, 3, 3, &rng);
  Conv2dLayer skip = full;
  const Matrix input = RandomMatrix(4, 2 * 5 * 5, &rng);
  ExpectSkippedInputGradientKeepsParameterGradients(&full, &skip, input, &rng);
}

TEST(MaxPool2dLayerTest, ForwardTakesWindowMaxima) {
  MaxPool2dLayer layer({1, 2, 4}, 2, 2);
  Matrix x =
      Matrix::FromData(1, 8, {1, 5, 2, 0, 3, 4, 7, 6}).value();
  Matrix y = layer.Forward(x);
  ASSERT_EQ(y.cols(), 2u);
  EXPECT_DOUBLE_EQ(y.At(0, 0), 5.0);  // max(1,5,3,4)
  EXPECT_DOUBLE_EQ(y.At(0, 1), 7.0);  // max(2,0,7,6)
}

TEST(MaxPool2dLayerTest, BackwardRoutesToArgmaxOnly) {
  MaxPool2dLayer layer({1, 2, 2}, 2, 2);
  Matrix x = Matrix::FromData(1, 4, {1, 9, 3, 2}).value();
  layer.Forward(x);
  Matrix gy = Matrix::FromData(1, 1, {2.5}).value();
  Matrix gx = layer.Backward(gy, /*need_input_grad=*/true);
  EXPECT_DOUBLE_EQ(gx.At(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(gx.At(0, 1), 2.5);
  EXPECT_DOUBLE_EQ(gx.At(0, 2), 0.0);
  EXPECT_DOUBLE_EQ(gx.At(0, 3), 0.0);
}

TEST(MaxPool2dLayerTest, GradientsMatchFiniteDifferences) {
  Rng rng(8);
  MaxPool2dLayer layer({2, 4, 4}, 2, 2);
  Matrix input = RandomMatrix(3, 2 * 4 * 4, &rng);
  // Separate near-ties so argmax is stable under the eps perturbation.
  for (size_t i = 0; i < input.rows(); ++i) {
    auto row = input.Row(i);
    for (size_t j = 0; j < row.size(); ++j) {
      row[j] += 1e-3 * static_cast<double>(j % 7);
    }
  }
  CheckLayerGradients(&layer, input, 104);
}

TEST(LayerCloneTest, CloneIsDeepCopy) {
  Rng rng(9);
  DenseLayer layer(3, 2, &rng);
  auto clone = layer.Clone();
  // Mutating the clone's params must not affect the original.
  const double before = layer.Params()[0]->At(0, 0);
  clone->Params()[0]->At(0, 0) = before + 42.0;
  EXPECT_DOUBLE_EQ(layer.Params()[0]->At(0, 0), before);
}

}  // namespace
}  // namespace freeway
