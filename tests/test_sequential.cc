#include "ml/sequential.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>

#include "common/rng.h"
#include "linalg/simd.h"
#include "ml/models.h"

namespace freeway {
namespace {

/// Two linearly separable Gaussian blobs.
void MakeBlobs(size_t n, Matrix* x, std::vector<int>* y, uint64_t seed) {
  Rng rng(seed);
  *x = Matrix(n, 2);
  y->resize(n);
  for (size_t i = 0; i < n; ++i) {
    const int label = static_cast<int>(rng.NextBelow(2));
    (*y)[i] = label;
    const double cx = label == 0 ? -2.0 : 2.0;
    x->At(i, 0) = rng.Gaussian(cx, 0.7);
    x->At(i, 1) = rng.Gaussian(label == 0 ? 1.0 : -1.0, 0.7);
  }
}

TEST(SequentialModelTest, MetadataAndValidation) {
  auto model = MakeMlp(4, 3);
  EXPECT_EQ(model->name(), "StreamingMLP");
  EXPECT_EQ(model->input_dim(), 4u);
  EXPECT_EQ(model->num_classes(), 3u);

  Matrix wrong_dim(2, 5);
  EXPECT_FALSE(model->PredictProba(wrong_dim).ok());
  Matrix empty(0, 4);
  EXPECT_FALSE(model->PredictProba(empty).ok());
  Matrix ok_x(2, 4);
  EXPECT_FALSE(model->TrainBatch(ok_x, {0}).ok());      // Label count.
  EXPECT_FALSE(model->TrainBatch(ok_x, {0, 3}).ok());   // Label range.
  EXPECT_FALSE(model->TrainBatch(ok_x, {0, -1}).ok());  // Negative label.
}

TEST(SequentialModelTest, PredictProbaRowsSumToOne) {
  auto model = MakeMlp(3, 4);
  Rng rng(2);
  Matrix x(8, 3);
  for (size_t i = 0; i < 8; ++i) {
    for (size_t j = 0; j < 3; ++j) x.At(i, j) = rng.Gaussian(0, 1);
  }
  auto probs = model->PredictProba(x);
  ASSERT_TRUE(probs.ok());
  for (size_t i = 0; i < 8; ++i) {
    double sum = 0.0;
    for (size_t j = 0; j < 4; ++j) sum += probs->At(i, j);
    EXPECT_NEAR(sum, 1.0, 1e-9);
  }
}

TEST(SequentialModelTest, LearnsSeparableBlobs) {
  Matrix x;
  std::vector<int> y;
  MakeBlobs(512, &x, &y, 7);

  ModelConfig config;
  config.learning_rate = 0.2;
  auto model = MakeLogisticRegression(2, 2, config);

  auto initial = Accuracy(model.get(), x, y);
  ASSERT_TRUE(initial.ok());

  for (int epoch = 0; epoch < 30; ++epoch) {
    ASSERT_TRUE(model->TrainBatch(x, y).ok());
  }
  auto trained = Accuracy(model.get(), x, y);
  ASSERT_TRUE(trained.ok());
  EXPECT_GT(trained.value(), 0.97);
  EXPECT_GE(trained.value(), initial.value());
}

TEST(SequentialModelTest, TrainingReducesLoss) {
  Matrix x;
  std::vector<int> y;
  MakeBlobs(256, &x, &y, 9);
  auto model = MakeMlp(2, 2);
  double first_loss = 0.0, last_loss = 0.0;
  for (int step = 0; step < 40; ++step) {
    auto loss = model->TrainBatch(x, y);
    ASSERT_TRUE(loss.ok());
    if (step == 0) first_loss = loss.value();
    last_loss = loss.value();
  }
  EXPECT_LT(last_loss, first_loss * 0.5);
}

TEST(SequentialModelTest, ParameterRoundTrip) {
  auto model = MakeMlp(5, 3);
  const std::vector<double> params = model->GetParameters();
  EXPECT_EQ(params.size(), model->ParameterCount());

  // Train to change the parameters.
  Matrix x;
  std::vector<int> y;
  MakeBlobs(64, &x, &y, 3);
  Matrix x5(64, 5);
  for (size_t i = 0; i < 64; ++i) {
    for (size_t j = 0; j < 5; ++j) x5.At(i, j) = x.At(i, j % 2);
  }
  std::vector<int> y3(y.begin(), y.end());
  ASSERT_TRUE(model->TrainBatch(x5, y3).ok());
  EXPECT_NE(model->GetParameters(), params);

  // Restore and verify identical predictions.
  ASSERT_TRUE(model->SetParameters(params).ok());
  EXPECT_EQ(model->GetParameters(), params);

  EXPECT_FALSE(model->SetParameters(std::vector<double>(3, 0.0)).ok());
}

TEST(SequentialModelTest, ComputeGradientMatchesTrainBatchStep) {
  // ApplyStep(-lr * grad) must reproduce TrainBatch exactly for plain SGD.
  ModelConfig config;
  config.learning_rate = 0.1;
  auto model_a = MakeLogisticRegression(2, 2, config);
  auto model_b = model_a->Clone();

  Matrix x;
  std::vector<int> y;
  MakeBlobs(128, &x, &y, 11);

  ASSERT_TRUE(model_a->TrainBatch(x, y).ok());

  std::vector<double> grad;
  ASSERT_TRUE(model_b->ComputeGradient(x, y, &grad).ok());
  for (auto& g : grad) g *= -config.learning_rate;
  ASSERT_TRUE(model_b->ApplyStep(grad).ok());

  const auto pa = model_a->GetParameters();
  const auto pb = model_b->GetParameters();
  ASSERT_EQ(pa.size(), pb.size());
  for (size_t i = 0; i < pa.size(); ++i) EXPECT_NEAR(pa[i], pb[i], 1e-12);
}

TEST(SequentialModelTest, CloneIsIndependent) {
  auto model = MakeMlp(2, 2);
  auto clone = model->Clone();
  EXPECT_EQ(model->GetParameters(), clone->GetParameters());

  Matrix x;
  std::vector<int> y;
  MakeBlobs(64, &x, &y, 13);
  ASSERT_TRUE(clone->TrainBatch(x, y).ok());
  EXPECT_NE(model->GetParameters(), clone->GetParameters());
}

TEST(SequentialModelTest, ApplyStepValidatesSize) {
  auto model = MakeLogisticRegression(2, 2);
  EXPECT_FALSE(model->ApplyStep(std::vector<double>(1, 0.0)).ok());
  std::vector<double> zero(model->ParameterCount(), 0.0);
  const auto before = model->GetParameters();
  ASSERT_TRUE(model->ApplyStep(zero).ok());
  EXPECT_EQ(model->GetParameters(), before);
}

TEST(SequentialModelTest, SerializedBytesTracksParameterCount) {
  auto lr = MakeLogisticRegression(10, 2);
  // 10*2 weights + 2 biases = 22 params.
  EXPECT_EQ(lr->ParameterCount(), 22u);
  EXPECT_EQ(lr->SerializedBytes(), 16u + 8u * 22u);
}

/// FNV-1a over the bytes of `values`: a digest of exact bit patterns.
uint64_t BitDigest(const double* values, size_t n) {
  uint64_t h = 1469598103934665603ull;
  const auto* bytes = reinterpret_cast<const unsigned char*>(values);
  for (size_t i = 0; i < n * sizeof(double); ++i) {
    h ^= bytes[i];
    h *= 1099511628211ull;
  }
  return h;
}

/// A fixed seeded 16-feature, 4-class stream. About a tenth of the features
/// are exactly zero (some -0.0), so the matmul zero-skip runs in layer 0 as
/// well as after the ReLU.
void StreamBatch(Rng& rng, size_t rows, Matrix* x, std::vector<int>* y) {
  *x = Matrix(rows, 16);
  y->resize(rows);
  for (size_t i = 0; i < rows; ++i) {
    double score[4] = {};
    for (size_t j = 0; j < 16; ++j) {
      const double u = rng.NextDouble();
      const double v = u < 0.05 ? 0.0 : u < 0.1 ? -0.0 : rng.Gaussian(0, 1);
      x->At(i, j) = v;
      score[j % 4] += v;
    }
    int best = 0;
    for (int c = 1; c < 4; ++c) {
      if (score[c] > score[best]) best = c;
    }
    (*y)[i] = best;
  }
}

struct LearnerDigests {
  uint64_t params;
  uint64_t proba;
};

/// Digests of MakeMlp(16, 4) after 64 TrainBatch steps on StreamBatch, and
/// of its PredictProba on one more batch, under the active dispatch target.
LearnerDigests TrainAndDigest() {
  auto model = MakeMlp(16, 4);
  Rng rng(2024);
  Matrix x;
  std::vector<int> y;
  for (int step = 0; step < 64; ++step) {
    StreamBatch(rng, 96, &x, &y);
    EXPECT_TRUE(model->TrainBatch(x, y).ok());
  }
  const std::vector<double> params = model->GetParameters();
  StreamBatch(rng, 96, &x, &y);
  auto proba = model->PredictProba(x);
  EXPECT_TRUE(proba.ok());
  return {BitDigest(params.data(), params.size()),
          BitDigest(proba->data(), proba->size())};
}

std::string Hex(uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "0x%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

/// Runs `fn` once under each dispatch target the host supports, restoring
/// the resolved target afterwards.
template <typename Fn>
void ForEachTarget(Fn fn) {
  const simd::DispatchTarget restore = simd::ActiveTarget();
  for (simd::DispatchTarget target :
       {simd::DispatchTarget::kScalar, simd::DispatchTarget::kAvx2}) {
    fn(simd::ForceTarget(target));
  }
  simd::ForceTarget(restore);
}

// The learner's bits per dispatch target, recorded before the matmul
// kernels were rewritten as whole-block kernels and before layer 0 stopped
// computing its input gradient. Any change to these is a change to every
// paper output and replay tape.
TEST(SequentialModelTest, MlpTrainingIsBitIdenticalPerDispatchTarget) {
  ForEachTarget([](simd::DispatchTarget target) {
    const bool avx2 = target == simd::DispatchTarget::kAvx2;
    const LearnerDigests d = TrainAndDigest();
    const char* params = avx2 ? "0x76497461891f0a12" : "0x6cb4528df9a87643";
    const char* proba = avx2 ? "0x88f30e7702692a82" : "0x5f00a4ab68155c5f";
    EXPECT_EQ(Hex(d.params), params) << simd::TargetName(target);
    EXPECT_EQ(Hex(d.proba), proba) << simd::TargetName(target);
  });
}

TEST(SequentialModelTest, ComputeGradientIsBitIdenticalPerDispatchTarget) {
  ForEachTarget([](simd::DispatchTarget target) {
    const bool avx2 = target == simd::DispatchTarget::kAvx2;
    auto model = MakeMlp(16, 4);
    Rng rng(77);
    Matrix x;
    std::vector<int> y;
    StreamBatch(rng, 128, &x, &y);
    ASSERT_TRUE(model->TrainBatch(x, y).ok());  // Move off the init point.
    StreamBatch(rng, 128, &x, &y);
    std::vector<double> grad;
    auto loss = model->ComputeGradient(x, y, &grad);
    ASSERT_TRUE(loss.ok());
    ASSERT_EQ(grad.size(), model->ParameterCount());
    grad.push_back(*loss);
    EXPECT_EQ(Hex(BitDigest(grad.data(), grad.size())),
              avx2 ? "0x57432e5d6a60f3b8" : "0xebccdf30d57759ef")
        << simd::TargetName(target);
  });
}

}  // namespace
}  // namespace freeway
