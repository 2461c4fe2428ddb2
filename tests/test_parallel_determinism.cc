// Bit-identical results at every thread count is the substrate's core
// contract (DESIGN.md "Threading model"): chunk boundaries depend only on
// the range and grain, per-element accumulation order is fixed, and sharded
// reductions merge in ascending shard order. These tests run each
// parallelized kernel at 1 and 4 global threads and compare outputs with
// exact equality — any reordering of floating-point accumulation fails.

#include <gtest/gtest.h>

#include <functional>
#include <vector>

#include "clustering/kmeans.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/granularity.h"
#include "linalg/simd.h"
#include "ml/layers.h"
#include "ml/models.h"

namespace freeway {
namespace {

Matrix RandomMatrix(size_t rows, size_t cols, uint64_t seed) {
  Rng rng(seed);
  Matrix m(rows, cols);
  for (size_t i = 0; i < rows; ++i) {
    for (size_t j = 0; j < cols; ++j) m.At(i, j) = rng.Gaussian(0, 1);
  }
  return m;
}

void ExpectBitIdentical(const Matrix& a, const Matrix& b) {
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.cols(), b.cols());
  for (size_t i = 0; i < a.rows(); ++i) {
    for (size_t j = 0; j < a.cols(); ++j) {
      // EXPECT_EQ, not EXPECT_NEAR: the contract is exact.
      ASSERT_EQ(a.At(i, j), b.At(i, j)) << "at (" << i << ", " << j << ")";
    }
  }
}

/// Runs `compute` under 1 and then 4 global threads, restoring a serial
/// global pool afterwards, and returns both results.
template <typename T>
std::pair<T, T> AtOneAndFourThreads(const std::function<T()>& compute) {
  ThreadPool::SetGlobalThreads(1);
  T serial = compute();
  ThreadPool::SetGlobalThreads(4);
  T parallel = compute();
  ThreadPool::SetGlobalThreads(1);
  return {std::move(serial), std::move(parallel)};
}

TEST(ParallelDeterminismTest, MatMulVariants) {
  // Odd sizes exercise the unroll remainders and partial chunks.
  Matrix a = RandomMatrix(67, 45, 1);
  Matrix b = RandomMatrix(45, 33, 2);
  auto [s1, p1] = AtOneAndFourThreads<Matrix>([&] { return a.MatMul(b); });
  ExpectBitIdentical(s1, p1);

  Matrix c = RandomMatrix(67, 33, 3);
  auto [s2, p2] =
      AtOneAndFourThreads<Matrix>([&] { return a.TransposeMatMul(c); });
  ExpectBitIdentical(s2, p2);

  Matrix d = RandomMatrix(90, 45, 4);
  auto [s3, p3] =
      AtOneAndFourThreads<Matrix>([&] { return a.MatMulTranspose(d); });
  ExpectBitIdentical(s3, p3);
}

TEST(ParallelDeterminismTest, MatMulWithZerosMatchesSerial) {
  // The zero-skip fast path must not change results either.
  Matrix a = RandomMatrix(50, 40, 5);
  for (size_t i = 0; i < a.rows(); ++i) {
    for (size_t j = 0; j < a.cols(); j += 3) a.At(i, j) = 0.0;
  }
  Matrix b = RandomMatrix(40, 21, 6);
  auto [s, p] = AtOneAndFourThreads<Matrix>([&] { return a.MatMul(b); });
  ExpectBitIdentical(s, p);
}

TEST(ParallelDeterminismTest, KMeans) {
  Matrix points = RandomMatrix(600, 8, 7);
  auto run = [&] {
    KMeansOptions opts;
    opts.max_iterations = 15;
    auto r = KMeans(points, 5, opts);
    EXPECT_TRUE(r.ok());
    return std::move(r).value();
  };
  auto [s, p] = AtOneAndFourThreads<KMeansResult>(run);
  EXPECT_EQ(s.assignments, p.assignments);
  EXPECT_EQ(s.iterations, p.iterations);
  EXPECT_EQ(s.inertia, p.inertia);
  ExpectBitIdentical(s.centroids, p.centroids);

  auto [sa, pa] = AtOneAndFourThreads<std::vector<int>>(
      [&] { return AssignToCentroids(points, s.centroids); });
  EXPECT_EQ(sa, pa);
}

TEST(ParallelDeterminismTest, Conv2dForwardBackward) {
  TensorShape shape{2, 10, 10};
  auto run = [&] {
    Rng rng(8);
    Conv2dLayer conv(shape, 4, 3, 3, &rng);
    Matrix input = RandomMatrix(6, shape.FlatSize(), 9);
    Matrix out = conv.Forward(input);
    Matrix grad_out = RandomMatrix(out.rows(), out.cols(), 10);
    Matrix grad_in = conv.Backward(grad_out, /*need_input_grad=*/true);
    std::vector<Matrix> all = {out, grad_in};
    for (Matrix* g : conv.Grads()) all.push_back(*g);
    return all;
  };
  auto [s, p] = AtOneAndFourThreads<std::vector<Matrix>>(run);
  ASSERT_EQ(s.size(), p.size());
  for (size_t i = 0; i < s.size(); ++i) ExpectBitIdentical(s[i], p[i]);
}

TEST(ParallelDeterminismTest, EnsemblePredictProba) {
  auto run = [&] {
    auto proto = MakeMlp(2, 2);
    MultiGranularityOptions opts;
    opts.long_window_batches = {2};
    MultiGranularityEnsemble ensemble(*proto, opts);
    Rng rng(11);
    for (int b = 0; b < 4; ++b) {  // Two rollovers: long member is active.
      Batch batch;
      batch.features = RandomMatrix(32, 2, 12 + b);
      batch.labels.resize(32);
      for (auto& y : batch.labels) y = static_cast<int>(rng.NextBelow(2));
      EXPECT_TRUE(ensemble.Train(batch).ok());
    }
    Matrix query = RandomMatrix(16, 2, 20);
    auto proba = ensemble.PredictProba(query);
    EXPECT_TRUE(proba.ok());
    return std::move(proba).value();
  };
  auto [s, p] = AtOneAndFourThreads<Matrix>(run);
  ExpectBitIdentical(s, p);
}

TEST(ParallelDeterminismTest, HoldsUnderEverySimdDispatchTarget) {
  // The contract is per dispatch target: scalar and AVX2 kernels each give
  // bit-identical results at any thread count (chunk layout depends only
  // on shape; per-element accumulation order is fixed inside each kernel).
  // Cross-target equality is NOT promised — that tolerance lives in
  // tests/test_simd.cc.
  Matrix a = RandomMatrix(61, 47, 31);
  Matrix b = RandomMatrix(47, 29, 32);
  Matrix points = RandomMatrix(300, 16, 33);
  const simd::DispatchTarget restore = simd::ActiveTarget();
  for (simd::DispatchTarget target :
       {simd::DispatchTarget::kScalar, simd::DispatchTarget::kAvx2}) {
    simd::ForceTarget(target);
    auto [s, p] = AtOneAndFourThreads<Matrix>([&] { return a.MatMul(b); });
    ExpectBitIdentical(s, p);
    auto [sk, pk] = AtOneAndFourThreads<KMeansResult>([&] {
      KMeansOptions opts;
      opts.max_iterations = 10;
      auto r = KMeans(points, 4, opts);
      EXPECT_TRUE(r.ok());
      return std::move(r).value();
    });
    EXPECT_EQ(sk.assignments, pk.assignments);
    ExpectBitIdentical(sk.centroids, pk.centroids);
  }
  simd::ForceTarget(restore);
}

}  // namespace
}  // namespace freeway
