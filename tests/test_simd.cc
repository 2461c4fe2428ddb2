#include "linalg/simd.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <string>
#include <vector>

#include "clustering/kmeans.h"
#include "common/rng.h"
#include "linalg/matrix.h"

namespace freeway {
namespace {

/// Scalar ↔ AVX2 equivalence for every dispatched kernel, plus the
/// dispatch machinery itself. On hosts without AVX2 the ForceTarget calls
/// degrade to scalar and the comparisons become trivially exact — the
/// suite still runs, it just stops being a cross-target test (CI covers
/// both by also running with FREEWAY_SIMD=off).
///
/// Tolerances: AVX2 kernels fuse multiply-adds and lane-split reductions,
/// so scalar and vector results are NOT bit-identical — they differ by
/// reassociation-level rounding. The bound used here is a relative 1e-12
/// (double epsilon is ~2.2e-16; thousands of accumulations stay far below
/// 1e-12 relative for well-conditioned inputs). The block matmul kernels
/// are held to more: per target, exact bit equality with a plain
/// per-element reference loop.

constexpr double kRelTol = 1e-12;

void ExpectClose(double a, double b, const char* what) {
  const double scale = std::max({std::fabs(a), std::fabs(b), 1.0});
  EXPECT_LE(std::fabs(a - b), kRelTol * scale)
      << what << ": scalar=" << a << " avx2=" << b;
}

std::vector<double> RandomVector(Rng& rng, size_t n) {
  std::vector<double> v(n);
  for (double& x : v) x = rng.Uniform(-1.0, 1.0);
  return v;
}

/// RAII guard: force a target for one scope, restore the auto-resolved
/// target afterwards so test order does not leak state.
class TargetGuard {
 public:
  explicit TargetGuard(simd::DispatchTarget target)
      : previous_(simd::ActiveTarget()) {
    installed_ = simd::ForceTarget(target);
  }
  ~TargetGuard() { simd::ForceTarget(previous_); }
  simd::DispatchTarget installed() const { return installed_; }

 private:
  simd::DispatchTarget previous_;
  simd::DispatchTarget installed_;
};

TEST(SimdDispatchTest, ForceTargetInstallsAndReports) {
  {
    TargetGuard scalar(simd::DispatchTarget::kScalar);
    EXPECT_EQ(simd::ActiveTarget(), simd::DispatchTarget::kScalar);
    EXPECT_STREQ(simd::TargetName(simd::ActiveTarget()), "scalar");
  }
  {
    TargetGuard avx2(simd::DispatchTarget::kAvx2);
    if (simd::Avx2Supported()) {
      EXPECT_EQ(avx2.installed(), simd::DispatchTarget::kAvx2);
      EXPECT_STREQ(simd::TargetName(simd::ActiveTarget()), "avx2");
    } else {
      // Requesting AVX2 on a host without it must degrade, not crash.
      EXPECT_EQ(avx2.installed(), simd::DispatchTarget::kScalar);
    }
  }
}

TEST(SimdKernelTest, DotMatchesAcrossTargets) {
  // A single-element MatMulTransposeBlock is one dot product. Lengths
  // straddle every AVX2 code path: sub-lane, one lane, unaligned tails, and
  // a long reduction.
  Rng rng(17);
  for (size_t n : {0u, 1u, 3u, 4u, 7u, 8u, 15u, 16u, 17u, 64u, 1001u}) {
    const std::vector<double> a = RandomVector(rng, n);
    const std::vector<double> b = RandomVector(rng, n);
    double scalar = 0.0, vector = 0.0;
    {
      TargetGuard g(simd::DispatchTarget::kScalar);
      simd::MatMulTransposeBlock(a.data(), 1, n, b.data(), 1, &scalar);
    }
    {
      TargetGuard g(simd::DispatchTarget::kAvx2);
      simd::MatMulTransposeBlock(a.data(), 1, n, b.data(), 1, &vector);
    }
    ExpectClose(scalar, vector, "Dot");
  }
}

/// Nearest of `k` centroids for each of `n` points under one target.
std::vector<int> AssignUnder(simd::DispatchTarget target,
                             const std::vector<double>& points, size_t n,
                             const std::vector<double>& centroids, size_t k,
                             size_t dim) {
  TargetGuard g(target);
  std::vector<int> out(n, -1);
  simd::NearestCentroids(points.data(), n, centroids.data(), k, dim,
                         out.data());
  return out;
}

TEST(SimdKernelTest, SquaredDistanceMatchesAcrossTargets) {
  // The distance scan behind NearestCentroids, at lengths straddling the
  // AVX2 8-wide, 4-wide and scalar-tail paths: on random data the argmin
  // is stable under rounding-level differences, so both targets agree.
  Rng rng(19);
  for (size_t dim : {1u, 2u, 8u, 9u, 31u, 32u, 33u, 257u}) {
    const size_t n = 40, k = 5;
    const std::vector<double> points = RandomVector(rng, n * dim);
    const std::vector<double> centroids = RandomVector(rng, k * dim);
    const std::vector<int> scalar = AssignUnder(
        simd::DispatchTarget::kScalar, points, n, centroids, k, dim);
    const std::vector<int> vector = AssignUnder(simd::DispatchTarget::kAvx2,
                                                points, n, centroids, k, dim);
    EXPECT_EQ(scalar, vector) << "dim=" << dim;
    for (int c : vector) {
      EXPECT_GE(c, 0);
      EXPECT_LT(c, static_cast<int>(k));
    }
  }
}

/// Per-element reference for the block kernels: the bit-identity contract
/// spelled out as plain loops, one per dispatch target.
double ReferenceProduct(simd::DispatchTarget target, const double* a,
                        const double* b, size_t n, size_t k) {
  double t = 0.0;
  for (size_t kk = 0; kk < k; ++kk) {
    const double av = a[kk];
    if (av == 0.0) continue;
    t = target == simd::DispatchTarget::kAvx2 ? std::fma(av, b[kk * n], t)
                                              : t + av * b[kk * n];
  }
  return t;
}

/// DotAvx2's order: four 4-lane accumulators over 16-blocks, remaining
/// 4-blocks into the first, Reduce4 (pairwise, then lanes low to high),
/// then a scalar fma tail.
double ReferenceDot(simd::DispatchTarget target, const double* a,
                    const double* b, size_t k) {
  if (target == simd::DispatchTarget::kScalar) {
    double t = 0.0;
    for (size_t kk = 0; kk < k; ++kk) t += a[kk] * b[kk];
    return t;
  }
  double acc[4][4] = {};
  size_t i = 0;
  for (; i + 16 <= k; i += 16) {
    for (size_t x = 0; x < 4; ++x) {
      for (size_t l = 0; l < 4; ++l) {
        acc[x][l] = std::fma(a[i + 4 * x + l], b[i + 4 * x + l], acc[x][l]);
      }
    }
  }
  for (; i + 4 <= k; i += 4) {
    for (size_t l = 0; l < 4; ++l) {
      acc[0][l] = std::fma(a[i + l], b[i + l], acc[0][l]);
    }
  }
  double s[4];
  for (size_t l = 0; l < 4; ++l) {
    s[l] = (acc[0][l] + acc[1][l]) + (acc[2][l] + acc[3][l]);
  }
  double t = ((s[0] + s[1]) + s[2]) + s[3];
  for (; i < k; ++i) t = std::fma(a[i], b[i], t);
  return t;
}

void ExpectSameBits(double expected, double actual, const std::string& what) {
  EXPECT_EQ(std::bit_cast<uint64_t>(expected), std::bit_cast<uint64_t>(actual))
      << what << ": expected " << expected << " got " << actual;
}

/// A (m x k) with about a third zeros, some of them -0.0, and one all-zero
/// column `hidden`: B's row `hidden` holds +-inf, which the zero-skip must
/// keep out of every output.
Matrix ZeroRichA(Rng& rng, size_t m, size_t k, size_t hidden) {
  Matrix a(m, k);
  for (size_t i = 0; i < m; ++i) {
    for (size_t kk = 0; kk < k; ++kk) {
      const double u = rng.NextDouble();
      const double v = u < 0.2 ? 0.0 : u < 0.35 ? -0.0 : rng.Uniform(-1, 1);
      a.At(i, kk) = kk == hidden ? (i % 2 == 0 ? 0.0 : -0.0) : v;
    }
  }
  return a;
}

Matrix InfBehindZeroB(Rng& rng, size_t k, size_t n, size_t hidden) {
  Matrix b(k, n);
  for (size_t kk = 0; kk < k; ++kk) {
    for (size_t j = 0; j < n; ++j) {
      b.At(kk, j) = kk == hidden
                        ? (j % 2 == 0 ? 1.0 : -1.0) *
                              std::numeric_limits<double>::infinity()
                        : rng.Uniform(-1.0, 1.0);
    }
  }
  return b;
}

const simd::DispatchTarget kTargets[] = {simd::DispatchTarget::kScalar,
                                         simd::DispatchTarget::kAvx2};

TEST(SimdKernelTest, MatMulBlockIsBitIdenticalToReference) {
  Rng rng(23);
  for (simd::DispatchTarget requested : kTargets) {
    TargetGuard g(requested);
    const simd::DispatchTarget target = g.installed();
    for (size_t n : {1u, 3u, 4u, 5u, 8u, 64u}) {
      for (size_t k : {1u, 7u, 13u, 18u, 35u}) {
        for (size_t m : {1u, 3u, 9u, 17u}) {
          const size_t hidden = k / 2;
          const Matrix a = ZeroRichA(rng, m, k, hidden);
          const Matrix b = InfBehindZeroB(rng, k, n, hidden);
          std::vector<double> out(m * n, 1.0);
          simd::MatMulBlock(a.data(), k, 1, m, k, b.data(), n, out.data());
          for (size_t i = 0; i < m; ++i) {
            for (size_t j = 0; j < n; ++j) {
              ExpectSameBits(ReferenceProduct(target, a.data() + i * k,
                                              b.data() + j, n, k),
                             out[i * n + j],
                             std::string(simd::TargetName(target)) + " m=" +
                                 std::to_string(m) + " k=" +
                                 std::to_string(k) + " n=" + std::to_string(n));
            }
          }
          // The same A stored transposed (k x m), read with strides (1, m).
          const Matrix at = a.Transposed();
          std::vector<double> out_t(m * n, 1.0);
          simd::MatMulBlock(at.data(), 1, m, m, k, b.data(), n, out_t.data());
          for (size_t idx = 0; idx < out.size(); ++idx) {
            ExpectSameBits(out[idx], out_t[idx], "strided A");
          }
        }
      }
    }
  }
}

TEST(SimdKernelTest, MatMulBlockWithoutZerosMatchesReference) {
  // A block with no zero entry (raw features, gradients): every product
  // counts.
  Rng rng(27);
  for (simd::DispatchTarget requested : kTargets) {
    TargetGuard g(requested);
    const simd::DispatchTarget target = g.installed();
    for (size_t n : {1u, 3u, 4u, 5u, 8u, 64u}) {
      const size_t m = 11, k = 21;
      Matrix a(m, k), b(k, n);
      for (size_t i = 0; i < a.size(); ++i) a.data()[i] = rng.Uniform(0.5, 2.0);
      for (size_t i = 0; i < b.size(); ++i) b.data()[i] = rng.Uniform(-1, 1);
      std::vector<double> out(m * n);
      simd::MatMulBlock(a.data(), k, 1, m, k, b.data(), n, out.data());
      for (size_t i = 0; i < m; ++i) {
        for (size_t j = 0; j < n; ++j) {
          ExpectSameBits(
              ReferenceProduct(target, a.data() + i * k, b.data() + j, n, k),
              out[i * n + j], "no zeros n=" + std::to_string(n));
        }
      }
    }
  }
}

TEST(SimdKernelTest, ZeroSkipKeepsAnUnderflowedNegativeZero) {
  // Under FMA, 1e-200 * -1e-200 added to +0 rounds to -0.0; a following
  // zero entry of A must leave that -0.0 alone (adding a +0 product would
  // turn it into +0.0).
  for (simd::DispatchTarget requested : kTargets) {
    TargetGuard g(requested);
    const simd::DispatchTarget target = g.installed();
    for (size_t n : {1u, 4u, 16u}) {
      Matrix a(1, 2), b(2, n);
      a.At(0, 0) = 1e-200;
      a.At(0, 1) = 0.0;
      for (size_t j = 0; j < n; ++j) {
        b.At(0, j) = -1e-200;
        b.At(1, j) = 3.0;
      }
      std::vector<double> out(n);
      simd::MatMulBlock(a.data(), 2, 1, 1, 2, b.data(), n, out.data());
      for (size_t j = 0; j < n; ++j) {
        ExpectSameBits(
            ReferenceProduct(target, a.data(), b.data() + j, n, 2), out[j],
            "underflow n=" + std::to_string(n));
      }
    }
  }
}

TEST(SimdKernelTest, MatMulTransposeBlockIsBitIdenticalToDot) {
  Rng rng(29);
  for (simd::DispatchTarget requested : kTargets) {
    TargetGuard g(requested);
    const simd::DispatchTarget target = g.installed();
    for (size_t p : {1u, 3u, 4u, 5u, 8u, 64u}) {
      for (size_t k : {0u, 1u, 3u, 4u, 7u, 8u, 13u, 16u, 18u, 35u}) {
        const size_t m = 9;
        Matrix a(m, k), b(p, k);
        for (size_t i = 0; i < a.size(); ++i) {
          a.data()[i] = i % 5 == 0 ? -0.0 : rng.Uniform(-1.0, 1.0);
        }
        for (size_t i = 0; i < b.size(); ++i) b.data()[i] = rng.Uniform(-1, 1);
        std::vector<double> out(m * p, 1.0);
        simd::MatMulTransposeBlock(a.data(), m, k, b.data(), p, out.data());
        for (size_t i = 0; i < m; ++i) {
          for (size_t j = 0; j < p; ++j) {
            const std::string what = std::string(simd::TargetName(target)) +
                                     " p=" + std::to_string(p) +
                                     " k=" + std::to_string(k);
            const double expected =
                ReferenceDot(target, a.data() + i * k, b.data() + j * k, k);
            ExpectSameBits(expected, out[i * p + j], what);
          }
        }
      }
    }
  }
}

TEST(SimdKernelTest, NearestCentroidAgreesAndBreaksTiesLow) {
  Rng rng(31);
  for (size_t dim : {2u, 8u, 9u, 33u}) {
    const size_t k = 7, n = 20;
    std::vector<double> centroids(k * dim);
    for (double& x : centroids) x = rng.NextDouble();
    const std::vector<double> points = RandomVector(rng, n * dim);
    // Random points have distinct distances, so the winner must agree
    // exactly (a tolerance-level distance tie would be a different test).
    EXPECT_EQ(AssignUnder(simd::DispatchTarget::kScalar, points, n, centroids,
                          k, dim),
              AssignUnder(simd::DispatchTarget::kAvx2, points, n, centroids,
                          k, dim))
        << "dim=" << dim;
  }

  // Exact duplicate centroids: both targets must pick the lowest index.
  const std::vector<double> point = {0.5, 0.5};
  const std::vector<double> dup = {3.0, 3.0, 0.5, 0.5, 0.5, 0.5, 9.0, 9.0};
  for (simd::DispatchTarget t : kTargets) {
    EXPECT_EQ(AssignUnder(t, point, 1, dup, 4, 2), std::vector<int>{1});
  }
}

TEST(SimdIntegrationTest, MatMulToleranceAcrossTargets) {
  Rng rng(37);
  // Odd shapes force the k-tail and column-tail paths inside the GEMM.
  Matrix a(35, 27), b(27, 19);
  for (size_t i = 0; i < a.rows(); ++i)
    for (size_t j = 0; j < a.cols(); ++j)
      a.At(i, j) = rng.Uniform(-1.0, 1.0);
  for (size_t i = 0; i < b.rows(); ++i)
    for (size_t j = 0; j < b.cols(); ++j)
      b.At(i, j) = rng.Uniform(-1.0, 1.0);

  Matrix scalar, vector;
  {
    TargetGuard g(simd::DispatchTarget::kScalar);
    scalar = a.MatMul(b);
  }
  {
    TargetGuard g(simd::DispatchTarget::kAvx2);
    vector = a.MatMul(b);
  }
  for (size_t i = 0; i < scalar.rows(); ++i) {
    for (size_t j = 0; j < scalar.cols(); ++j) {
      ExpectClose(scalar.At(i, j), vector.At(i, j), "MatMul");
    }
  }
}

TEST(SimdIntegrationTest, MatMulZeroSkipStillShortCircuitsNonFinite) {
  // The zero-skip contract: a == 0 entries are skipped entirely, so a 0 row
  // weight times an inf/NaN operand contributes nothing under BOTH targets:
  // MatMulBlock keeps the old accumulator (AVX2) or adds +0.0 (scalar)
  // wherever a == 0.
  Matrix a(1, 4), b(4, 3);
  a.At(0, 0) = 1.0;
  a.At(0, 1) = 0.0;  // row of b with non-finite values — must be skipped
  a.At(0, 2) = 2.0;
  a.At(0, 3) = 0.0;
  for (size_t j = 0; j < 3; ++j) {
    b.At(0, j) = 1.0;
    b.At(1, j) = std::numeric_limits<double>::infinity();
    b.At(2, j) = 10.0;
    b.At(3, j) = std::nan("");
  }
  for (simd::DispatchTarget t :
       {simd::DispatchTarget::kScalar, simd::DispatchTarget::kAvx2}) {
    TargetGuard g(t);
    const Matrix out = a.MatMul(b);
    for (size_t j = 0; j < 3; ++j) {
      EXPECT_DOUBLE_EQ(out.At(0, j), 21.0) << simd::TargetName(t);
    }
  }
}

TEST(SimdIntegrationTest, KMeansAssignmentsAgreeAcrossTargets) {
  Rng rng(41);
  Matrix points(200, 16);
  for (size_t i = 0; i < points.rows(); ++i)
    for (size_t j = 0; j < points.cols(); ++j)
      points.At(i, j) = rng.Uniform(0.0, 10.0);

  KMeansOptions opts;
  opts.seed = 7;
  std::vector<int> scalar_assign, vector_assign;
  {
    TargetGuard g(simd::DispatchTarget::kScalar);
    Result<KMeansResult> km = KMeans(points, 5, opts);
    ASSERT_TRUE(km.ok()) << km.status();
    scalar_assign = AssignToCentroids(points, km->centroids);
  }
  {
    TargetGuard g(simd::DispatchTarget::kAvx2);
    Result<KMeansResult> km = KMeans(points, 5, opts);
    ASSERT_TRUE(km.ok()) << km.status();
    vector_assign = AssignToCentroids(points, km->centroids);
  }
  // Same seed, same data: Lloyd's iterations see tolerance-level
  // differences at most, and on random data the argmin per point is stable
  // under 1e-12-relative perturbation.
  EXPECT_EQ(scalar_assign, vector_assign);
}

/// FNV-1a over raw bytes, chained from `h`.
uint64_t Fnv(uint64_t h, const void* data, size_t bytes) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < bytes; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}

TEST(SimdIntegrationTest, KMeansOutputBitsArePinned) {
  // The shapes CEC clusters (experience rows plus a query batch, three
  // offset blobs) and a few odd ones. The digests cover centroids,
  // assignments, inertia and iteration count, and were recorded while the
  // Lloyd step still called the per-point NearestCentroid once per point.
  struct Case {
    size_t n, dim, k;
    uint64_t seed;
    uint64_t digest;
  };
  const Case cases[] = {{1150, 8, 4, 5, 0x616004a54c5f59bdull},
                        {97, 33, 7, 6, 0x997f45de0a5222b7ull},
                        {333, 5, 3, 7, 0xa491bcb3d14aff60ull},
                        {64, 2, 4, 8, 0xab8216626f636936ull}};
  for (simd::DispatchTarget t : kTargets) {
    TargetGuard g(t);
    for (const Case& c : cases) {
      Rng rng(c.seed);
      Matrix points(c.n, c.dim);
      for (size_t i = 0; i < c.n; ++i) {
        for (size_t d = 0; d < c.dim; ++d) {
          points.At(i, d) =
              rng.Uniform(-1.0, 1.0) + 1.5 * static_cast<double>(i % 3);
        }
      }
      Result<KMeansResult> km = KMeans(points, c.k);
      ASSERT_TRUE(km.ok()) << km.status();
      uint64_t h = 1469598103934665603ull;
      h = Fnv(h, km->centroids.data(), sizeof(double) * c.k * c.dim);
      h = Fnv(h, km->assignments.data(), sizeof(int) * c.n);
      h = Fnv(h, &km->inertia, sizeof(double));
      h = Fnv(h, &km->iterations, sizeof(int));
      EXPECT_EQ(h, c.digest) << simd::TargetName(t) << " n=" << c.n
                             << " dim=" << c.dim << " k=" << c.k;
    }
  }
}

}  // namespace
}  // namespace freeway
