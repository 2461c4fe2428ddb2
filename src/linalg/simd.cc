#include "linalg/simd.h"

#include <atomic>
#include <bit>
#include <cctype>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <string>
#include <vector>

#include "common/logging.h"

#if (defined(__x86_64__) || defined(__i386__)) && \
    (defined(__GNUC__) || defined(__clang__))
#define FREEWAY_SIMD_X86 1
#include <immintrin.h>
#else
#define FREEWAY_SIMD_X86 0
#endif

namespace freeway {
namespace simd {
namespace {

// ---------------------------------------------------------------------------
// Scalar kernels. Operation order is exactly the pre-SIMD inner loops of
// matrix.cc / kmeans.cc, so the scalar target is bit-compatible with the
// historical (FREEWAY_SIMD=off) behaviour.
// ---------------------------------------------------------------------------

// The scalar kernels take __restrict pointers: call sites never alias the
// output with an input row, and the qualifier is worth ~5% on the k-means
// scan (the compiler can keep accumulators in registers across the inner
// loop without re-checking memory). It does not license reassociation, so
// the historical operation order — and therefore the bit patterns — hold.

double DotScalar(const double* __restrict a, const double* __restrict b,
                 size_t n) {
  double acc = 0.0;
  for (size_t i = 0; i < n; ++i) acc += a[i] * b[i];
  return acc;
}

/// Straight-line distance scan. Early-abandonment variants (bailing when a
/// prefix sum exceeds the incumbent) were measured ~1.6x *slower* here —
/// the per-stride branch defeats pipelining at these shapes — so the
/// kernel stays branch-free per centroid, preserving the historical
/// accumulation order exactly.
int NearestCentroidScalar(const double* __restrict point,
                          const double* __restrict centroids, size_t k,
                          size_t dim) {
  double best = std::numeric_limits<double>::infinity();
  int best_c = 0;
  for (size_t c = 0; c < k; ++c) {
    const double* row = centroids + c * dim;
    double acc = 0.0;
    for (size_t i = 0; i < dim; ++i) {
      const double d = point[i] - row[i];
      acc += d * d;
    }
    if (acc < best) {
      best = acc;
      best_c = static_cast<int>(c);
    }
  }
  return best_c;
}

void NearestCentroidsScalar(const double* __restrict points, size_t n,
                            const double* __restrict centroids, size_t k,
                            size_t dim, int* __restrict out) {
  for (size_t i = 0; i < n; ++i) {
    out[i] = NearestCentroidScalar(points + i * dim, centroids, k, dim);
  }
}

/// One row by W columns of A*B with the accumulators held across k. The
/// zero-skip is a bit mask, not a branch: where a == 0 (or -0.0) the
/// product — possibly 0 * inf = NaN — is replaced by +0.0 before the add.
/// Adding +0.0 leaves every accumulator unchanged because a sum that
/// starts at +0.0 can never become -0.0 under round-to-nearest, so this is
/// exactly `if (a != 0) t += a * b`.
template <int W>
void MatMulTileScalar(const double* __restrict a, size_t a_k_stride, size_t k,
                      const double* __restrict b, size_t n,
                      double* __restrict out) {
  double acc[W] = {};
  for (size_t kk = 0; kk < k; ++kk) {
    const double av = a[kk * a_k_stride];
    const uint64_t keep = uint64_t{0} - static_cast<uint64_t>(av != 0.0);
    const double* b_row = b + kk * n;
#pragma GCC unroll 4
    for (int c = 0; c < W; ++c) {
      acc[c] += std::bit_cast<double>(
          std::bit_cast<uint64_t>(av * b_row[c]) & keep);
    }
  }
#pragma GCC unroll 4
  for (int c = 0; c < W; ++c) out[c] = acc[c];
}

void MatMulBlockScalar(const double* a, size_t a_row_stride,
                       size_t a_k_stride, size_t m, size_t k, const double* b,
                       size_t n, double* out) {
  for (size_t i = 0; i < m; ++i) {
    const double* a_row = a + i * a_row_stride;
    double* out_row = out + i * n;
    size_t j = 0;
    for (; j + 4 <= n; j += 4) {
      MatMulTileScalar<4>(a_row, a_k_stride, k, b + j, n, out_row + j);
    }
    for (; j < n; ++j) {
      MatMulTileScalar<1>(a_row, a_k_stride, k, b + j, n, out_row + j);
    }
  }
}

void MatMulTransposeBlockScalar(const double* a, size_t m, size_t k,
                                const double* b, size_t p, double* out) {
  for (size_t i = 0; i < m; ++i) {
    for (size_t j = 0; j < p; ++j) {
      out[i * p + j] = DotScalar(a + i * k, b + j * k, k);
    }
  }
}

// ---------------------------------------------------------------------------
// AVX2 + FMA kernels. Per-function target attributes keep the rest of the
// tree buildable with the portable baseline flags; these bodies are only
// ever reached after the cpuid check below.
// ---------------------------------------------------------------------------

#if FREEWAY_SIMD_X86

/// Lane-order reduction of 4 vector accumulators: pairwise adds, then the
/// fixed low→high horizontal sum. Deterministic, but a different
/// association than the scalar ascending sum — the documented tolerance.
__attribute__((target("avx2,fma"))) double Reduce4(__m256d acc0, __m256d acc1,
                                                   __m256d acc2,
                                                   __m256d acc3) {
  const __m256d s01 = _mm256_add_pd(acc0, acc1);
  const __m256d s23 = _mm256_add_pd(acc2, acc3);
  const __m256d s = _mm256_add_pd(s01, s23);
  alignas(32) double lanes[4];
  _mm256_store_pd(lanes, s);
  return ((lanes[0] + lanes[1]) + lanes[2]) + lanes[3];
}

__attribute__((target("avx2,fma"))) double DotAvx2(const double* a,
                                                   const double* b,
                                                   size_t n) {
  __m256d acc0 = _mm256_setzero_pd();
  __m256d acc1 = _mm256_setzero_pd();
  __m256d acc2 = _mm256_setzero_pd();
  __m256d acc3 = _mm256_setzero_pd();
  size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    acc0 = _mm256_fmadd_pd(_mm256_loadu_pd(a + i), _mm256_loadu_pd(b + i),
                           acc0);
    acc1 = _mm256_fmadd_pd(_mm256_loadu_pd(a + i + 4),
                           _mm256_loadu_pd(b + i + 4), acc1);
    acc2 = _mm256_fmadd_pd(_mm256_loadu_pd(a + i + 8),
                           _mm256_loadu_pd(b + i + 8), acc2);
    acc3 = _mm256_fmadd_pd(_mm256_loadu_pd(a + i + 12),
                           _mm256_loadu_pd(b + i + 12), acc3);
  }
  for (; i + 4 <= n; i += 4) {
    acc0 = _mm256_fmadd_pd(_mm256_loadu_pd(a + i), _mm256_loadu_pd(b + i),
                           acc0);
  }
  double acc = Reduce4(acc0, acc1, acc2, acc3);
  for (; i < n; ++i) acc = __builtin_fma(a[i], b[i], acc);
  return acc;
}

__attribute__((target("avx2,fma"))) double SquaredDistanceAvx2(
    const double* a, const double* b, size_t n) {
  __m256d acc0 = _mm256_setzero_pd();
  __m256d acc1 = _mm256_setzero_pd();
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256d d0 =
        _mm256_sub_pd(_mm256_loadu_pd(a + i), _mm256_loadu_pd(b + i));
    const __m256d d1 =
        _mm256_sub_pd(_mm256_loadu_pd(a + i + 4), _mm256_loadu_pd(b + i + 4));
    acc0 = _mm256_fmadd_pd(d0, d0, acc0);
    acc1 = _mm256_fmadd_pd(d1, d1, acc1);
  }
  for (; i + 4 <= n; i += 4) {
    const __m256d d =
        _mm256_sub_pd(_mm256_loadu_pd(a + i), _mm256_loadu_pd(b + i));
    acc0 = _mm256_fmadd_pd(d, d, acc0);
  }
  double acc = Reduce4(acc0, acc1, _mm256_setzero_pd(), _mm256_setzero_pd());
  for (; i < n; ++i) {
    const double d = a[i] - b[i];
    acc = __builtin_fma(d, d, acc);
  }
  return acc;
}

__attribute__((target("avx2,fma"))) int NearestCentroidAvx2(
    const double* point, const double* centroids, size_t k, size_t dim) {
  double best = std::numeric_limits<double>::infinity();
  int best_c = 0;
  for (size_t c = 0; c < k; ++c) {
    const double d2 = SquaredDistanceAvx2(point, centroids + c * dim, dim);
    if (d2 < best) {
      best = d2;
      best_c = static_cast<int>(c);
    }
  }
  return best_c;
}

__attribute__((target("avx2,fma"))) void NearestCentroidsAvx2(
    const double* __restrict points, size_t n,
    const double* __restrict centroids, size_t k, size_t dim,
    int* __restrict out) {
  for (size_t i = 0; i < n; ++i) {
    out[i] = NearestCentroidAvx2(points + i * dim, centroids, k, dim);
  }
}

/// Lane mask selecting the first `lanes` (1..3) of a 4-double vector.
__attribute__((target("avx2,fma"))) __m256i TailMask(size_t lanes) {
  return _mm256_setr_epi64x(-1, lanes > 1 ? -1 : 0, lanes > 2 ? -1 : 0, 0);
}

/// R rows by V vectors (4V columns) of A*B, accumulators in registers
/// across the whole k range. kMaskLast reads/writes only the lanes of the
/// last vector that `last` selects (the column remainder). The fma result
/// is discarded where a == 0 (blend on an ordered-equal compare, so NaN
/// entries of A still count, as in `a == 0.0`).
template <int R, int V, bool kMaskLast>
__attribute__((target("avx2,fma"), always_inline)) inline void MatMulTileAvx2(
    const double* a, size_t a_row_stride, size_t a_k_stride, size_t k,
    const double* b, size_t n, double* out, __m256i last) {
  const __m256d zero = _mm256_setzero_pd();
  __m256d acc[R][V];
#pragma GCC unroll 8
  for (int r = 0; r < R; ++r) {
#pragma GCC unroll 4
    for (int v = 0; v < V; ++v) acc[r][v] = zero;
  }
  for (size_t kk = 0; kk < k; ++kk) {
    const double* b_row = b + kk * n;
    __m256d bv[V];
#pragma GCC unroll 4
    for (int v = 0; v < V; ++v) {
      bv[v] = kMaskLast && v == V - 1
                  ? _mm256_maskload_pd(b_row + 4 * v, last)
                  : _mm256_loadu_pd(b_row + 4 * v);
    }
    const double* a_col = a + kk * a_k_stride;
#pragma GCC unroll 8
    for (int r = 0; r < R; ++r) {
      const __m256d av = _mm256_broadcast_sd(a_col + r * a_row_stride);
      const __m256d skip = _mm256_cmp_pd(av, zero, _CMP_EQ_OQ);
#pragma GCC unroll 4
      for (int v = 0; v < V; ++v) {
        acc[r][v] = _mm256_blendv_pd(_mm256_fmadd_pd(av, bv[v], acc[r][v]),
                                     acc[r][v], skip);
      }
    }
  }
#pragma GCC unroll 8
  for (int r = 0; r < R; ++r) {
#pragma GCC unroll 4
    for (int v = 0; v < V; ++v) {
      double* dst = out + r * n + 4 * v;
      if (kMaskLast && v == V - 1) {
        _mm256_maskstore_pd(dst, last, acc[r][v]);
      } else {
        _mm256_storeu_pd(dst, acc[r][v]);
      }
    }
  }
}

/// One column strip (4V wide) over all m rows: R-row tiles, then single
/// rows for the remainder.
template <int R, int V, bool kMaskLast>
__attribute__((target("avx2,fma"))) void MatMulStripAvx2(
    const double* a, size_t a_row_stride, size_t a_k_stride, size_t m,
    size_t k, const double* b, size_t n, double* out, __m256i last) {
  size_t i = 0;
  for (; i + R <= m; i += R) {
    MatMulTileAvx2<R, V, kMaskLast>(a + i * a_row_stride, a_row_stride,
                                    a_k_stride, k, b, n, out + i * n, last);
  }
  for (; i < m; ++i) {
    MatMulTileAvx2<1, V, kMaskLast>(a + i * a_row_stride, a_row_stride,
                                    a_k_stride, k, b, n, out + i * n, last);
  }
}

/// Column strips are chosen from the shape alone: 16 wide (2 rows in
/// flight) while they fit, then 8 wide (4 rows), then 4 wide (8 rows), then
/// a masked remainder. Narrow outputs (n < 8, e.g. a 4-class logit layer)
/// therefore run entirely on the 8-row, one-vector tile.
__attribute__((target("avx2,fma"))) void MatMulBlockAvx2(
    const double* a, size_t a_row_stride, size_t a_k_stride, size_t m,
    size_t k, const double* b, size_t n, double* out) {
  const __m256i all = _mm256_set1_epi64x(-1);
  size_t j = 0;
  for (; j + 16 <= n; j += 16) {
    MatMulStripAvx2<2, 4, false>(a, a_row_stride, a_k_stride, m, k, b + j,
                                 n, out + j, all);
  }
  for (; j + 8 <= n; j += 8) {
    MatMulStripAvx2<4, 2, false>(a, a_row_stride, a_k_stride, m, k, b + j,
                                 n, out + j, all);
  }
  for (; j + 4 <= n; j += 4) {
    MatMulStripAvx2<8, 1, false>(a, a_row_stride, a_k_stride, m, k, b + j,
                                 n, out + j, all);
  }
  if (j < n) {
    MatMulStripAvx2<8, 1, true>(a, a_row_stride, a_k_stride, m, k, b + j, n,
                                out + j, TailMask(n - j));
  }
}

/// A*B^T with every element in exactly DotAvx2's order. For k >= 16 that
/// is DotAvx2 itself per element. Below 16, DotAvx2 only ever fills acc0
/// (one fma per 4-block, lane l taking k = l, l+4, l+8), reduces it with
/// Reduce4(acc0, 0, 0, 0) and finishes with scalar fmas over the k % 4
/// tail; the loop below runs those same operations for four output
/// columns at once, lane-wise, against a transposed copy of B.
__attribute__((target("avx2,fma"))) void MatMulTransposeBlockAvx2(
    const double* a, size_t m, size_t k, const double* b, size_t p,
    double* out) {
  if (k >= 16) {
    for (size_t i = 0; i < m; ++i) {
      for (size_t j = 0; j < p; ++j) {
        out[i * p + j] = DotAvx2(a + i * k, b + j * k, k);
      }
    }
    return;
  }
  const size_t p4 = (p + 3) & ~size_t{3};
  std::vector<double> bt(k * p4, 0.0);
  for (size_t j = 0; j < p; ++j) {
    for (size_t kk = 0; kk < k; ++kk) bt[kk * p4 + j] = b[j * k + kk];
  }
  const size_t blocks = k / 4;
  const __m256d zero = _mm256_setzero_pd();
  const __m256i tail = TailMask(p & 3);
  for (size_t i = 0; i < m; ++i) {
    const double* a_row = a + i * k;
    double* out_row = out + i * p;
    for (size_t j = 0; j < p4; j += 4) {
      // lane[l] holds lane l of acc0 for the four output columns.
      __m256d lane[4] = {zero, zero, zero, zero};
      for (size_t blk = 0; blk < blocks; ++blk) {
#pragma GCC unroll 4
        for (int l = 0; l < 4; ++l) {
          const size_t kk = 4 * blk + static_cast<size_t>(l);
          lane[l] = _mm256_fmadd_pd(_mm256_broadcast_sd(a_row + kk),
                                    _mm256_loadu_pd(&bt[kk * p4 + j]),
                                    lane[l]);
        }
      }
      // Reduce4: s = (acc0 + acc1) + (acc2 + acc3) with acc1..3 = +0, then
      // ((s0 + s1) + s2) + s3.
      __m256d s[4];
#pragma GCC unroll 4
      for (int l = 0; l < 4; ++l) {
        s[l] = _mm256_add_pd(_mm256_add_pd(lane[l], zero),
                             _mm256_add_pd(zero, zero));
      }
      __m256d r = _mm256_add_pd(_mm256_add_pd(_mm256_add_pd(s[0], s[1]), s[2]),
                                s[3]);
      for (size_t kk = 4 * blocks; kk < k; ++kk) {
        r = _mm256_fmadd_pd(_mm256_broadcast_sd(a_row + kk),
                            _mm256_loadu_pd(&bt[kk * p4 + j]), r);
      }
      if (j + 4 <= p) {
        _mm256_storeu_pd(out_row + j, r);
      } else {
        _mm256_maskstore_pd(out_row + j, tail, r);
      }
    }
  }
}

#endif  // FREEWAY_SIMD_X86

// ---------------------------------------------------------------------------
// Dispatch.
// ---------------------------------------------------------------------------

constexpr int kUnresolved = -1;
std::atomic<int> g_target{kUnresolved};

bool DetectAvx2() {
#if FREEWAY_SIMD_X86
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
#else
  return false;
#endif
}

/// First-use resolution: FREEWAY_SIMD intersected with cpuid. Races are
/// benign — every thread resolves to the same value.
DispatchTarget Resolve() {
  int current = g_target.load(std::memory_order_acquire);
  if (current != kUnresolved) return static_cast<DispatchTarget>(current);
  DispatchTarget target =
      DetectAvx2() ? DispatchTarget::kAvx2 : DispatchTarget::kScalar;
  const char* env = std::getenv("FREEWAY_SIMD");
  if (env != nullptr) {
    std::string value(env);
    for (char& ch : value) {
      ch = static_cast<char>(std::tolower(static_cast<unsigned char>(ch)));
    }
    if (value == "off" || value == "scalar" || value == "0") {
      target = DispatchTarget::kScalar;
    } else if (value == "avx2" || value == "on" || value == "1" ||
               value == "auto" || value.empty()) {
      if (target != DispatchTarget::kAvx2 &&
          (value == "avx2" || value == "on" || value == "1")) {
        FREEWAY_LOG(kWarning) << "FREEWAY_SIMD=" << env
                              << " requested but this CPU lacks AVX2/FMA; "
                                 "using scalar kernels";
      }
    } else {
      FREEWAY_LOG(kWarning) << "unknown FREEWAY_SIMD value '" << env
                            << "' (want off|scalar|avx2|auto); auto-detecting";
    }
  }
  g_target.store(static_cast<int>(target), std::memory_order_release);
  return target;
}

}  // namespace

DispatchTarget ActiveTarget() { return Resolve(); }

const char* TargetName(DispatchTarget target) {
  return target == DispatchTarget::kAvx2 ? "avx2" : "scalar";
}

bool Avx2Supported() { return DetectAvx2(); }

DispatchTarget ForceTarget(DispatchTarget target) {
  if (target == DispatchTarget::kAvx2 && !DetectAvx2()) {
    target = DispatchTarget::kScalar;
  }
  g_target.store(static_cast<int>(target), std::memory_order_release);
  return target;
}

void NearestCentroids(const double* points, size_t n, const double* centroids,
                      size_t k, size_t dim, int* out) {
#if FREEWAY_SIMD_X86
  if (Resolve() == DispatchTarget::kAvx2) {
    NearestCentroidsAvx2(points, n, centroids, k, dim, out);
    return;
  }
#endif
  NearestCentroidsScalar(points, n, centroids, k, dim, out);
}

void MatMulBlock(const double* a, size_t a_row_stride, size_t a_k_stride,
                 size_t m, size_t k, const double* b, size_t n, double* out) {
#if FREEWAY_SIMD_X86
  if (Resolve() == DispatchTarget::kAvx2) {
    MatMulBlockAvx2(a, a_row_stride, a_k_stride, m, k, b, n, out);
    return;
  }
#endif
  MatMulBlockScalar(a, a_row_stride, a_k_stride, m, k, b, n, out);
}

void MatMulTransposeBlock(const double* a, size_t m, size_t k,
                          const double* b, size_t p, double* out) {
#if FREEWAY_SIMD_X86
  if (Resolve() == DispatchTarget::kAvx2) {
    MatMulTransposeBlockAvx2(a, m, k, b, p, out);
    return;
  }
#endif
  MatMulTransposeBlockScalar(a, m, k, b, p, out);
}

}  // namespace simd
}  // namespace freeway
