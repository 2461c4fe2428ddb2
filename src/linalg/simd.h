#ifndef FREEWAYML_LINALG_SIMD_H_
#define FREEWAYML_LINALG_SIMD_H_

#include <cstddef>
#include <string>

namespace freeway {
namespace simd {

/// Runtime-dispatched SIMD kernels behind the dense hot paths (whole-block
/// matrix products and the k-means assignment scan). One dispatch target is
/// selected at first use and cached for the process:
///
///  - kAvx2: AVX2 + FMA vector kernels (fused multiply-add accumulators
///    held in registers).
///  - kScalar: portable kernels whose floating-point operation order is
///    exactly the pre-SIMD code's, so `FREEWAY_SIMD=off` reproduces the
///    historical bit patterns.
///
/// Selection: the FREEWAY_SIMD environment variable ("off"/"scalar" forces
/// kScalar, "avx2"/"on" requests AVX2, unset auto-detects) intersected with
/// what the CPU actually supports — requesting AVX2 on a machine without it
/// logs a warning and falls back to scalar.
///
/// Determinism contract: every kernel here is branch-deterministic and
/// threading-free, so for a *fixed* dispatch target results are bit-exact
/// regardless of caller thread count (the PR-1 contract). Across targets
/// results differ within a small tolerance: the AVX2 kernels fuse
/// multiply-adds (no intermediate rounding of the product) and the
/// reductions (MatMulTransposeBlock, the distance scan) split the
/// accumulation across vector lanes, which reassociates the sum.
/// tests/test_simd.cc pins the scalar↔AVX2 tolerance; DESIGN.md "SIMD
/// dispatch" documents the policy.
enum class DispatchTarget {
  kScalar,
  kAvx2,
};

/// The target all kernels currently dispatch to (resolving it on first
/// call). Thread-safe.
DispatchTarget ActiveTarget();

/// "scalar" / "avx2".
const char* TargetName(DispatchTarget target);

/// True when this CPU can run the AVX2+FMA kernels.
bool Avx2Supported();

/// Test hook: force a specific target (kAvx2 silently degrades to kScalar
/// when unsupported; returns the target actually installed). Not for
/// production use — callers must ensure no kernel is concurrently in
/// flight, and the choice is process-global.
DispatchTarget ForceTarget(DispatchTarget target);

/// out (m x n, row-major, overwritten) = A * B for row-major B (k x n),
/// where A is m x k with entry (i, kk) at a[i * a_row_stride + kk *
/// a_k_stride]: strides (k, 1) are a row-major A (Matrix::MatMul), strides
/// (1, m') read a k x m' matrix transposed (Matrix::TransposeMatMul). One
/// dispatch per call; the accumulators stay in registers across k.
///
/// Bit-identity contract: out[i][j] starts at +0.0 and takes, in ascending
/// k, one `t += a * b` (kScalar) or `t = fma(a, b, t)` (kAvx2) per entry
/// a = A(i, kk) that is not == 0.0. Zero entries (including -0.0) are
/// skipped by a select, not a branch, so 0 * inf or 0 * NaN in B never
/// contributes. Column strips and row tiles follow from n alone (n < 8, a
/// narrow logit layer, runs one-vector strips with 8 rows in flight), and
/// none of them changes an element's operation sequence.
void MatMulBlock(const double* a, size_t a_row_stride, size_t a_k_stride,
                 size_t m, size_t k, const double* b, size_t n, double* out);

/// out (m x p, row-major, overwritten) = A * B^T for row-major A (m x k)
/// and B (p x k). Every element is the dot product of row i of A and row j
/// of B in a fixed order per target: ascending k into one accumulator
/// (kScalar), or fmas split over four 4-lane accumulators by 16-blocks,
/// the remaining 4-blocks into the first, a fixed pairwise-then-lanes
/// reduction and an ascending fma tail (kAvx2). One dispatch per call; the
/// kernel behind Matrix::MatMulTranspose.
void MatMulTransposeBlock(const double* a, size_t m, size_t k,
                          const double* b, size_t p, double* out);

/// The k-means assignment kernel: out[i] = index of the row of `centroids`
/// (k rows of length dim, row-major) nearest in squared Euclidean distance
/// to row i of `points` (n rows of length dim, row-major), for i in [0, n);
/// ties break to the lowest index in both targets. Dispatch is resolved
/// once per call and the per-point scan is inlined inside the kernel —
/// the parallel assignment passes call it once per chunk. `points`,
/// `centroids` and `out` must not overlap.
void NearestCentroids(const double* points, size_t n, const double* centroids,
                      size_t k, size_t dim, int* out);

}  // namespace simd
}  // namespace freeway

#endif  // FREEWAYML_LINALG_SIMD_H_
