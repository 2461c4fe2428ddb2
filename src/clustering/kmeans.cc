#include "clustering/kmeans.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/logging.h"
#include "common/thread_pool.h"
#include "linalg/simd.h"

namespace freeway {
namespace {

/// Points per parallel chunk for a pass that scans all k centroids per
/// point. Shape-only, so the chunk/shard layout is thread-count invariant.
size_t AssignGrain(size_t k, size_t dim) { return GrainForCost(k * dim); }

/// k-means++ seeding: first center uniform, subsequent centers sampled
/// proportionally to squared distance from the nearest existing center.
Matrix SeedPlusPlus(const Matrix& points, size_t k, Rng* rng) {
  const size_t n = points.rows();
  const size_t dim = points.cols();
  Matrix centroids(k, dim);

  size_t first = static_cast<size_t>(rng->NextBelow(n));
  centroids.SetRow(0, points.Row(first));

  std::vector<double> dist2(n, std::numeric_limits<double>::infinity());
  for (size_t c = 1; c < k; ++c) {
    double total = 0.0;
    for (size_t i = 0; i < n; ++i) {
      const double d2 =
          vec::SquaredDistance(points.Row(i), centroids.Row(c - 1));
      if (d2 < dist2[i]) dist2[i] = d2;
      total += dist2[i];
    }
    size_t chosen = n - 1;
    if (total > 0.0) {
      double target = rng->NextDouble() * total;
      double acc = 0.0;
      for (size_t i = 0; i < n; ++i) {
        acc += dist2[i];
        if (acc >= target) {
          chosen = i;
          break;
        }
      }
    } else {
      chosen = static_cast<size_t>(rng->NextBelow(n));
    }
    centroids.SetRow(c, points.Row(chosen));
  }
  return centroids;
}

}  // namespace

std::vector<int> AssignToCentroids(const Matrix& points,
                                   const Matrix& centroids) {
  const size_t dim = points.cols();
  std::vector<int> out(points.rows(), 0);
  // Batch kernel per chunk: dispatch resolves once and the per-point scan
  // inlines inside the kernel, so the chunk loop carries no call overhead.
  ParallelFor(0, points.rows(), AssignGrain(centroids.rows(), dim),
              [&](size_t p0, size_t p1) {
                simd::NearestCentroids(points.data() + p0 * dim, p1 - p0,
                                       centroids.data(), centroids.rows(),
                                       dim, out.data() + p0);
              });
  return out;
}

Result<KMeansResult> KMeans(const Matrix& points, size_t k,
                            const KMeansOptions& options) {
  const size_t n = points.rows();
  const size_t dim = points.cols();
  if (k == 0) return Status::InvalidArgument("KMeans: k must be positive");
  if (n == 0) return Status::InvalidArgument("KMeans: no points");
  if (n < k) {
    return Status::InvalidArgument("KMeans: fewer points (" +
                                   std::to_string(n) + ") than clusters (" +
                                   std::to_string(k) + ")");
  }

  Rng rng(options.seed);
  KMeansResult result;
  result.centroids = SeedPlusPlus(points, k, &rng);
  result.assignments.assign(n, -1);

  // Shard layout of the parallel assignment/accumulation pass. Each shard
  // owns one contiguous point range and accumulates private per-center
  // counts/sums; partials merge in ascending shard order, so the pass is
  // bit-identical at every thread count (shard boundaries depend only on
  // the problem shape).
  const size_t grain = AssignGrain(k, dim);
  const size_t num_shards = (n + grain - 1) / grain;
  std::vector<int> shard_counts(num_shards * k);
  Matrix shard_sums(num_shards * k, dim);
  std::vector<char> shard_changed(num_shards);
  // Nearest-centroid index per point, filled one shard per kernel call.
  std::vector<int> nearest(n);

  for (int iter = 0; iter < options.max_iterations; ++iter) {
    result.iterations = iter + 1;
    // Assignment step: nearest centroid per point plus per-center
    // accumulation (shared with CEC, whose clusters feed label histograms).
    std::fill(shard_counts.begin(), shard_counts.end(), 0);
    shard_sums.Fill(0.0);
    std::fill(shard_changed.begin(), shard_changed.end(), 0);
    ParallelFor(0, n, grain, [&](size_t p0, size_t p1) {
      const size_t shard = p0 / grain;
      int* counts = shard_counts.data() + shard * k;
      bool shard_moved = false;
      simd::NearestCentroids(points.data() + p0 * dim, p1 - p0,
                             result.centroids.data(), k, dim,
                             nearest.data() + p0);
      for (size_t i = p0; i < p1; ++i) {
        const int best_c = nearest[i];
        if (result.assignments[i] != best_c) {
          result.assignments[i] = best_c;
          shard_moved = true;
        }
        ++counts[static_cast<size_t>(best_c)];
        auto sum_row = shard_sums.Row(shard * k + static_cast<size_t>(best_c));
        auto p_row = points.Row(i);
        for (size_t d = 0; d < dim; ++d) sum_row[d] += p_row[d];
      }
      shard_changed[shard] = shard_moved ? 1 : 0;
    });

    bool changed = false;
    std::vector<int> counts(k, 0);
    Matrix sums(k, dim);
    for (size_t shard = 0; shard < num_shards; ++shard) {
      if (shard_changed[shard]) changed = true;
      for (size_t c = 0; c < k; ++c) {
        counts[c] += shard_counts[shard * k + c];
        auto sum_row = sums.Row(c);
        auto part = shard_sums.Row(shard * k + c);
        for (size_t d = 0; d < dim; ++d) sum_row[d] += part[d];
      }
    }

    // Update step with empty-cluster repair.
    double max_move = 0.0;
    for (size_t c = 0; c < k; ++c) {
      if (counts[c] == 0) {
        // Re-seed on the point farthest from its current centroid.
        double worst = -1.0;
        size_t worst_i = 0;
        for (size_t i = 0; i < n; ++i) {
          const int a = result.assignments[i];
          const double d2 = vec::SquaredDistance(
              points.Row(i), result.centroids.Row(static_cast<size_t>(a)));
          if (d2 > worst) {
            worst = d2;
            worst_i = i;
          }
        }
        result.centroids.SetRow(c, points.Row(worst_i));
        changed = true;
        continue;
      }
      const double inv = 1.0 / static_cast<double>(counts[c]);
      std::vector<double> new_center(dim);
      auto sum_row = sums.Row(c);
      for (size_t d = 0; d < dim; ++d) new_center[d] = sum_row[d] * inv;
      const double move =
          vec::EuclideanDistance(new_center, result.centroids.Row(c));
      max_move = move > max_move ? move : max_move;
      result.centroids.SetRow(c, new_center);
    }

    if (!changed || max_move < options.tolerance) break;
  }

  result.inertia = 0.0;
  for (size_t i = 0; i < n; ++i) {
    result.inertia += vec::SquaredDistance(
        points.Row(i),
        result.centroids.Row(static_cast<size_t>(result.assignments[i])));
  }
  return result;
}

}  // namespace freeway
