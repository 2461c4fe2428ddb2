#ifndef FREEWAYML_PERFBENCH_METRICS_SCRAPE_H_
#define FREEWAYML_PERFBENCH_METRICS_SCRAPE_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// One `GET /metrics` exposition parsed into series name → value. The
/// series name keeps its label set verbatim, e.g.
/// `freeway_learner_stage_seconds_sum{stage="detect"}`.
class Scrape {
 public:
  Scrape() = default;
  explicit Scrape(const std::string& prometheus_text);

  /// The series value; 0 when the server never registered it.
  double Value(const std::string& series) const;
  /// Sum of every series of `family` (all label sets), e.g. the per-worker
  /// loop-iteration counters.
  double SumFamily(const std::string& family) const;
  /// Histogram sum and count; `labels` is the label set without braces.
  double HistSum(const std::string& family, const std::string& labels = "") const;
  double HistCount(const std::string& family,
                   const std::string& labels = "") const;
  /// Quantile estimated from cumulative buckets by linear interpolation
  /// inside the bucket (Prometheus histogram_quantile); 0 when empty.
  double HistQuantile(const std::string& family, double q,
                      const std::string& labels = "") const;

 private:
  std::map<std::string, double> series_;
};

/// First `"key": <number>` in a JSON body — the `totals` object of the
/// server's /stats reply renders before the per-shard rows.
uint64_t JsonUint(const std::string& body, const std::string& key);

/// Nearest-rank percentile (q in [0, 1]) of an unsorted sample; 0 if empty.
double Percentile(std::vector<double> values, double q);
double Median(std::vector<double> values);

}  // namespace perfbench

#endif  // FREEWAYML_PERFBENCH_METRICS_SCRAPE_H_
