#include "perfbench/metrics_scrape.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <sstream>

namespace perfbench {

namespace {

std::string Series(const std::string& family, const std::string& labels) {
  return labels.empty() ? family : family + "{" + labels + "}";
}

}  // namespace

Scrape::Scrape(const std::string& prometheus_text) {
  std::istringstream in(prometheus_text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    const size_t space = line.rfind(' ');
    if (space == std::string::npos) continue;
    series_[line.substr(0, space)] = std::strtod(line.c_str() + space + 1,
                                                 nullptr);
  }
}

double Scrape::Value(const std::string& series) const {
  auto it = series_.find(series);
  return it == series_.end() ? 0.0 : it->second;
}

double Scrape::SumFamily(const std::string& family) const {
  double total = 0.0;
  for (auto it = series_.lower_bound(family); it != series_.end(); ++it) {
    if (it->first.compare(0, family.size(), family) != 0) break;
    const std::string rest = it->first.substr(family.size());
    if (rest.empty() || rest[0] == '{') total += it->second;
  }
  return total;
}

double Scrape::HistSum(const std::string& family,
                       const std::string& labels) const {
  return Value(Series(family + "_sum", labels));
}

double Scrape::HistCount(const std::string& family,
                         const std::string& labels) const {
  return Value(Series(family + "_count", labels));
}

double Scrape::HistQuantile(const std::string& family, double q,
                            const std::string& labels) const {
  // Buckets render as family_bucket{<labels>,le="x"} with cumulative counts.
  const std::string prefix =
      family + "_bucket{" + (labels.empty() ? "" : labels + ",") + "le=\"";
  std::vector<std::pair<double, double>> buckets;  // (upper bound, cumulative)
  for (auto it = series_.lower_bound(prefix); it != series_.end(); ++it) {
    if (it->first.compare(0, prefix.size(), prefix) != 0) break;
    const std::string bound = it->first.substr(prefix.size());
    const double le = bound.rfind("+Inf", 0) == 0
                          ? INFINITY
                          : std::strtod(bound.c_str(), nullptr);
    buckets.emplace_back(le, it->second);
  }
  std::sort(buckets.begin(), buckets.end());
  if (buckets.empty() || buckets.back().second <= 0.0) return 0.0;
  const double rank = q * buckets.back().second;
  double lower = 0.0, below = 0.0;
  for (const auto& [le, cumulative] : buckets) {
    if (cumulative >= rank) {
      if (std::isinf(le)) return lower;  // Past the last finite bound.
      const double in_bucket = cumulative - below;
      const double frac = in_bucket > 0.0 ? (rank - below) / in_bucket : 1.0;
      return lower + (le - lower) * frac;
    }
    lower = le;
    below = cumulative;
  }
  return lower;
}

uint64_t JsonUint(const std::string& body, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const size_t at = body.find(needle);
  if (at == std::string::npos) return 0;
  return std::strtoull(body.c_str() + at + needle.size(), nullptr, 10);
}

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double n = static_cast<double>(values.size());
  const size_t rank = static_cast<size_t>(std::max(0.0, std::ceil(q * n) - 1));
  return values[std::min(rank, values.size() - 1)];
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

}  // namespace perfbench
