#include "stats.hpp"

#include <algorithm>
#include <cmath>

namespace clusterbench {

double quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double pos = q * static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return samples[lo] + frac * (samples[hi] - samples[lo]);
}

double median(const std::vector<double>& samples) {
  return quantile(samples, 0.5);
}

double tail_percentile(std::size_t n) {
  // In tenths of a percent, so the count beyond is exact integer math.
  for (const std::size_t p : {999, 990, 980, 950, 900, 800, 750}) {
    if (n * (1000 - p) >= 10 * 1000) return static_cast<double>(p) / 10.0;
  }
  return 50.0;
}

const phodis::obs::MetricSample* find_metric(
    const phodis::obs::Snapshot& snapshot, const std::string& name) {
  for (const phodis::obs::MetricSample& sample : snapshot.samples) {
    if (sample.name == name) return &sample;
  }
  return nullptr;
}

double bucket_quantile(const std::vector<double>& bounds,
                       const std::vector<std::uint64_t>& counts, double q) {
  std::uint64_t total = 0;
  for (const std::uint64_t count : counts) total += count;
  if (total == 0) return 0.0;
  const double target = q * static_cast<double>(total);
  double seen = 0.0;
  for (std::size_t b = 0; b < counts.size(); ++b) {
    const auto count = static_cast<double>(counts[b]);
    if (count > 0.0 && seen + count >= target) {
      const double lo = b == 0 ? 0.0 : bounds[b - 1];
      if (b >= bounds.size()) return lo;
      return lo + (bounds[b] - lo) * (target - seen) / count;
    }
    seen += count;
  }
  return 0.0;
}

std::uint64_t counter_total(const phodis::obs::Snapshot& snapshot,
                            const std::string& name) {
  std::uint64_t total = 0;
  for (const phodis::obs::MetricSample& sample : snapshot.samples) {
    if (sample.name == name &&
        sample.kind == phodis::obs::MetricKind::kCounter) {
      total += sample.counter;
    }
  }
  return total;
}

}  // namespace clusterbench
