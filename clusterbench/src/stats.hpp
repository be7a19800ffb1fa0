// Order statistics for the benchmark's reports.
#pragma once

#include <string>
#include <vector>

#include "obs/metrics.hpp"

namespace clusterbench {

/// Linear-interpolated quantile, q in [0, 1]; 0 for an empty sample.
double quantile(std::vector<double> samples, double q);
double median(const std::vector<double>& samples);

/// The highest of the standard tail percentiles (99.9, 99, 98, 95, 90,
/// 80, 75, 50) that leaves at least ten of `n` samples beyond it.
double tail_percentile(std::size_t n);

/// The sample named `name` (first label set), or nullptr.
const phodis::obs::MetricSample* find_metric(
    const phodis::obs::Snapshot& snapshot, const std::string& name);

/// Quantile of le-convention bucket counts, interpolated linearly inside
/// the bucket that holds it (the +inf bucket reads as its lower edge).
/// 0 when there are no observations.
double bucket_quantile(const std::vector<double>& bounds,
                       const std::vector<std::uint64_t>& counts, double q);

/// Sum of every sample of counter `name`, across all label sets.
std::uint64_t counter_total(const phodis::obs::Snapshot& snapshot,
                            const std::string& name);

}  // namespace clusterbench
