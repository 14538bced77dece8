// Order statistics for the benchmark's reports: medians, nearest-rank
// quantiles and the tail-percentile rule (report the highest percentile that
// still has at least ten samples beyond it).
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

namespace perfbench {

/// 1-based nearest rank of the q-quantile in a sample of n (at least 1).
/// The epsilon keeps q * n that is integral in exact arithmetic (0.999 *
/// 10000) from rounding up a rank.
inline std::size_t nearest_rank(std::size_t n, double q) {
  const double rank = std::ceil(q * static_cast<double>(n) - 1e-9);
  return rank < 1.0 ? 1 : static_cast<std::size_t>(rank);
}

/// Nearest-rank q-quantile (0 <= q <= 1) of `v`; 0 for an empty sample.
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  return v[std::min(nearest_rank(v.size(), q), v.size()) - 1];
}

/// Middle value (mean of the two middle values for even sizes).
inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t h = v.size() / 2;
  return v.size() % 2 == 1 ? v[h] : 0.5 * (v[h - 1] + v[h]);
}

/// Number of samples strictly beyond the q-quantile's nearest rank.
inline std::size_t samples_beyond(std::size_t n, double q) {
  const std::size_t r = nearest_rank(n, q);
  return r >= n ? 0 : n - r;
}

/// The highest of the reported percentiles (50, 90, 95, 99, 99.9) that has
/// at least ten samples beyond it in a sample of `n`; 0 when even the median
/// does not qualify.
inline double tail_percentile(std::size_t n) {
  static const double kLadder[] = {99.9, 99.0, 95.0, 90.0, 50.0};
  for (const double p : kLadder) {
    if (samples_beyond(n, p / 100.0) >= 10) return p;
  }
  return 0.0;
}

}  // namespace perfbench
