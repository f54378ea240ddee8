// Summary statistics for the benchmark's reports.
//
// Percentiles are the program's own convention, obs::nearest_rank: rank =
// clamp(ceil(q * N), 1, N), value = sorted[rank - 1]. A percentile is only
// *reportable* when at least kMinTail samples lie strictly beyond its rank;
// with fewer, "p99" is just the maximum of a small sample.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace perfbench {

inline constexpr std::size_t kMinTail = 10;

/// Samples strictly beyond the nearest rank of `q` in `n` samples: n - rank.
[[nodiscard]] std::size_t samples_beyond(std::size_t n, double q);

/// Smallest sample count whose `q` percentile has kMinTail samples beyond.
[[nodiscard]] std::size_t min_samples_for(double q);

struct Percentile {
  double value = 0.0;
  std::size_t samples = 0;
  std::size_t beyond = 0;  ///< samples strictly above the rank
  bool reportable = false;  ///< beyond >= kMinTail
};

/// Nearest-rank percentile of `samples` (any order).
[[nodiscard]] Percentile percentile(std::vector<double> samples, double q);

/// Median by the same convention (p50); 0 when empty.
[[nodiscard]] double median(std::vector<double> samples);

[[nodiscard]] double mean(const std::vector<double>& samples);

/// A ratio that always carries its base. value() is 0 for an empty base.
struct Ratio {
  double numerator = 0.0;
  double base = 0.0;
  [[nodiscard]] double value() const { return base > 0.0 ? numerator / base : 0.0; }
  /// "n/base" rendering for the human-readable ledger.
  [[nodiscard]] std::string describe() const;
};

}  // namespace perfbench
