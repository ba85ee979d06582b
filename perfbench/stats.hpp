// Order statistics for the benchmark's latency metrics.
#pragma once

#include <cstddef>
#include <optional>
#include <vector>

namespace perfbench {

/// Median of `values` (mean of the two middle values for an even count);
/// 0 for an empty input.
[[nodiscard]] double median(std::vector<double> values);

/// A latency tail: the value at the highest whole percentile that still
/// has at least `min_beyond` samples strictly beyond its rank.
struct Tail {
  double value = 0;
  int percentile = 0;       // whole percent, 1..99
  std::size_t rank = 0;     // 1-based nearest rank of `value` in sorted order
  std::size_t beyond = 0;   // samples ranked above `rank` (>= min_beyond)
  std::size_t samples = 0;  // total sample count
};

/// The highest whole percentile P whose nearest-rank sample (rank
/// ceil(P * N / 100)) leaves at least `min_beyond` samples above it.
/// nullopt when fewer than min_beyond + 1 samples exist.
[[nodiscard]] std::optional<Tail> tail_percentile(std::vector<double> values,
                                                  std::size_t min_beyond = 10);

/// Median of each centred window of `radius` samples either side (clipped
/// at the ends): a jitter-robust local level that still follows drift.
[[nodiscard]] std::vector<double> sliding_median(const std::vector<double>& values,
                                                 std::size_t radius);

}  // namespace perfbench
