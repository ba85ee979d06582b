#include "stats.hpp"

#include <algorithm>

namespace perfbench {

double median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  if (values.size() % 2 == 1) return values[mid];
  return (values[mid - 1] + values[mid]) / 2;
}

std::optional<Tail> tail_percentile(std::vector<double> values, std::size_t min_beyond) {
  const std::size_t n = values.size();
  if (n <= min_beyond) return std::nullopt;
  std::sort(values.begin(), values.end());
  // Walk down from P = 99 to the first percentile whose rank leaves
  // min_beyond samples above it; P = 1 always qualifies once n > min_beyond
  // because its rank is 1 for n <= 100 and at most n / 100 + 1 beyond that.
  for (int p = 99; p >= 1; --p) {
    const std::size_t rank = (static_cast<std::size_t>(p) * n + 99) / 100;
    const std::size_t r = std::max<std::size_t>(rank, 1);
    if (n - r >= min_beyond) {
      return Tail{values[r - 1], p, r, n - r, n};
    }
  }
  return std::nullopt;
}

std::vector<double> sliding_median(const std::vector<double>& values, std::size_t radius) {
  std::vector<double> out(values.size());
  for (std::size_t i = 0; i < values.size(); ++i) {
    const std::size_t lo = i >= radius ? i - radius : 0;
    const std::size_t hi = std::min(values.size(), i + radius + 1);
    out[i] = median(std::vector<double>(values.begin() + static_cast<std::ptrdiff_t>(lo),
                                        values.begin() + static_cast<std::ptrdiff_t>(hi)));
  }
  return out;
}

}  // namespace perfbench
