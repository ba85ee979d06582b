#include "obs/metrics.hpp"

#include "util/check.hpp"

namespace ppa::obs {

Histogram::Histogram(std::vector<std::uint64_t> upper_bounds)
    : bounds_(std::move(upper_bounds)), counts_(bounds_.size() + 1, 0) {
  for (std::size_t i = 1; i < bounds_.size(); ++i) {
    PPA_REQUIRE(bounds_[i - 1] < bounds_[i], "histogram bounds must be strictly increasing");
  }
}

void Histogram::observe(std::uint64_t value, std::uint64_t weight) noexcept {
  if (weight == 0) return;
  std::size_t bucket = bounds_.size();  // overflow unless a bound catches it
  for (std::size_t i = 0; i < bounds_.size(); ++i) {
    if (value <= bounds_[i]) {
      bucket = i;
      break;
    }
  }
  counts_[bucket] += weight;
  count_ += weight;
  sum_ += value * weight;
  if (value < min_) min_ = value;
  if (value > max_) max_ = value;
}

void Histogram::merge(const Histogram& other) {
  if (other.count_ == 0) return;
  if (count_ == 0 && bounds_.empty()) {
    *this = other;
    return;
  }
  PPA_REQUIRE(bounds_ == other.bounds_, "cannot merge histograms with different bounds");
  for (std::size_t i = 0; i < counts_.size(); ++i) counts_[i] += other.counts_[i];
  count_ += other.count_;
  sum_ += other.sum_;
  if (other.min_ < min_) min_ = other.min_;
  if (other.max_ > max_) max_ = other.max_;
}

std::vector<std::uint64_t> pow2_bounds(std::uint64_t top) {
  std::vector<std::uint64_t> bounds;
  for (std::uint64_t b = 1; b < top; b *= 2) bounds.push_back(b);
  bounds.push_back(top);
  return bounds;
}

Histogram& MetricsRegistry::histogram(const std::string& name,
                                      const std::vector<std::uint64_t>& bounds) {
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_.emplace(name, Histogram(bounds)).first;
  }
  return it->second;
}

void MetricsRegistry::merge(const MetricsRegistry& other) {
  for (const auto& [name, counter] : other.counters_) counters_[name].merge(counter);
  for (const auto& [name, histogram] : other.histograms_) {
    histograms_[name].merge(histogram);
  }
}

}  // namespace ppa::obs
