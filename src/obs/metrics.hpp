// Lock-cheap metrics primitives: counters and fixed-bucket histograms,
// grouped in a registry.
//
// The paper's claims are *distributional* as much as aggregate — O(1) bus
// cycles only hold if every broadcast's segment shape stays bounded, and
// the GCN/mesh comparisons hinge on how long the driven segments actually
// are — so the simulator's observability layer keeps whole histograms
// (bus max_segment, switch open counts, plane-sweep widths, retry counts)
// instead of the flat totals StepCounter reports.
//
// Concurrency model: a registry is single-writer by design, exactly like
// ppc::Context's register arena — the controller issues instructions
// sequentially, so the hot-path observe()/add() calls are plain integer
// arithmetic with no locks or atomics. Cross-thread aggregation happens
// by merging per-worker registries in a deterministic order (the same
// idiom as StepCounter::merge in the threaded all-pairs driver).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace ppa::obs {

/// Monotonically increasing count.
class Counter {
 public:
  void add(std::uint64_t delta = 1) noexcept { value_ += delta; }
  [[nodiscard]] std::uint64_t value() const noexcept { return value_; }
  void merge(const Counter& other) noexcept { value_ += other.value_; }

 private:
  std::uint64_t value_ = 0;
};

/// Fixed-bucket histogram over non-negative integer samples. Bucket i
/// counts samples <= bounds[i] (cumulative-style assignment, exclusive of
/// earlier buckets); one implicit overflow bucket counts the rest. Bounds
/// are fixed at construction so observe() is a linear scan over a handful
/// of integers — no allocation, no locks.
class Histogram {
 public:
  Histogram() = default;
  explicit Histogram(std::vector<std::uint64_t> upper_bounds);

  /// Records `weight` samples of `value`.
  void observe(std::uint64_t value, std::uint64_t weight = 1) noexcept;

  [[nodiscard]] const std::vector<std::uint64_t>& bounds() const noexcept { return bounds_; }
  /// Per-bucket sample counts; size() == bounds().size() + 1 (overflow last).
  [[nodiscard]] const std::vector<std::uint64_t>& counts() const noexcept { return counts_; }
  [[nodiscard]] std::uint64_t count() const noexcept { return count_; }
  [[nodiscard]] std::uint64_t sum() const noexcept { return sum_; }
  /// Smallest / largest observed value; 0 when empty.
  [[nodiscard]] std::uint64_t min() const noexcept { return count_ == 0 ? 0 : min_; }
  [[nodiscard]] std::uint64_t max() const noexcept { return max_; }
  [[nodiscard]] double mean() const noexcept {
    return count_ == 0 ? 0.0 : static_cast<double>(sum_) / static_cast<double>(count_);
  }

  /// Component-wise accumulation; the other histogram must share bounds.
  void merge(const Histogram& other);

 private:
  std::vector<std::uint64_t> bounds_;
  std::vector<std::uint64_t> counts_;
  std::uint64_t count_ = 0;
  std::uint64_t sum_ = 0;
  std::uint64_t min_ = UINT64_MAX;
  std::uint64_t max_ = 0;
};

/// Exponential bucket bounds 1, 2, 4, ... up to `top` (inclusive) — the
/// natural shape for segment lengths and retry counts.
[[nodiscard]] std::vector<std::uint64_t> pow2_bounds(std::uint64_t top);

/// Named metric instruments. Lookup is by name and returns a stable
/// reference (std::map nodes never move), so hot paths resolve their
/// instruments once and then touch plain integers.
class MetricsRegistry {
 public:
  [[nodiscard]] Counter& counter(const std::string& name) { return counters_[name]; }
  /// Creates the histogram with `bounds` on first use; later calls (and
  /// merges) ignore `bounds` and return the existing instrument.
  [[nodiscard]] Histogram& histogram(const std::string& name,
                                     const std::vector<std::uint64_t>& bounds);

  [[nodiscard]] const std::map<std::string, Counter>& counters() const noexcept {
    return counters_;
  }
  [[nodiscard]] const std::map<std::string, Histogram>& histograms() const noexcept {
    return histograms_;
  }

  /// Deterministic accumulation of another registry (instruments are
  /// matched by name; missing ones are created). Histograms with differing
  /// bounds throw util::ContractError.
  void merge(const MetricsRegistry& other);

 private:
  std::map<std::string, Counter> counters_;
  std::map<std::string, Histogram> histograms_;
};

}  // namespace ppa::obs
