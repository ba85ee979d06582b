// SIMD step accounting.
//
// Every complexity claim in the paper is stated in SIMD instruction steps,
// so the simulator's primary output is a step counter, not wall time. Each
// machine primitive charges one step per *issued instruction* (the array
// executes it on all PEs simultaneously — that is the whole point of the
// model).
//
// Bus operations additionally record the longest segment they drove, so a
// *settle-delay ablation* (experiment E7b) can re-cost the same run under
// three physical models without re-running it:
//
//   Unit   — a bus cycle costs 1 regardless of segment length (the paper's
//            model; ref [2] argues the PPA bus settles within a clock).
//   Log    — cost 1 + ceil(log2(len)): a repeatered / tree-buffered bus.
//   Linear — cost len: a naive RC chain of pass transistors.
#pragma once

#include <array>
#include <cstdint>
#include <string>

namespace ppa::sim {

/// Instruction categories, each counted separately.
enum class StepCategory : int {
  Alu = 0,       // elementwise compute / masked register writeback
  Shift = 1,     // nearest-neighbour move
  BusBroadcast = 2,
  BusOr = 3,     // wired-OR bus cycle
  GlobalOr = 4,  // controller's global response line (loop tests)
  PanelIo = 5,   // controller panel load/unload on a virtualized (tiled)
                 // array — one step per p-wide row of words moved over the
                 // array's I/O ports (docs/tiling.md)
  Masking = 6,   // fault-masking overhead (docs/robustness.md): the 2 extra
                 // TMR voting trials of a masked bus cycle, or the ECC
                 // parity-plane beat riding a plane bus cycle. Kept separate
                 // so a masked run minus its Masking steps is bit-identical
                 // to the unmasked run on a fault-free machine.
  kCount = 7,
};

[[nodiscard]] const char* name_of(StepCategory c) noexcept;

/// Settle-delay model for re-costing bus cycles.
enum class BusDelayModel : int { Unit = 0, Log = 1, Linear = 2 };

/// Accumulated step counts. Copyable; subtract snapshots to measure phases.
class StepCounter {
 public:
  /// Charges `count` instructions of a non-bus category.
  void charge(StepCategory category, std::uint64_t count = 1) noexcept;

  /// Charges `cycles` bus cycles whose longest driven segment spans
  /// `max_segment` switch hops each (used by the Log / Linear re-costing).
  void charge_bus(StepCategory category, std::size_t max_segment,
                  std::uint64_t cycles = 1) noexcept;

  [[nodiscard]] std::uint64_t count(StepCategory category) const noexcept;

  /// Total SIMD steps under the paper's unit-cost model.
  [[nodiscard]] std::uint64_t total() const noexcept;

  /// Total steps when bus cycles are re-costed under `model` (non-bus
  /// categories always cost 1 per instruction).
  [[nodiscard]] std::uint64_t total_under(BusDelayModel model) const noexcept;

  /// Steps elapsed since `baseline` (component-wise difference).
  [[nodiscard]] StepCounter since(const StepCounter& baseline) const noexcept;

  /// Component-wise accumulation of another counter, e.g. folding the
  /// per-destination counters of a threaded all-pairs run back into one
  /// total. Addition is commutative, so the merged total is independent of
  /// how runs were distributed over host threads.
  void merge(const StepCounter& other) noexcept;

  void reset() noexcept;

  /// One-line human-readable summary.
  [[nodiscard]] std::string summary() const;

  friend bool operator==(const StepCounter&, const StepCounter&) = default;

 private:
  static constexpr std::size_t kCategories = static_cast<std::size_t>(StepCategory::kCount);
  std::array<std::uint64_t, kCategories> counts_{};
  // Extra cost (beyond the unit charge) accumulated for the two non-unit
  // delay models, per bus category.
  std::array<std::uint64_t, kCategories> log_extra_{};
  std::array<std::uint64_t, kCategories> linear_extra_{};
};

}  // namespace ppa::sim
