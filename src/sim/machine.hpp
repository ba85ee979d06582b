// The Polymorphic Processor Array machine.
//
// A Machine is an n x n SIMD array with:
//   * an h-bit word field (util::HField) shared by every PE,
//   * the two segmented bus systems (sim/bus.hpp),
//   * nearest-neighbour shift links,
//   * a controller "global OR" response line for loop tests,
//   * a StepCounter charging one step per issued SIMD instruction.
//
// The Machine works on raw per-PE vectors; the masked-SIMD programming
// model (parallel variables, where/elsewhere) lives one layer up in
// ppa::ppc. This split mirrors the real system: the array executes whatever
// the controller issues, and activity masking is a property of the
// *program*, applied at register write-back.
//
// Both backends run every sweep and bus cycle on the controller thread,
// one instruction at a time, as the paper's array does. Host parallelism
// lives above the machine: whole destinations (mcp::AllPairsOptions::
// workers) and batched destination groups (mcp::Options::batch_width).
#pragma once

#include <optional>
#include <span>
#include <vector>

#include "sim/bit_planes.hpp"
#include "sim/bus.hpp"
#include "sim/bus_planes.hpp"
#include "sim/fault_model.hpp"
#include "sim/plane_kernels.hpp"
#include "sim/step_counter.hpp"
#include "sim/trace.hpp"
#include "util/saturating.hpp"

namespace ppa::sim {

/// What a program-level read of an undriven bus input does (only reachable
/// with Linear topology or an all-Short line).
enum class UndrivenPolicy {
  Error,     // throw ContractError — the default; the MCP algorithm never
             // legitimately consumes a floating bus
  ReadZero,  // the PE reads 0 (a pulled-down line); useful in tests
};

/// In-place bus-cycle fault masking (docs/robustness.md). Orthogonal to the
/// verify-then-retry recovery loop: masking corrects corruption DURING the
/// run instead of detecting it afterwards.
enum class BusMasking {
  None,  // bus cycles execute once, unprotected
  Tmr,   // triple modular redundancy: every charged bus cycle executes
         // three times and the received values (and driven flags) are
         // majority-voted per wire. Trial 1 is charged to the cycle's
         // normal category; trials 2 and 3 are charged to
         // StepCategory::Masking, so a fault-free masked run minus its
         // Masking steps is bit-identical to the unmasked run. Both
         // backends implement the identical vote, so the differential
         // oracle extends to masked runs. Corrects transient faults
         // (period >= 3); a persistent defect corrupts all three trials
         // identically and is NOT masked.
  Ecc,   // BitPlane backend only: r = ceil(log2(h + 1)) parity planes ride
         // every plane broadcast (r = 1 for a wired-OR cycle) on spare bus
         // wires outside the h-bit fault surface, through the same switch
         // fabric (switch and dead-PE faults hit data and parity alike).
         // A syndrome decode after the cycle corrects any single stuck
         // data wire — transient or persistent — without repetition. The
         // parity beat is charged as ONE StepCategory::Masking bus cycle.
};

struct MachineConfig {
  std::size_t n = 8;        // array side; the graph's vertex count
  int bits = 16;            // word width h
  BusTopology topology = BusTopology::Ring;
  UndrivenPolicy undriven = UndrivenPolicy::Error;
  ExecBackend backend = ExecBackend::Words;
  /// Checked execution: bus contention (a program driver whose switch a
  /// fault forced closed) and undriven program reads are recorded as
  /// structured FaultEvents — and execution continues reading 0 — instead
  /// of the UndrivenPolicy::Error throw. Lets a solver finish a corrupted
  /// run and decide on the diagnostics afterwards.
  bool checked = false;
  /// Fault masking applied to every charged bus cycle (see BusMasking).
  /// Ecc requires backend == BitPlane (enforced by the constructor).
  BusMasking masking = BusMasking::None;
};

/// Cumulative fault-masking counters (ppa.metrics.v1: mask.votes /
/// mask.corrections / mask.uncorrectable).
struct MaskingStats {
  std::uint64_t votes = 0;          // masked bus cycles executed
  std::uint64_t corrections = 0;    // cycles where masking changed a value
  std::uint64_t uncorrectable = 0;  // ECC cycles with residual syndrome

  /// Counters spent since `baseline` (snapshot-delta, like StepCounter).
  [[nodiscard]] MaskingStats since(const MaskingStats& baseline) const noexcept {
    return {votes - baseline.votes, corrections - baseline.corrections,
            uncorrectable - baseline.uncorrectable};
  }
  void merge(const MaskingStats& other) noexcept {
    votes += other.votes;
    corrections += other.corrections;
    uncorrectable += other.uncorrectable;
  }
  friend bool operator==(const MaskingStats&, const MaskingStats&) = default;
};

class Machine {
 public:
  explicit Machine(const MachineConfig& config);

  [[nodiscard]] const MachineConfig& config() const noexcept { return config_; }
  [[nodiscard]] std::size_t n() const noexcept { return config_.n; }
  [[nodiscard]] std::size_t pe_count() const noexcept { return config_.n * config_.n; }
  [[nodiscard]] const util::HField& field() const noexcept { return field_; }

  [[nodiscard]] StepCounter& steps() noexcept { return steps_; }
  [[nodiscard]] const StepCounter& steps() const noexcept { return steps_; }

  /// Attaches / detaches an instruction observer (nullptr = off). The
  /// sink is not owned and must outlive its attachment.
  void set_trace(TraceSink* sink) noexcept { trace_ = sink; }
  [[nodiscard]] TraceSink* trace() const noexcept { return trace_; }

  /// Compiles and installs a hardware fault model (sim/fault_model.hpp)
  /// in the masks of config().backend; every subsequent bus cycle applies
  /// it, identically under both backends. While faults are installed, a
  /// cycle of the other backend's representation throws
  /// util::ContractError, as do out-of-range faults. An empty model clears
  /// previously injected faults.
  void inject_faults(const FaultModel& model);
  [[nodiscard]] bool has_faults() const noexcept { return faults_.any; }

  /// Cumulative fault-masking counters (zero when config.masking == None).
  [[nodiscard]] const MaskingStats& masking_stats() const noexcept { return mask_stats_; }

  /// Physical bus cycles executed so far. Every charged bus cycle —
  /// including each individual TMR trial — advances it; shadow cycles and
  /// the ECC parity beat (which shares its data cycle's slot) do not.
  /// Transient StuckBit faults key on this index, identically under both
  /// backends.
  [[nodiscard]] std::uint64_t bus_cycles() const noexcept { return bus_cycles_; }

  /// Structured checked-execution diagnostics. The log keeps the first
  /// kMaxFaultLog events; fault_count() counts every report.
  static constexpr std::size_t kMaxFaultLog = 1024;
  [[nodiscard]] const std::vector<FaultEvent>& fault_events() const noexcept {
    return fault_log_;
  }
  [[nodiscard]] std::size_t fault_count() const noexcept { return fault_count_; }
  void clear_fault_events() noexcept {
    fault_log_.clear();
    fault_count_ = 0;
  }

  /// Records a diagnostic in the fault log and forwards it to the trace
  /// sink. Called by the bus wrappers below and by the ppc layer's
  /// undriven-store checks in checked mode.
  void report_fault(const FaultEvent& event);

  /// Charges `instructions` elementwise SIMD instructions. Called by the
  /// ppc layer once per parallel operation (NOT per PE). A bulk charge
  /// emits ONE trace event carrying the instruction count.
  void charge_alu(std::uint64_t instructions = 1) noexcept {
    steps_.charge(StepCategory::Alu, instructions);
    if (trace_ != nullptr && instructions > 0) {
      trace_->on_event(TraceEvent{StepCategory::Alu, Direction::North, 0, 0, instructions});
    }
  }

  /// Controller panel I/O for the virtualized (tiled) array: charges
  /// `rows` PanelIo steps — the array moves one p-wide row of words per
  /// I/O cycle over its edge ports — and emits one trace event carrying
  /// the row count. Loading a p x p register panel is p cycles, a single
  /// row fragment 1, and a column readback 1 (docs/tiling.md). The actual
  /// data movement stays host-side (Pint construction / at()); this call
  /// is what makes a panel reload a *counted, traced* operation instead
  /// of free controller I/O.
  void charge_panel_io(std::uint64_t rows = 1) noexcept {
    steps_.charge(StepCategory::PanelIo, rows);
    if (trace_ != nullptr && rows > 0) {
      trace_->on_event(TraceEvent{StepCategory::PanelIo, Direction::North, 0, 0, rows});
    }
  }

  /// Nearest-neighbour move: every PE receives its upstream neighbour's
  /// src value ("sends data to its nearest neighbor along dir"); array-edge
  /// PEs receive `fill`. dst must not alias src. One Shift step.
  void shift(std::span<const Word> src, Direction dir, Word fill, std::span<Word> dst);

  /// One broadcast bus cycle (see bus.hpp). One BusBroadcast step.
  [[nodiscard]] BusResult broadcast(std::span<const Word> src, Direction dir,
                                    std::span<const Flag> open);

  /// One wired-OR bus cycle. One BusOr step.
  [[nodiscard]] BusResult wired_or(std::span<const Flag> src, Direction dir,
                                   std::span<const Flag> open);

  // Allocation-free bus cycles: same charging and tracing as the BusResult
  // variants, but the caller provides the n*n output buffers (the ppc
  // layer's register arena). Each returns the cycle's max_segment.
  std::size_t broadcast_into(std::span<const Word> src, Direction dir,
                             std::span<const Flag> open, std::span<Word> values,
                             std::span<Flag> driven);
  std::size_t broadcast_into(std::span<const Flag> src, Direction dir,
                             std::span<const Flag> open, std::span<Flag> values,
                             std::span<Flag> driven);
  std::size_t wired_or_into(std::span<const Flag> src, Direction dir,
                            std::span<const Flag> open, std::span<Flag> values);

  /// Fault-transformed shadow cycle for host bookkeeping that rides a data
  /// cycle (the ppc layer's taint flags): applies the effective switch
  /// state and dead-PE silencing exactly like a data broadcast, but
  /// charges no step, emits no trace event, and reports no contention —
  /// the data cycle it rides already did all three. Stuck line bits are
  /// NOT applied: driven/taint flags are host bookkeeping, not wires
  /// (sim/fault_model.hpp).
  std::size_t shadow_broadcast_into(std::span<const Flag> src, Direction dir,
                                    std::span<const Flag> open, std::span<Flag> values,
                                    std::span<Flag> driven);

  /// Controller response line: OR over all PEs' flags. One GlobalOr step.
  [[nodiscard]] bool global_or(std::span<const Flag> flags);

  // -------------------------------------------------------------------------
  // Bit-plane twins of the primitives above, used by the BitPlane backend.
  // Same charging and tracing (a plane-packed cycle is still ONE bus cycle;
  // count_open and max_segment match the word kernels bit for bit), so
  // StepCounter equality between backends is structural, not incidental.
  // -------------------------------------------------------------------------

  [[nodiscard]] const PlaneGeometry& plane_geometry() const noexcept { return geometry_; }

  /// One broadcast cycle over `planes` contiguous bit planes. Charges one
  /// BusBroadcast step.
  std::size_t broadcast_planes_into(const PlaneWord* src, int planes, Direction dir,
                                    const PlaneWord* open, PlaneWord* out,
                                    PlaneWord* driven);

  /// One wired-OR cycle on a single plane. Charges one BusOr step.
  std::size_t wired_or_plane_into(const PlaneWord* src, Direction dir,
                                  const PlaneWord* open, PlaneWord* out);

  /// What one bus cycle costs and shows a trace sink, from its switches:
  /// the charge a caller makes for a cycle it resolves itself (plan_cycle),
  /// and the one every resolving plane cycle makes after resolving.
  struct CyclePlan {
    /// The cycle's trace event: category, direction, max_segment and
    /// planes always; the Open count and the driven lanes only under a
    /// trace sink (a row wired-OR's Open count is memoized with its
    /// switches), 0 without one.
    TraceEvent event;
    /// A planned column broadcast's driven plane and driver rows, fed to
    /// column_driver_row; valid until the next bus cycle.
    ColumnDrivers column;
    /// Set by the resolving cycles: their charges are not charge-only.
    bool resolved = false;
  };

  /// The plan of a bus cycle of `category` (BusOr or BusBroadcast) in
  /// `dir` on the switches `open`, carrying `planes` planes, when its
  /// caller may resolve the cycle itself and charge it with
  /// charge_cycles; nothing when the caller must resolve it through the
  /// cycle calls above. It refuses on a machine with faults or masking, on
  /// a column wired-OR, on a row wired-OR whose rows are not one segment
  /// each (row_or_single_segments), and on a column broadcast with a line
  /// of two drivers (column_drivers). So every lane of a planned wired-OR
  /// reads the OR of its whole row. A column broadcast's switches meet the
  /// plan cache exactly once, planned or not; a row wired-OR's verdict is
  /// kept for the last open plane judged, keyed on its contents.
  [[nodiscard]] std::optional<CyclePlan> plan_cycle(StepCategory category, Direction dir,
                                                    const PlaneWord* open, int planes);

  /// Charges and traces `cycles` cycles of `plan`, each after
  /// `alu_before` single ALU steps and followed by `alu_after`: it
  /// advances bus_cycles(), charges the steps in two bulk charges, and
  /// under a trace sink emits the listing's events in its order.
  void charge_cycles(const CyclePlan& plan, std::uint64_t cycles = 1, int alu_before = 0,
                     int alu_after = 0);

  /// Plane twin of shadow_broadcast_into (one flag plane): same fault
  /// transform, no charge, no trace, no contention report.
  std::size_t shadow_broadcast_planes_into(const PlaneWord* src, Direction dir,
                                           const PlaneWord* open, PlaneWord* out,
                                           PlaneWord* driven);

  /// Plane-packed nearest-neighbour move; edge lanes of plane j read bit j
  /// of `fill_bits`. Charges one Shift step.
  void shift_planes(const PlaneWord* src, int planes, Direction dir,
                    std::uint64_t fill_bits, PlaneWord* dst);

  /// Controller response line over a flag plane. Charges one GlobalOr step.
  [[nodiscard]] bool global_or_plane(const PlaneWord* plane);

  /// Cumulative hit/miss counters of this machine's column
  /// broadcast-decomposition plan cache (sim::BroadcastPlanCache —
  /// bit-plane backend only; the word backend never consults it). Solvers report the per-run delta as
  /// bus.plan_cache.hits / bus.plan_cache.misses in ppa.metrics.v1.
  struct PlanCacheStats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
  };
  [[nodiscard]] PlanCacheStats plan_cache_stats() const noexcept {
    return {bus_scratch_.broadcast_plans.hits, bus_scratch_.broadcast_plans.misses};
  }

  /// Rows with two or more Open switches in this machine's plane row
  /// broadcasts: each puts its cycle on the segmented fill ladder, and a
  /// cycle without one takes the row fill. Cumulative, bit-plane backend
  /// only.
  [[nodiscard]] std::uint64_t row_ladder_rows() const noexcept {
    return bus_scratch_.ladder_rows;
  }

  /// Bus cycles charged from a plan_cycle plan, not resolved by the
  /// machine. Cumulative, bit-plane backend only.
  [[nodiscard]] std::uint64_t charge_only_cycles() const noexcept {
    return charge_only_cycles_;
  }

  /// Cumulative SIMD kernel-dispatch / plane-word throughput counters for
  /// the ppc-layer plane ALU bound to this machine (ppc::Context wires its
  /// PlaneAlu here). Billed once per sweep on the controller thread;
  /// solvers report the per-run delta as simd.sweep.* counters.
  [[nodiscard]] const plane_kernels::SweepStats& sweep_stats() const noexcept {
    return sweep_stats_;
  }
  [[nodiscard]] plane_kernels::SweepStats* mutable_sweep_stats() noexcept {
    return &sweep_stats_;
  }

 private:
  // The fault layer (machine.cpp; docs/robustness.md, "Semantics,
  // precisely"), once per representation over the backend's own masks.
  // The pre-kernel step rewrites a cycle's inputs in place: `open` to the
  // effective switches, `src` to the source with dead drivers silenced
  // (both untouched without the fault class). The post-kernel step then
  // applies the cycle kind's FaultSteps to the received values, and the
  // dead reads always. A faulty machine resolves only its own backend's
  // cycles (a ContractError otherwise).
  struct FaultSteps {
    bool contention;   // report program drivers a stuck-closed box shorts
                       // (checked mode)
    bool liveness;     // a segment whose only driver is dead floats undriven
    bool stuck_wires;  // force the stuck bits of the cycle's faulty lines
  };
  // Which post-kernel steps each resolving cycle kind applies:
  //   a charged broadcast all three;
  //   a TMR re-execution no contention (its trial 1 already reported it);
  //   a wired-OR no liveness (an open-collector read never floats);
  //   a shadow cycle no contention (the data cycle it rides reports it)
  //     and no stuck wires (taint flags are host bookkeeping, not wires);
  //   an ECC parity beat none (spare wires; its driven flags are unread).
  static constexpr FaultSteps kBroadcastSteps{true, true, true};
  static constexpr FaultSteps kTmrTrialSteps{false, true, true};
  static constexpr FaultSteps kWiredOrSteps{false, false, true};
  static constexpr FaultSteps kShadowSteps{false, true, false};
  static constexpr FaultSteps kParityBeatSteps{false, false, false};

  template <typename T>
  void fault_pre(Direction dir, std::span<const Flag>& open, std::span<const T>& src);
  template <typename T>
  void fault_post(FaultSteps steps, StepCategory category, Direction dir,
                  std::span<const Flag> program_open, std::span<const Flag> open,
                  std::span<T> values, std::span<Flag> driven, int value_bits);
  void fault_pre(Direction dir, const PlaneWord*& open, const PlaneWord*& src, int planes);
  void fault_post(FaultSteps steps, StepCategory category, Direction dir,
                  const PlaneWord* program_open, const PlaneWord* open, PlaneWord* out,
                  int planes, PlaneWord* driven);

  // One physical bus cycle, clean or fault-transformed, charged and traced
  // under `category` (contention is only reported for the primary category
  // of a masked cycle, never for the Masking re-executions). Each call
  // advances bus_cycles_.
  template <typename T>
  std::size_t broadcast_cycle(std::span<const T> src, Direction dir,
                              std::span<const Flag> open, std::span<T> values,
                              std::span<Flag> driven, int value_bits,
                              StepCategory category);
  std::size_t wired_or_cycle(std::span<const Flag> src, Direction dir,
                             std::span<const Flag> open, std::span<Flag> values,
                             StepCategory category);
  std::size_t broadcast_planes_cycle(const PlaneWord* src, int planes, Direction dir,
                                     const PlaneWord* open, PlaneWord* out,
                                     PlaneWord* driven, StepCategory category);
  std::size_t wired_or_plane_cycle(const PlaneWord* src, Direction dir,
                                   const PlaneWord* open, PlaneWord* out,
                                   StepCategory category);

  // The 2-of-3 trial-and-vote: `cycle(values, driven, category)` runs one
  // trial. Under BusMasking::Tmr trial 1 writes the caller's buffers
  // (normal category), trials 2-3 machine scratch (Masking), then
  // majority_vote votes values and driven flags per wire. Otherwise the
  // one trial is the cycle.
  template <typename V, typename D, typename Cycle>
  std::size_t tmr_cycle(StepCategory category, std::span<V> values, std::span<D> driven,
                        Cycle cycle);

  // What plan_cycle reads off a row wired-OR's switches, for the last open
  // plane it saw: the sweep engine's row end is the same plane on every
  // call of a pass.
  struct RowOrSwitches {
    std::vector<PlaneWord> open;  // the key, compared by contents
    Direction dir = Direction::East;
    bool single_segments = false;
    std::size_t max_segment = 0;  // the BusOr cycle's
    std::size_t open_count = 0;
  };
  const RowOrSwitches& row_or_switches(Direction dir, const PlaneWord* open);

  // ECC rider after a plane cycle: a parity beat (r parity planes of the
  // program source through the fault layer's kParityBeatSteps — parity
  // rides spare wires), then a Hamming syndrome decode on the received
  // planes. Parity planes are computed with the dispatched SIMD plane
  // kernels (sim/plane_kernels.hpp).
  void ecc_correct(const PlaneWord* src, int planes, Direction dir, const PlaneWord* open,
                   PlaneWord* out, bool wired_or);
  void ecc_parity_of(const PlaneWord* data, int planes, int r, PlaneWord* parity);
  void ecc_parity_beat(int r, Direction dir, const PlaneWord* open, bool wired_or);
  void ecc_decode(PlaneWord* out, int planes, int r);

  MachineConfig config_;
  util::HField field_;
  PlaneGeometry geometry_;
  StepCounter steps_;
  TraceSink* trace_ = nullptr;  // not owned

  CompiledFaults faults_;
  std::vector<FaultEvent> fault_log_;
  std::size_t fault_count_ = 0;
  MaskingStats mask_stats_;
  std::uint64_t bus_cycles_ = 0;
  // TMR trial buffers (2 extra trials per masked cycle).
  std::vector<Word> tmr_word_[2];
  std::vector<Flag> tmr_flag_[2];
  std::vector<Flag> tmr_driven_[2];
  std::vector<PlaneWord> tmr_planes_[2];
  std::vector<PlaneWord> tmr_planes_driven_[2];
  // ECC parity-beat and decode scratch.
  std::vector<PlaneWord> ecc_parity_src_;
  std::vector<PlaneWord> ecc_parity_recv_;
  std::vector<PlaneWord> ecc_parity_driven_;
  std::vector<PlaneWord> ecc_check_;
  std::vector<PlaneWord> ecc_nonzero_;
  std::vector<PlaneWord> ecc_corrected_;
  std::vector<PlaneWord> ecc_mask_;
  // Scratch for the fault transform, sized on first faulty cycle.
  std::vector<Flag> scratch_open_;
  std::vector<Word> scratch_src_word_;
  std::vector<Flag> scratch_src_flag_;
  std::vector<Flag> scratch_alive_value_;
  std::vector<Flag> scratch_alive_driven_;
  std::vector<PlaneWord> scratch_open_plane_;
  std::vector<PlaneWord> scratch_src_planes_;
  std::vector<PlaneWord> scratch_alive_out_;
  std::vector<PlaneWord> scratch_alive_driven_plane_;
  PlaneBusScratch bus_scratch_;  // reused by every plane bus cycle
  RowOrSwitches row_or_switches_;
  std::uint64_t charge_only_cycles_ = 0;
  plane_kernels::SweepStats sweep_stats_;  // ppc PlaneAlu throughput billing
};

}  // namespace ppa::sim
