// The panel-parameterized relaxation core shared by the full-array solver
// (mcp.cpp) and the virtualized sweep engine (tiled.cpp), plus the pieces
// every src/mcp entry point shares: one way to build a machine, the
// sweep engine itself and the outcome epilogue.
//
// One relaxation visit of a panel is the paper's statements 10..12 with
// the geometry generalized: the carrier row's SOW fragment is column-
// broadcast over the panel and added to the resident weight panel. On the
// full array the panel IS the whole matrix and the carrier row is row d;
// on a p x p physical machine sweeping an n-vertex graph the carrier is
// machine row 0. Each engine then reduces the panel rows its own way: the
// full array with the paper's min() / selected_min() (mcp.cpp), the sweep
// engine with ppc::fused_row_min_argmin over panel-local indices.
//
// panel_candidates issues instructions under the caller's ambient
// where-mask; the only masks it pushes itself are the sweep engine's two
// (its `receivers` form), in the order the engine issued them around the
// call. That keeps both instruction streams bit-identical to the
// pre-extraction solvers (tests/mcp_step_regression_test.cpp pins the
// step counts).
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "mcp/mcp.hpp"
#include "ppc/parallel.hpp"

namespace ppa::mcp::detail {

/// Statement 10, one ppc::broadcast_add: sow = broadcast(sow, SOUTH,
/// carrier_row) + W. PE (i,j) of the panel then holds w_ij +
/// SOW[carrier][j]. Without `receivers` the store is masked by the ambient
/// mask, which must exclude the carrier row (under the two-sided scheme it
/// never hears its own injection); with them it is masked by
/// where(receivers), and the carrier row adds its resident SOW locally.
void panel_candidates(const ppc::Pint& W, const ppc::Pbool& carrier_row,
                      BroadcastScheme scheme, ppc::Pint& sow,
                      const ppc::Pbool* receivers = nullptr);

/// The W panels one pass reads (docs/tiling.md "Host data packed once").
/// Panel (bi, bj) of a p x p machine holds w(bi*p + r, bj*p + c) at local
/// (r, c), with the diagonal at 0 (the j == i term of the row minimum then
/// keeps SOW_id) and padding rows / columns at infinity (they never win a
/// minimum whose candidates include the diagonal term). On the full array
/// the one panel (0, 0) is W itself.
///
/// Packed panels live in a per-thread store keyed by (graph.stamp(), p,
/// backend), which holds one key at a time: binding a new key drops the
/// old panels before anything is packed. A panel an earlier pass on this
/// thread packed under the same key is adopted as it is; any other is
/// packed straight from the matrix rows. Every visit charges the ALU step
/// of declaring the panel, whichever way it was obtained, so steps and
/// traces do not depend on what the thread ran before. keep() hands the
/// pass's panels back to the store; a pass that throws never calls it and
/// loses only the panels it held, which are packed again on their next
/// visit. Must be destroyed before the context.
class WeightPanels {
 public:
  WeightPanels(ppc::Context& ctx, const graph::WeightMatrix& graph);

  /// Panel (bi, bj) as a resident register, charging one ALU step.
  [[nodiscard]] const ppc::Pint& visit(std::size_t bi, std::size_t bj);

  /// Returns every panel this pass holds to the store, if the store still
  /// holds this pass's key.
  void keep();

  /// Panels this pass packed / adopted from the store.
  [[nodiscard]] std::uint64_t packs() const noexcept { return packs_; }
  [[nodiscard]] std::uint64_t reuses() const noexcept { return reuses_; }

 private:
  ppc::Context& ctx_;
  const graph::WeightMatrix& graph_;
  std::size_t blocks_;
  std::vector<std::optional<ppc::Pint>> panels_;
  std::uint64_t packs_ = 0;
  std::uint64_t reuses_ = 0;
};

/// Records a pass's solver.panel_packs / solver.panel_reuses (no-op
/// without an observer).
void record_panel_store(const WeightPanels& panels, obs::Collector* observer);

/// Per-column-block activity flags for the active-panel schedule
/// (docs/tiling.md "Active panels"). A block is dirty when its slice of
/// the row-d state changed in the previous iteration; every block starts
/// dirty (iteration 1 has no previous information). Under Jacobi order a
/// panel's partial result depends only on the static weight panel and the
/// SOW fragment of its COLUMN block, so a visit whose column block is
/// clean can be skipped and its cached readback replayed — exact, not
/// heuristic. One instance per solve lane (batch members each carry their
/// own).
class DirtyBlocks {
 public:
  explicit DirtyBlocks(std::size_t blocks) : dirty_(blocks, 1) {}

  [[nodiscard]] bool dirty(std::size_t bj) const { return dirty_[bj] != 0; }
  [[nodiscard]] std::size_t count() const {
    std::size_t c = 0;
    for (const std::uint8_t f : dirty_) c += f;
    return c;
  }
  /// Feeds the next iteration from this iteration's per-block change
  /// counts (the PR 9 convergence-telemetry vector).
  void update(const std::vector<std::uint64_t>& block_changes) {
    for (std::size_t b = 0; b < dirty_.size(); ++b) {
      dirty_[b] = block_changes[b] != 0 ? std::uint8_t{1} : std::uint8_t{0};
    }
  }

 private:
  std::vector<std::uint8_t> dirty_;
};

/// Double-buffered PanelIo accounting for the virtualized sweeps. A
/// visited panel's load beats can overlap the PREVIOUS visited panel's
/// relax sweep (the fragments all come from last iteration's state under
/// Jacobi order, so the controller knows them at sweep start): the first
/// load of each sweep pays full price, every later one is charged only
/// the beats the overlap window could not hide. The window is the
/// previous visited panel's relax step count with the Masking category
/// excluded — masking trials are bus-level redundancy, and excluding them
/// keeps the accounting identical across backends and recovery policies
/// (ECC masking bills bit-plane-only steps). `saved()` accumulates every
/// avoided beat — skipped visits included via skip() — so charged PanelIo
/// plus saved() equals the dense schedule's total exactly.
class PanelIoLedger {
 public:
  PanelIoLedger(sim::Machine& machine, bool overlap) : machine_(machine), overlap_(overlap) {}

  /// Resets the overlap window; the next load pays full price (a prefetch
  /// cannot cross the iteration boundary — the fragment values depend on
  /// the convergence update).
  void begin_sweep() { window_ = 0; }

  /// Charges `rows` PanelIo minus the part hidden under the previous
  /// visited panel's relax sweep.
  void load(std::uint64_t rows) {
    const std::uint64_t hidden = overlap_ ? std::min(rows, window_) : 0;
    if (rows > hidden) machine_.charge_panel_io(rows - hidden);
    saved_ += hidden;
  }

  /// Brackets a panel's relax phase to measure the next overlap window.
  void relax_begin() { before_relax_ = machine_.steps(); }
  void relax_end() {
    // PanelIo beats inside the bracket (member fragments and readbacks)
    // keep the I/O channel busy and cannot hide a prefetch, so they never
    // widen the window.
    const sim::StepCounter delta = machine_.steps().since(before_relax_);
    window_ = delta.total() - delta.count(sim::StepCategory::Masking) -
              delta.count(sim::StepCategory::PanelIo);
  }

  /// Plain charge (result readbacks are never overlapped).
  void unload(std::uint64_t rows) { machine_.charge_panel_io(rows); }

  /// Accounts a skipped visit's beats as saved without charging them.
  void skip(std::uint64_t rows) { saved_ += rows; }

  [[nodiscard]] std::uint64_t saved() const { return saved_; }

 private:
  sim::Machine& machine_;
  bool overlap_;
  std::uint64_t window_ = 0;
  std::uint64_t saved_ = 0;
  sim::StepCounter before_relax_;
};

/// Attaches the observer as the machine's trace sink for the duration of a
/// call — only when the machine has no sink of its own (a caller-attached
/// RecordingTrace keeps priority) — and restores the previous sink on any
/// exit path, including exceptions.
class ScopedSink {
 public:
  ScopedSink(sim::Machine& machine, obs::Collector* observer);
  ScopedSink(const ScopedSink&) = delete;
  ScopedSink& operator=(const ScopedSink&) = delete;
  ~ScopedSink();

 private:
  sim::Machine& machine_;
  sim::TraceSink* previous_;
};

/// Records the machine's broadcast-plan-cache hit/miss delta since `entry`
/// as the observer's bus.plan_cache.* counters (no-op without an
/// observer). Solvers snapshot at entry and call this once on exit, so the
/// merged all-pairs metrics stay worker-count independent.
void record_plan_cache_delta(const sim::Machine& machine,
                             sim::Machine::PlanCacheStats entry,
                             obs::Collector* observer);

/// Records the machine's kernel-sweep billing delta since `entry` (a
/// Machine::sweep_stats() snapshot) as the observer's simd.sweep.*
/// counters: deterministic, billed per sweep on the controller thread.
/// No-op without an observer.
void record_throughput_delta(const sim::Machine& machine,
                             const sim::plane_kernels::SweepStats& entry,
                             obs::Collector* observer);

/// The one way src/mcp builds a machine: a side x side array over the
/// graph's h-bit field on options.backend, checked when options.checked
/// is set or options.faults is non-empty, masked per options.recovery,
/// with options.faults injected.
[[nodiscard]] std::unique_ptr<sim::Machine> make_machine(
    const Options& options, const graph::WeightMatrix& graph, std::size_t side,
    sim::BusTopology topology = sim::BusTopology::Ring);

/// The retry oracle for a run that failed on `failed`: make_machine of
/// default Options (fault-free, unchecked, unmasked) at the failed
/// machine's side, topology and backend. Step counts are bit-identical
/// across backends, so keeping the backend only changes wall-clock.
[[nodiscard]] std::unique_ptr<sim::Machine> make_oracle(const sim::Machine& failed,
                                                        const graph::WeightMatrix& graph);

/// The virtualized sweep engine (tiled.cpp, docs/tiling.md): the paper's
/// DP for k >= 1 destinations on a p x p machine, p <= n, sweeping the
/// weight matrix in ceil(n/p)^2 panels per iteration with every member's
/// row-d state held by the host. The W panel is loaded once per visit for
/// all members (a WeightPanels register: packed once per thread and
/// graph, resident for the pass). Every row
/// reduction is one fused bit-serial min/argmin elimination: h value
/// rounds, then ceil(log2 p) rounds over the panel-local column index,
/// with the host adding the panel base to the argmin (so
/// Options::min_variant does not apply here). One rule depends on k, and
/// only on k: the fragment charge — k == 1's fragment beat rides the
/// double-buffered panel load (p + 1 beats); k > 1 charges each member's
/// beat at injection.
/// Returns one Result per destination, in order; steps and masking
/// counters are the whole pass's delta in every member. Opens a "solve"
/// span for k == 1 and "solve_batch" otherwise.
[[nodiscard]] std::vector<Result> sweep(sim::Machine& machine,
                                        const graph::WeightMatrix& graph,
                                        const std::vector<graph::Vertex>& destinations,
                                        const Options& options);

/// The solver epilogue every engine shares, for the members of one pass
/// on `machine`. Once per pass: harvests the machine's checked-execution
/// fault-event delta since `faults_at_entry` and records the masking
/// counters (every member carries the pass's masking delta). Per member:
/// keeps the pass's events, except a NonConvergence event, which stays
/// with its own destination; settles Result::outcome (non-convergence
/// dominates, then the host certificate — which is array-agnostic — then
/// machine diagnostics, then masking); bumps the solver.runs /
/// iterations / outcome counters. Must run while the caller's span is
/// open.
void finalize_result(sim::Machine& machine, const graph::WeightMatrix& graph,
                     const Options& options, std::size_t faults_at_entry,
                     std::span<Result> results);

}  // namespace ppa::mcp::detail
