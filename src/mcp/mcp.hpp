// Minimum Cost Path on the Polymorphic Processor Array — the paper's
// primary contribution (Section 3), statement for statement.
//
// Given an n-vertex weighted digraph loaded as the n x n weight matrix W
// (PE (i,j) holds w_ij) and a destination vertex d, the algorithm computes
// for every source vertex i:
//
//   SOW[d][i] — the cost of a minimum cost path i -> d, and
//   PTN[d][i] — the vertex following i on such a path,
//
// in O(p * h) SIMD steps, where p is the maximum MCP edge count and h the
// word width. Iteration k extends the candidate paths by one edge using a
// column broadcast from row d, a bit-serial row minimum (pmin) and argmin
// (selected_min), and a diagonal column broadcast back into row d; the loop
// stops when no SOW in row d changes.
//
// Conventions (derived from the paper's own update rule — see DESIGN.md):
//  * The diagonal of W is loaded as 0 regardless of the input matrix: the
//    j == i term of the row minimum is then w_ii + SOW_id = SOW_id, which
//    realizes "the minimum between its old value and the new candidates",
//    and SOW[d][d] stays 0 (the empty path d -> d).
//  * MIN_SOW is initialized to SOW after step 1 so the never-written
//    diagonal element (d,d) stays inert in the convergence test (the paper
//    leaves MIN_SOW's initial value unspecified).
//  * Argmin ties resolve to the smallest next-hop index (selected_min over
//    COL), so PTN is deterministic.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "graph/path.hpp"
#include "graph/weight_matrix.hpp"
#include "sim/fault_model.hpp"
#include "sim/machine.hpp"

namespace ppa::obs {
class Collector;
}

namespace ppa::mcp {

/// Which row-minimum implementation the relaxation uses.
enum class MinVariant {
  Paper,    // pmin / selected_min: OR rounds + route to extreme + spread
  OrProbe,  // pmin_orprobe: every PE reconstructs the minimum from the OR
            // bits (GCN-style; saves the two routing broadcasts per min)
};

/// How the DP's broadcasts reach the whole array.
enum class BroadcastScheme {
  SingleRing,      // one bus cycle per broadcast; requires Ring buses
                   // (the paper listing's reading — DESIGN.md §2)
  TwoSidedLinear,  // each broadcast issued in both directions and combined
                   // by driven-ness: works on LINEAR buses at 2x the
                   // broadcast cycles. Forces the OrProbe minimum (the
                   // paper min()'s routing step cannot reach a cluster's
                   // extreme node on a linear bus when the extreme node
                   // itself holds the unique minimum).
};

/// How a solve survives hardware faults (docs/robustness.md). Retry is the
/// detect-and-repeat baseline; the masking policies correct corruption
/// in place, during the run, via sim::BusMasking.
enum class RecoveryPolicy {
  Retry,         // unprotected run; on a non-Verified outcome re-run on a
                 // fresh fault-free oracle of the same backend and
                 // geometry (max_retries times)
  Tmr,           // every bus cycle voted 2-of-3 (sim::BusMasking::Tmr); no
                 // retry loop — masking is expected to carry the run
  Ecc,           // parity planes + syndrome decode on every plane bus cycle
                 // (sim::BusMasking::Ecc); requires backend == BitPlane; no
                 // retry loop
  TmrThenRetry,  // TMR-masked run, and the retry loop stays armed as a
                 // second line of defence for what the vote cannot fix
                 // (persistent stuck wires)
};

[[nodiscard]] const char* name_of(RecoveryPolicy policy) noexcept;

/// The machine-level masking mode a policy implies.
[[nodiscard]] sim::BusMasking masking_of(RecoveryPolicy policy) noexcept;

/// Whether the policy keeps the verify-then-retry loop armed.
[[nodiscard]] bool retry_allowed(RecoveryPolicy policy) noexcept;

struct Options {
  /// Hard iteration cap; 0 means automatic (n + 2, beyond which the DP
  /// provably cannot still be changing — hitting it indicates a bug).
  std::size_t max_iterations = 0;
  /// The row minimum of FULL-ARRAY runs (minimum_cost_path; forced to
  /// OrProbe under TwoSidedLinear). Virtualized and batched runs ignore
  /// it: the sweep engine always reduces rows with its fused elimination
  /// (docs/tiling.md), so their rows and steps do not depend on it.
  MinVariant min_variant = MinVariant::Paper;
  /// Applies everywhere: the full array and every panel visit of the
  /// sweep engine issue their broadcasts through it.
  BroadcastScheme broadcast_scheme = BroadcastScheme::SingleRing;
  /// Record per-iteration step counts and changed-vertex counts.
  bool record_iterations = false;
  /// Host execution backend for the machines the convenience entry points
  /// (solve / solve_from / solve_batch / all_pairs / solve_eccentricity)
  /// construct.
  /// Results and step counts are bit-identical across backends; only
  /// wall-clock differs. minimum_cost_path(machine, ...) ignores this and
  /// uses the caller's machine as configured.
  sim::ExecBackend backend = sim::ExecBackend::Words;
  /// Physical array side p for the machines solve / solve_from / all_pairs
  /// build. 0 (the default) sizes the machine at the vertex count — the
  /// full-array path, which stays the oracle. 0 < p < n runs the
  /// virtualized sweep on a p x p machine (mcp/tiled.hpp, docs/tiling.md):
  /// the weight matrix is processed in ceil(n/p)^2 panels per iteration.
  /// Solutions, outcomes, iteration counts and certificate verdicts are
  /// bit-identical to the full array on both backends; only the step
  /// profile differs (panel reloads are charged as StepCategory::PanelIo).
  /// Values >= n are clamped to n. minimum_cost_path(machine, ...) ignores
  /// this and uses the caller's machine geometry; solve_eccentricity
  /// honors it with a block-folded row-d reduction (mcp/allpairs.hpp).
  std::size_t array_side = 0;
  /// Destinations solved per machine pass by solve_batch / all_pairs
  /// (mcp/batch.hpp, docs/batching.md). <= 1 keeps the per-destination
  /// engine. With k > 1, solve_batch runs up to k destinations through one
  /// shared sweep schedule: the weight panels are loaded once per panel
  /// visit and every batch member rides them with its own SOW fragment and
  /// result lanes. Rows, iteration counts and outcomes are bit-identical
  /// to the per-destination engine (tests/mcp_batch_test.cpp); only the
  /// step profile differs (docs/batching.md). all_pairs batches only under
  /// the BitPlane backend — the word backend keeps the per-destination
  /// path and remains the differential oracle.
  std::size_t batch_width = 1;
  /// Activity-driven panel scheduling for the virtualized sweeps
  /// (docs/tiling.md "Active panels"). When true (the default), the tiled
  /// and batched drivers keep per-column-block dirty flags fed by the
  /// per-iteration change counts: a weight-panel visit whose SOW fragment
  /// saw no change last iteration is skipped and its cached partial
  /// min/argmin readback is folded instead — exact under Jacobi order, so
  /// rows, iteration counts and outcomes stay bit-identical to the dense
  /// schedule on both backends. Visited panels additionally double-buffer
  /// their loads: the p+1 load beats of the next panel overlap the current
  /// panel's relax sweep in the step accounting. Only the PanelIo profile
  /// changes; the dense formula I*ceil(n/p)^2*(p+3) becomes an upper bound
  /// (false restores it exactly). Ignored by the full-array path.
  bool active_panels = true;

  // ---- robustness layer (docs/robustness.md) ----

  /// Run the host-side certificate checker (mcp/verify.hpp) on the unloaded
  /// row d and set Result::outcome accordingly.
  bool verify = false;
  /// On a non-Verified outcome, the convenience entry points re-run the
  /// destination up to this many times on a fresh fault-free machine of
  /// the same backend and geometry (the oracle). 0 = report the failure
  /// without retrying.
  std::size_t max_retries = 0;
  /// Force checked execution (MachineConfig::checked) on the machines the
  /// convenience entry points build. Implied by a non-empty fault model.
  bool checked = false;
  /// Hardware faults injected into the machines the convenience entry
  /// points build (retry machines stay fault-free).
  /// minimum_cost_path(machine, ...) ignores this — inject into the
  /// caller's machine directly.
  sim::FaultModel faults;
  /// Fault-handling strategy for the machines the convenience entry points
  /// build (full and tiled): the masking mode is applied to
  /// MachineConfig::masking and the retry loop is gated on retry_allowed().
  /// Ecc requires backend == BitPlane (ContractError).
  /// minimum_cost_path(machine, ...) only reads the masking stats off the
  /// caller's machine — configure its masking directly.
  RecoveryPolicy recovery = RecoveryPolicy::Retry;

  // ---- observability (docs/observability.md) ----

  /// Optional obs::Collector recording phase spans (init / relax / unload /
  /// verify / retry), solver counters and — when the machine has no trace
  /// sink of its own — the bus-shape histograms. Not owned; must outlive
  /// the call. Observation never changes results or step counts
  /// (tests/obs_observability_test.cpp pins bit-identity). all_pairs()
  /// gives each destination its own collector and merges them into this
  /// one in destination order, so metrics are worker-count independent.
  obs::Collector* observer = nullptr;
};

struct IterationRecord {
  std::size_t changed = 0;   // vertices whose SOW improved this iteration
  sim::StepCounter steps;    // SIMD steps spent in this iteration
};

/// How much the returned solution can be trusted.
enum class SolveOutcome {
  Unchecked,           // verification was not requested
  Verified,            // the host certificate checker accepted row d
  VerificationFailed,  // the certificate checker rejected row d
  NonConverged,        // relaxation exhausted max_iterations without settling
  HardwareFault,       // checked execution recorded faults (or a fault
                       // tripped a machine contract) and no verification
                       // cleared the result
  MaskedFaults,        // the run completed because in-place masking (TMR /
                       // ECC) corrected at least one bus cycle, none were
                       // uncorrectable, and verification was not requested
                       // to upgrade the outcome to Verified. Success with
                       // information, not a failure; never retried.
};

[[nodiscard]] const char* name_of(SolveOutcome outcome) noexcept;

struct Result {
  graph::McpSolution solution;
  std::size_t iterations = 0;        // relaxation iterations executed
  sim::StepCounter init_steps;       // step 1 (load + init)
  sim::StepCounter total_steps;      // whole algorithm, summed over attempts
  std::vector<IterationRecord> iteration_trace;  // if record_iterations

  SolveOutcome outcome = SolveOutcome::Unchecked;
  /// Fault-masking counters spent inside this solve (the machine-counter
  /// delta; summed over attempts). All zero when masking is off. For a
  /// batched run each member Result carries its whole group's delta, like
  /// total_steps (docs/batching.md).
  sim::MaskingStats masking;
  /// Structured diagnostics from every attempt: checked-execution events
  /// recorded by the machine plus synthesized verification/convergence
  /// events. Empty for a clean run.
  std::vector<sim::FaultEvent> fault_events;
  std::size_t attempts = 1;   // 1 + retries actually executed
  std::string verify_detail;  // certificate failure reason, if any
};

/// Runs the paper's minimum_cost_path() on `machine`. Requirements:
/// machine.n() == graph.size(), machine word width == graph word width,
/// destination < n. The machine's step counter keeps accumulating (the
/// per-call cost is reported in the Result).
[[nodiscard]] Result minimum_cost_path(sim::Machine& machine, const graph::WeightMatrix& graph,
                                       graph::Vertex destination, const Options& options = {});

/// Convenience one-shot: builds a matching machine (Ring topology,
/// host-sequential) and solves. Applies the full robustness policy: faults
/// from Options::faults are injected, the certificate checker runs when
/// Options::verify is set, and a non-Verified outcome is retried up to
/// Options::max_retries times on a fresh fault-free machine of the same
/// backend and geometry.
[[nodiscard]] Result solve(const graph::WeightMatrix& graph, graph::Vertex destination,
                           const Options& options = {});

/// The retry/degradation core of every convenience entry point (the same
/// loop runs solve_batch_on's per-member recovery): one attempt on
/// `machine` (as configured by the caller — faults, checked mode,
/// backend), then, while the outcome is non-Verified and retries
/// remain, re-runs on `oracle` — a fault-free machine of the same backend
/// and geometry, created on first use and reusable across calls. Collects
/// fault events across attempts; Result::total_steps sums every attempt.
/// A util::ContractError thrown out of a faulty machine is converted into a
/// HardwareFault outcome (fault-free machines propagate it unchanged).
[[nodiscard]] Result solve_with_recovery(sim::Machine& machine,
                                         std::unique_ptr<sim::Machine>& oracle,
                                         const graph::WeightMatrix& graph,
                                         graph::Vertex destination, const Options& options);

/// Single-SOURCE solution: cost[i] is the cheapest path source -> i, and
/// prev[i] the vertex BEFORE i on such a path (predecessor tree). Chasing
/// prev from any reachable i walks back to the source.
struct SourceResult {
  std::vector<graph::Weight> cost;
  std::vector<graph::Vertex> prev;
  graph::Vertex source = 0;
  graph::Weight infinity = 0;  // the field's +inf, for reachability checks
  std::size_t iterations = 0;
  sim::StepCounter total_steps;
};

/// Minimum cost paths FROM `source` to every vertex: the same machine DP
/// run toward `source` on the transposed weight matrix (a path i -> s in
/// g^T is the reverse of a path s -> i in g, edge by edge).
[[nodiscard]] SourceResult solve_from(const graph::WeightMatrix& graph, graph::Vertex source,
                                      const Options& options = {});

/// Walks the predecessor pointers of a SourceResult back from `target`;
/// returns the source..target sequence, or nullopt when unreachable.
[[nodiscard]] std::optional<std::vector<graph::Vertex>> extract_path_from(
    const SourceResult& result, graph::Vertex target);

}  // namespace ppa::mcp
