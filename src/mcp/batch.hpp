// Multi-destination plane batching: k destinations per machine pass.
//
// Destinations are independent columns of the same DP over the same
// weight matrix: the panel schedule, the switch configurations and the
// wired-OR segmentation depend only on the geometry, never on d.
// solve_batch exploits that by running up to Options::batch_width
// destinations through one pass of the virtualized sweep engine
// (detail::sweep in mcp/tiled.cpp, docs/batching.md):
//
//   * the weight panel is loaded (and billed as PanelIo) once per panel
//     visit, not once per destination;
//   * every batch member rides the panel with its own SOW plane group —
//     fragment injection, carrier broadcast, candidate add and a fused
//     bit-serial min/argmin — under the same bus plans;
//   * iteration control is host-side: a member freezes the moment its own
//     row stops changing (its iteration count is recorded exactly as the
//     per-destination engine would), and the pass ends when ALL members
//     have converged.
//
// Rows, per-destination iteration counts and outcomes are bit-identical
// to the per-destination engine on both backends, full and tiled
// (tests/mcp_batch_test.cpp); only the step profile differs — see
// docs/batching.md for the amortized PanelIo accounting.
//
// Robustness: groups run through the same attempt/recovery loop as
// solve(). A member whose run fails (VerificationFailed, NonConverged,
// HardwareFault) retries ALONE on a fault-free oracle of the same backend
// and geometry, without re-running the rest of the batch
// (tests/mcp_batch_fault_test.cpp).
#pragma once

#include <memory>
#include <vector>

#include "graph/weight_matrix.hpp"
#include "mcp/mcp.hpp"

namespace ppa::mcp {

/// Solves toward every destination in `destinations`, batching up to
/// Options::batch_width of them per machine pass. Returns one Result per
/// destination, in input order. With batch_width <= 1 (or a single
/// destination) this is exactly a loop of solve(): the per-destination
/// engine with the full recovery policy.
[[nodiscard]] std::vector<Result> solve_batch(const graph::WeightMatrix& graph,
                                              const std::vector<graph::Vertex>& destinations,
                                              const Options& options = {});

/// The batching core on a caller-owned machine (the all-pairs driver's
/// entry point): partitions `destinations` into groups of at most
/// Options::batch_width, runs each group through one shared sweep pass
/// on `machine` (a one-destination group runs the per-destination
/// engine), then applies the per-member retry policy on
/// `oracle` — a fault-free machine of the same backend and geometry,
/// created on first use and reusable across calls (the same contract as
/// solve_with_recovery). Batch members share the machine's step counter;
/// each member's Result::total_steps reports the whole group's delta
/// (plus its own retries), so callers aggregating steps must count each
/// group once — see docs/batching.md.
[[nodiscard]] std::vector<Result> solve_batch_on(
    sim::Machine& machine, std::unique_ptr<sim::Machine>& oracle,
    const graph::WeightMatrix& graph, const std::vector<graph::Vertex>& destinations,
    const Options& options);

}  // namespace ppa::mcp
