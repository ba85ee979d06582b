// Virtualized (tiled) PPA: an n-vertex graph on a p x p physical array.
//
// The paper maps the weight matrix 1:1 onto the array, so the largest
// solvable graph is the largest machine; this layer removes the coupling.
// A p x p machine (p <= n) sweeps the n x n weight matrix in
// ceil(n/p) x ceil(n/p) panels per relaxation iteration:
//
//   * the current row-d state (SOW / PTN) lives with the HOST controller
//     as an n-vector between panels;
//   * visiting panel (bi, bj) loads the p x p weight panel and the
//     bj-th SOW fragment into the array (counted PanelIo steps — see
//     Machine::charge_panel_io and docs/tiling.md), runs the shared
//     relaxation core (relax_core.hpp: column broadcast + saturating add
//     + bit-serial row min/argmin over GLOBAL column indices), and reads
//     back one min/argmin pair per panel row;
//   * a host-side carry folds each panel row's partial minimum into the
//     running row minimum with a strict `<`, so the earliest column block
//     wins ties — combined with the in-panel smallest-index argmin this
//     preserves the paper's tie-break to the smallest next-hop index
//     exactly;
//   * row-d updates are buffered and applied only after the full sweep
//     (Jacobi order, like the array), so the iteration count, every
//     iterate and the final solution are bit-identical to the full-array
//     run — tests/mcp_tiled_test.cpp pins this on both backends.
//
// The same engine (detail::sweep, mcp/relax_core.hpp) runs k >= 1
// destinations per pass: solve_batch (mcp/batch.hpp) rides it with a
// group, tiled_minimum_cost_path with one member. Only the row reduction
// and where a member's fragment beat is charged depend on k.
//
// Step model: the relaxation instructions are charged exactly like the
// full array's (just on p-wide rows); the virtualization overhead is
// charged separately as StepCategory::PanelIo, so E2/E4-style step curves
// can show it honestly.
#pragma once

#include "mcp/mcp.hpp"

namespace ppa::mcp {

/// The physical array side the convenience entry points build for an
/// n-vertex graph: options.array_side clamped to [1, n], with 0 mapping
/// to n (the full-array path).
[[nodiscard]] std::size_t effective_array_side(const Options& options, std::size_t n);

/// The paper's DP on a machine SMALLER than the graph: machine.n() <= n,
/// sweeping panels as described above. Preconditions: matching h-bit
/// field, destination < n, and n - 1 representable in the field (PTN
/// carries global column indices). The machine's step counter keeps
/// accumulating; panel reloads are charged as StepCategory::PanelIo.
[[nodiscard]] Result tiled_minimum_cost_path(sim::Machine& machine,
                                             const graph::WeightMatrix& graph,
                                             graph::Vertex destination,
                                             const Options& options = {});

/// Geometry dispatch used by the solve/retry entry points: the full-array
/// solver when machine.n() == graph.size(), the tiled sweep otherwise.
[[nodiscard]] Result run_minimum_cost_path(sim::Machine& machine,
                                           const graph::WeightMatrix& graph,
                                           graph::Vertex destination,
                                           const Options& options = {});

}  // namespace ppa::mcp
