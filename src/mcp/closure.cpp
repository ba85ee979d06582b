#include "mcp/closure.hpp"

#include <algorithm>

#include "mcp/relax_core.hpp"
#include "mcp/tiled.hpp"
#include "ppc/primitives.hpp"
#include "util/check.hpp"

namespace ppa::mcp {

namespace {

using ppc::Pbool;
using ppc::Pint;
using sim::Direction;
using sim::Flag;
using sim::Word;

/// The boolean adjacency loaded into the PEs: hasEdge(i,j), diagonal true
/// (the j == i term preserves R_i across iterations, mirroring the MCP's
/// zero diagonal).
std::vector<Flag> adjacency_flags(const graph::WeightMatrix& g) {
  const std::size_t n = g.size();
  std::vector<Flag> flags(n * n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      flags[i * n + j] = (i == j || g.has_edge(i, j)) ? Flag{1} : Flag{0};
    }
  }
  return flags;
}

/// Host view of adjacency panel (base_r, base_c) on a p x p machine: the
/// boolean twin of a detail::WeightPanels panel — diagonal reflexive, padding
/// rows/columns false (they contribute nothing to a wired-OR).
std::vector<Flag> panel_adjacency(const graph::WeightMatrix& g, std::size_t p,
                                  std::size_t base_r, std::size_t base_c) {
  const std::size_t n = g.size();
  std::vector<Flag> flags(p * p, 0);
  for (std::size_t r = 0; r < p; ++r) {
    const std::size_t gi = base_r + r;
    if (gi >= n) break;
    for (std::size_t c = 0; c < p; ++c) {
      const std::size_t gj = base_c + c;
      if (gj >= n) break;
      flags[r * p + c] = (gi == gj || g.has_edge(gi, gj)) ? Flag{1} : Flag{0};
    }
  }
  return flags;
}

/// The dense boolean DP: machine side == vertex count, adjacency resident.
ReachabilityResult full_reachability(sim::Machine& machine, const graph::WeightMatrix& graph,
                                     graph::Vertex destination) {
  const std::size_t n = graph.size();
  PPA_REQUIRE(destination < n, "destination out of range");

  ppc::Context ctx(machine);
  const sim::StepCounter at_entry = machine.steps();

  const Pbool EDGE(ctx, adjacency_flags(graph));
  const Pint ROW = ppc::row_of(ctx);
  const Pint COL = ppc::col_of(ctx);
  const Word d = static_cast<Word>(destination);
  const Pbool row_is_d = (ROW == d);
  const Pbool col_is_d = (COL == d);
  const Pbool on_diagonal = (ROW == COL);
  const Pbool row_end = (COL == static_cast<Word>(n - 1));

  // Init: R[d][j] = hasEdge(j, d) — column d transposed into row d, the
  // same two-bus-cycle pattern as the MCP init (and R[d][d] = true via
  // the reflexive diagonal).
  Pbool R(ctx, false);
  const Pbool edges_into_d = ppc::broadcast(EDGE, Direction::East, col_is_d);
  ppc::where(ctx, row_is_d, [&] { R = ppc::broadcast(edges_into_d, Direction::South, on_diagonal); });

  ReachabilityResult result;
  result.destination = destination;
  result.init_steps = machine.steps().since(at_entry);

  for (;;) {
    PPA_REQUIRE(result.iterations < n + 2,
                "reachability failed to converge within the iteration cap");
    Pbool changed(ctx, false);
    Pbool OLD(ctx, false);
    Pbool NEW_R(ctx, false);

    // cand(i,j) = hasEdge(i,j) AND R[d][j]; row-wide OR in ONE bus cycle.
    const Pbool r_by_column = ppc::broadcast(R, Direction::South, row_is_d);
    NEW_R.store_all(ppc::bus_or(EDGE & r_by_column, Direction::West, row_end));

    ppc::where(ctx, row_is_d, [&] {
      OLD = R;
      R = ppc::broadcast(NEW_R, Direction::South, on_diagonal);
      changed = (R != OLD);
    });

    ++result.iterations;
    if (!ppc::any(changed)) break;
  }

  result.total_steps = machine.steps().since(at_entry);
  std::vector<Flag> row_d(n);
  R.read_row(destination, row_d);
  result.reachable.assign(row_d.begin(), row_d.end());
  return result;
}

/// The virtualized boolean DP (docs/tiling.md): the reach row lives with
/// the controller as a host n-vector, each iteration sweeps the
/// ceil(n/p)^2 adjacency panels in Jacobi order (every panel reads LAST
/// iteration's reach fragment), and row-block partials are OR-folded
/// host-side. A panel visit costs p+2 PanelIo beats: the p adjacency rows
/// + 1 reach fragment in, 1 wired-OR column readback out. Convergence is
/// the host's comparison of the folded row against the previous one — the
/// same count as the dense run's global-OR test, final no-change sweep
/// included. The active-panel schedule is exact here for the same Jacobi
/// reason as the MCP's, with a one-bit cache per (panel, row).
ReachabilityResult tiled_reachability(sim::Machine& machine, const graph::WeightMatrix& graph,
                                      graph::Vertex destination,
                                      const ClosureOptions& options) {
  const std::size_t n = graph.size();
  const std::size_t p = machine.n();
  PPA_REQUIRE(p >= 1 && p <= n, "physical array side must be in [1, vertex count]");
  PPA_REQUIRE(destination < n, "destination out of range");
  const std::size_t blocks = (n + p - 1) / p;

  ppc::Context ctx(machine);
  const sim::StepCounter at_entry = machine.steps();

  const Pint ROW = ppc::row_of(ctx);
  const Pint COL = ppc::col_of(ctx);
  const Pbool carrier = (ROW == Word{0});
  const Pbool row_end = (COL == static_cast<Word>(p - 1));

  std::vector<std::vector<Flag>> panels(blocks * blocks);
  for (std::size_t bi = 0; bi < blocks; ++bi) {
    for (std::size_t bj = 0; bj < blocks; ++bj) {
      panels[bi * blocks + bj] = panel_adjacency(graph, p, bi * p, bj * p);
    }
  }

  // The dense init's row-d state, computed by the controller (reflexive:
  // the destination reaches itself). No array instructions are issued, so
  // init_steps covers only the constants above.
  std::vector<std::uint8_t> reach(n, 0);
  for (std::size_t j = 0; j < n; ++j) {
    reach[j] = (j == destination || graph.has_edge(j, destination)) ? 1 : 0;
  }

  ReachabilityResult result;
  result.destination = destination;
  result.init_steps = machine.steps().since(at_entry);

  const bool active = options.active_panels;
  detail::DirtyBlocks dirty(blocks);
  detail::PanelIoLedger ledger(machine, active);
  std::vector<std::uint8_t> cache(active ? blocks * blocks * p : 0);
  std::vector<std::uint8_t> carry(p), next(n);
  std::vector<Flag> or_line(p);
  std::vector<Flag> frag(p * p, 0);

  for (;;) {
    PPA_REQUIRE(result.iterations < n + 2,
                "reachability failed to converge within the iteration cap");
    ledger.begin_sweep();
    for (std::size_t bi = 0; bi < blocks; ++bi) {
      const std::size_t base_r = bi * p;
      const std::size_t bh = std::min(p, n - base_r);
      std::fill(carry.begin(), carry.end(), std::uint8_t{0});
      for (std::size_t bj = 0; bj < blocks; ++bj) {
        const std::size_t base_c = bj * p;
        std::uint8_t* const cached = active ? &cache[(bi * blocks + bj) * p] : nullptr;

        if (active && !dirty.dirty(bj)) {
          ++result.panels_skipped;
          ledger.skip(static_cast<std::uint64_t>(p) + 2);
          for (std::size_t r = 0; r < bh; ++r) carry[r] |= cached[r];
          continue;
        }
        ++result.panels_visited;

        // ---- panel load: adjacency panel (p rows) + reach fragment on
        //      the carrier row (1 row).
        for (std::size_t c = 0; c < p; ++c) {
          const std::size_t gj = base_c + c;
          frag[c] = (gj < n && reach[gj] != 0) ? Flag{1} : Flag{0};
        }
        const Pbool EDGEP(ctx, panels[bi * blocks + bj]);
        const Pbool RF(ctx, frag);
        ledger.load(static_cast<std::uint64_t>(p) + 1);

        // ---- panel relax: one column broadcast + one wired-OR.
        ledger.relax_begin();
        const Pbool r_by_col = ppc::broadcast(RF, Direction::South, carrier);
        const Pbool NEW_R = ppc::bus_or(EDGEP & r_by_col, Direction::West, row_end);
        ledger.relax_end();

        // ---- panel unload: the OR line is cluster-wide; column 0 is one
        //      readback beat.
        ledger.unload(1);
        NEW_R.read_column(0, or_line);
        for (std::size_t r = 0; r < bh; ++r) {
          const std::uint8_t bit = or_line[r];
          if (active) cached[r] = bit;
          carry[r] |= bit;
        }
      }
      for (std::size_t r = 0; r < bh; ++r) next[base_r + r] = carry[r];
    }

    // Jacobi apply: reach growth is monotone (the reflexive diagonal
    // keeps every set bit), so the per-block change counts feed the dirty
    // flags exactly as in the MCP sweep.
    std::size_t changed = 0;
    std::vector<std::uint64_t> block_changes(blocks, 0);
    for (std::size_t i = 0; i < n; ++i) {
      if (next[i] != reach[i]) {
        reach[i] = next[i];
        ++block_changes[i / p];
        ++changed;
      }
    }
    if (active) dirty.update(block_changes);

    ++result.iterations;
    if (changed == 0) break;
  }

  result.total_steps = machine.steps().since(at_entry);
  result.panel_io_saved = ledger.saved();
  result.reachable.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    result.reachable[i] = reach[i] != 0;
  }
  return result;
}

}  // namespace

ReachabilityResult reachability(sim::Machine& machine, const graph::WeightMatrix& graph,
                                graph::Vertex destination, const ClosureOptions& options) {
  return machine.n() == graph.size()
             ? full_reachability(machine, graph, destination)
             : tiled_reachability(machine, graph, destination, options);
}

namespace {

/// The closure drivers' machine: make_machine under the machine-level
/// settings ClosureOptions carries (backend, array side).
std::unique_ptr<sim::Machine> closure_machine(const graph::WeightMatrix& graph,
                                              const ClosureOptions& options) {
  Options machine_options;
  machine_options.backend = options.backend;
  machine_options.array_side = options.array_side;
  return detail::make_machine(machine_options, graph,
                              effective_array_side(machine_options, graph.size()));
}

}  // namespace

ReachabilityResult solve_reachability(const graph::WeightMatrix& graph,
                                      graph::Vertex destination,
                                      const ClosureOptions& options) {
  return reachability(*closure_machine(graph, options), graph, destination, options);
}

ClosureResult transitive_closure(const graph::WeightMatrix& graph,
                                 const ClosureOptions& options) {
  const std::size_t n = graph.size();
  const auto machine = closure_machine(graph, options);

  ClosureResult result;
  result.n = n;
  result.closed.assign(n * n, false);
  for (graph::Vertex d = 0; d < n; ++d) {
    const ReachabilityResult run = reachability(*machine, graph, d, options);
    result.total_iterations += run.iterations;
    for (graph::Vertex i = 0; i < n; ++i) result.closed[i * n + d] = run.reachable[i];
  }
  result.total_steps = machine->steps();
  return result;
}

}  // namespace ppa::mcp
