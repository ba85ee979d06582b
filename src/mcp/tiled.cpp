#include "mcp/tiled.hpp"

#include <algorithm>
#include <bit>
#include <optional>
#include <vector>

#include "mcp/relax_core.hpp"
#include "obs/collector.hpp"
#include "ppc/primitives.hpp"
#include "util/check.hpp"

namespace ppa::mcp {

namespace {

using ppc::Pbool;
using ppc::Pint;
using sim::Direction;
using sim::Word;

/// One destination's host-side state: the controller keeps the row-d
/// vectors between panel visits, one set per destination in flight.
struct Member {
  graph::Vertex destination = 0;
  std::vector<Word> sow;            // current row-d costs (n)
  std::vector<graph::Vertex> ptn;   // current next hops (n)
  std::vector<Word> next_min;       // Jacobi buffer for the sweep (n)
  std::vector<Word> next_arg;
  std::vector<Word> carry_min;      // per-row-block panel carry (p)
  std::vector<Word> carry_arg;
  std::vector<IterationRecord> trace;
  std::size_t iterations = 0;
  bool converged = false;
  // Active-panel schedule (docs/tiling.md "Active panels"): each
  // destination's change pattern is its own, so each member carries its
  // own dirty flags and cached per-(bi,bj) readbacks.
  detail::DirtyBlocks dirty{0};
  std::vector<Word> cache_min;
  std::vector<Word> cache_arg;
};

}  // namespace

std::size_t effective_array_side(const Options& options, std::size_t n) {
  if (options.array_side == 0) return n;
  return std::min(options.array_side, n);
}

Result run_minimum_cost_path(sim::Machine& machine, const graph::WeightMatrix& graph,
                             graph::Vertex destination, const Options& options) {
  return machine.n() == graph.size()
             ? minimum_cost_path(machine, graph, destination, options)
             : tiled_minimum_cost_path(machine, graph, destination, options);
}

Result tiled_minimum_cost_path(sim::Machine& machine, const graph::WeightMatrix& graph,
                               graph::Vertex destination, const Options& options) {
  return std::move(detail::sweep(machine, graph, {destination}, options).front());
}

namespace detail {

std::vector<Result> sweep(sim::Machine& machine, const graph::WeightMatrix& graph,
                          const std::vector<graph::Vertex>& destinations,
                          const Options& options) {
  const std::size_t n = graph.size();
  const std::size_t p = machine.n();
  const std::size_t k = destinations.size();
  PPA_REQUIRE(k >= 1, "a sweep needs at least one destination");
  PPA_REQUIRE(p >= 1 && p <= n, "physical array side must be in [1, vertex count]");
  PPA_REQUIRE(machine.field() == graph.field(),
              "machine and graph must use the same h-bit field");
  for (const graph::Vertex d : destinations) {
    PPA_REQUIRE(d < n, "destination out of range");
  }
  // Next hops are global column indices, held in the h-bit field like the
  // full array's PTN.
  PPA_REQUIRE(machine.field().representable(n - 1),
              "vertex indices must be representable in the h-bit field");

  const std::size_t blocks = (n + p - 1) / p;  // ceil(n/p) panels per axis
  const Word inf = machine.field().infinity();
  const std::size_t iteration_cap =
      options.max_iterations != 0 ? options.max_iterations : n + 2;

  obs::Collector* const observer = options.observer;
  ScopedSink scoped_sink(machine, observer);
  PPA_SPAN(observer, k == 1 ? "solve" : "solve_batch", &machine,
           static_cast<std::int64_t>(k == 1 ? destinations.front() : k));

  ppc::Context ctx(machine);
  const sim::StepCounter at_entry = machine.steps();
  const std::size_t faults_at_entry = machine.fault_count();
  const sim::Machine::PlanCacheStats plans_at_entry = machine.plan_cache_stats();
  const sim::MaskingStats masking_at_entry = machine.masking_stats();
  const sim::plane_kernels::SweepStats sweeps_at_entry = machine.sweep_stats();

  if (observer != nullptr && k > 1) {
    observer->metrics().counter(obs::metric::kSolverBatches).add(1);
    observer->metrics().counter(obs::metric::kSolverBatchWidth).add(k);
  }

  // ------------------------------------------------------------------
  // Initialization. Each member's row-d state lives with the controller
  // as host n-vectors between panel visits; SOW starts at the 1-edge costs
  // (column d of W, the full solver's init transposed host-side) and PTN
  // at d. No array instructions are issued for it, so init_steps only
  // covers wiring the physical constants and the index planes below.
  // ------------------------------------------------------------------
  auto init_span = std::make_optional(obs::open_span(observer, "init", &machine));
  const bool active = options.active_panels;
  std::vector<Member> members(k);
  for (std::size_t mi = 0; mi < k; ++mi) {
    Member& m = members[mi];
    m.destination = destinations[mi];
    m.sow.resize(n);
    m.ptn.assign(n, m.destination);
    m.next_min.resize(n);
    m.next_arg.resize(n);
    m.carry_min.resize(p);
    m.carry_arg.resize(p);
    for (std::size_t i = 0; i < n; ++i) {
      m.sow[i] = (i == m.destination) ? 0 : graph.at(i, m.destination);
    }
    if (active) {
      m.dirty = DirtyBlocks(blocks);
      m.cache_min.resize(blocks * blocks * p);
      m.cache_arg.resize(blocks * blocks * p);
    }
  }

  // Per-PE constants of the p x p physical array. The carrier of every
  // SOW fragment is machine row 0 (the full array uses row d; any fixed
  // row works — the fragment rides the column buses either way).
  const Pint ROW = ppc::row_of(ctx);
  const Pint COL = ppc::col_of(ctx);
  const Pbool carrier = (ROW == Word{0});
  const Pbool not_carrier = !carrier;
  const Pbool row_end = (COL == static_cast<Word>(p - 1));  // min() cluster anchor

  // The W panels, adopted (or packed) into a resident register on first
  // visit and read in place on every later one (the ARRAY still pays the
  // declaring ALU step and PanelIo for every visit; the host avoids
  // re-packing a panel within the pass, and across passes on this thread
  // over the same graph). A panel the active schedule never visits is
  // never packed.
  WeightPanels panels(ctx, graph);
  // Panel-local column-index planes, MSB-first: COL's low ceil(log2 p)
  // planes (none for p = 1). Shared by every member, panel visit and sweep
  // — base_c is constant within a panel, so the host adds it to the argmin
  // line instead.
  std::vector<Pbool> index_bits;
  for (int j = static_cast<int>(std::bit_width(p - 1)) - 1; j >= 0; --j) {
    index_bits.push_back(COL.bit(j));
  }

  const sim::StepCounter after_init = machine.steps();
  init_span.reset();

  // ------------------------------------------------------------------
  // Relaxation sweeps. Each iteration covers all ceil(n/p)^2 panels.
  // Row-block bi folds its panels' partial minima into a host carry per
  // member (strict `<`, so the earliest column block wins ties and the
  // paper's smallest-next-hop tie-break survives), and the row-d updates
  // are buffered until the sweep completes (Jacobi order, like the
  // array). The W panel is loaded once per visit for every member; each
  // still-live member rides it with its own SOW fragment. A panel no live
  // member needs (its column block is clean for all of them) is skipped,
  // and a clean member replays its cached readback (exact under Jacobi
  // order — the panel's inputs are the static W panel and its column
  // block's fragment, both unchanged while the block stays clean). The
  // ledger double-buffers visited W loads and closes the accounting:
  // charged PanelIo + saved == the dense schedule's charge exactly. A
  // member freezes after its row first comes back unchanged; the pass
  // runs until every member has frozen or the cap trips.
  // ------------------------------------------------------------------
  auto relax_span = std::make_optional(obs::open_span(observer, "relax", &machine));
  std::vector<Word> sow_row(p);
  std::vector<Word> min_line(p), arg_line(p);
  PanelIoLedger ledger(machine, active);
  std::vector<std::uint8_t> need(blocks, 1);
  std::uint64_t panels_visited = 0;
  std::uint64_t panels_skipped = 0;
  std::uint64_t active_blocks_total = 0;
  std::size_t sweeps = 0;
  std::size_t live = k;

  // A member's bj-th SOW fragment on the carrier row, loaded into the one
  // resident fragment register. Every other PE holds 0 after the first
  // load. A later load rewrites only the carrier row on a fault-free
  // machine: there the carrier is the only driver of the column broadcast,
  // and broadcast_add rewrites every other row before any instruction
  // reads it. On a faulty machine a stuck-open switch can make any PE a
  // driver, so the other rows are zeroed as on the first load.
  std::optional<Pint> fragment;
  const auto inject = [&](const Member& m, std::size_t base_c) {
    for (std::size_t c = 0; c < p; ++c) {
      const std::size_t gj = base_c + c;
      sow_row[c] = gj < n ? m.sow[gj] : inf;
    }
    if (fragment) {
      fragment->reload_row(0, sow_row, machine.has_faults());
    } else {
      fragment.emplace(Pint::load_row(ctx, 0, sow_row));
    }
  };
  const auto fold = [&](Member& m, const Word* mins, const Word* args, std::size_t rows) {
    for (std::size_t r = 0; r < rows; ++r) {
      if (mins[r] < m.carry_min[r]) {
        m.carry_min[r] = mins[r];
        m.carry_arg[r] = args[r];
      }
    }
  };

  while (live > 0) {
    if (sweeps >= iteration_cap) {
      // The DP is monotone, so an exhausted cap means corrupted state
      // (injected faults, or a caller-supplied cap below the true path
      // length). Every still-live member reports its own event.
      for (const Member& m : members) {
        if (m.converged) continue;
        machine.report_fault(sim::FaultEvent{sim::FaultEventKind::NonConvergence,
                                             sim::StepCategory::Alu, Direction::North,
                                             m.destination, m.destination, m.iterations});
      }
      break;
    }
    const sim::StepCounter before_iteration = machine.steps();
    PPA_SPAN(observer, "relax_iter", &machine, static_cast<std::int64_t>(sweeps));

    ledger.begin_sweep();
    if (active) {
      // A column block is needed this sweep when ANY live member's slice
      // of it changed last iteration. Computed once per sweep —
      // convergence flags only move in the apply phase below.
      std::size_t needed = 0;
      for (std::size_t bj = 0; bj < blocks; ++bj) {
        need[bj] = std::any_of(members.begin(), members.end(), [&](const Member& m) {
          return !m.converged && m.dirty.dirty(bj);
        });
        needed += need[bj];
      }
      active_blocks_total += needed;
    }
    for (std::size_t bi = 0; bi < blocks; ++bi) {
      const std::size_t base_r = bi * p;
      const std::size_t bh = std::min(p, n - base_r);
      for (Member& m : members) {
        if (m.converged) continue;
        std::fill(m.carry_min.begin(), m.carry_min.end(), inf);
        std::fill(m.carry_arg.begin(), m.carry_arg.end(), Word{0});
      }
      for (std::size_t bj = 0; bj < blocks; ++bj) {
        const std::size_t base_c = bj * p;
        const std::size_t cached = (bi * blocks + bj) * p;
        const auto panel_id = static_cast<std::int64_t>(bi * blocks + bj);

        if (active && !need[bj]) {
          // ---- skipped visit: every live member replays its cached
          //      readback in the same bj order; the W load and every
          //      member's 3 beats are saved.
          ++panels_skipped;
          ledger.skip(static_cast<std::uint64_t>(p));
          for (Member& m : members) {
            if (m.converged) continue;
            ledger.skip(3);
            fold(m, &m.cache_min[cached], &m.cache_arg[cached], bh);
          }
          continue;
        }
        ++panels_visited;

        // ---- panel load: the W panel, double-buffered against the
        //      previous visited panel's relax phase under the active
        //      schedule. A lone member's fragment rides the same load
        //      (p + 1 beats); with k > 1 each member's fragment is
        //      charged at injection instead.
        auto load_span =
            std::make_optional(obs::open_span(observer, "panel_load", &machine, panel_id));
        const Pint& Wp = panels.visit(bi, bj);
        if (k == 1) inject(members.front(), base_c);
        ledger.load(static_cast<std::uint64_t>(p) + (k == 1 ? 1 : 0));
        load_span.reset();

        PPA_SPAN(observer, "panel_relax", &machine, panel_id);
        ledger.relax_begin();
        for (Member& m : members) {
          if (m.converged) continue;
          if (active && !m.dirty.dirty(bj)) {
            // ---- member replay: this member's bj block is clean.
            ledger.skip(3);
            fold(m, &m.cache_min[cached], &m.cache_arg[cached], bh);
            continue;
          }
          if (k > 1) {
            inject(m, base_c);
            machine.charge_panel_io(1);
          }
          Pint& SOWP = *fragment;
          // ---- candidates (statement 10) and the row reduction. The
          //      carrier doubles as data row 0: its fragment value is
          //      still resident (the store under not_carrier skips it), so
          //      its candidates come from a local add — necessary under
          //      the two-sided scheme, where a driver never hears itself.
          panel_candidates(Wp, carrier, options.broadcast_scheme, SOWP, &not_carrier);
          // The smallest local index is the smallest global one (base_c
          // is constant within a panel): panel_row_reduce's tie-break.
          // Padding columns hold infinity and lose every value round
          // unless the whole row is at infinity, where local 0 wins, as
          // global base_c would.
          ppc::fused_row_min_argmin(SOWP, index_bits, row_end, bh, min_line, arg_line);
          for (std::size_t r = 0; r < bh; ++r) arg_line[r] += static_cast<Word>(base_c);
          // ---- member readback: min + argmin columns (min / argmin are
          //      cluster-wide, so column 0 suffices), 2 PanelIo rows.
          ledger.unload(2);
          if (active) {
            std::copy_n(min_line.begin(), bh, &m.cache_min[cached]);
            std::copy_n(arg_line.begin(), bh, &m.cache_arg[cached]);
          }
          fold(m, min_line.data(), arg_line.data(), bh);
        }
        ledger.relax_end();
      }
      for (Member& m : members) {
        if (m.converged) continue;
        std::copy_n(m.carry_min.begin(), bh, &m.next_min[base_r]);
        std::copy_n(m.carry_arg.begin(), bh, &m.next_arg[base_r]);
      }
    }

    // Apply the buffered row-d updates; each member's loop test is the
    // host's own (the controller already holds the fresh row, no
    // global-OR cycle needed). Change counts are kept per row block
    // (vertex i lives in block i/p): the sparsity signal the active
    // schedule needs — a block whose count hits 0 has a settled fragment.
    for (Member& m : members) {
      if (m.converged) continue;
      std::size_t changed = 0;
      std::vector<std::uint64_t> panel_changes(observer != nullptr || active ? blocks : 0, 0);
      for (std::size_t i = 0; i < n; ++i) {
        if (i == m.destination) continue;  // pinned at 0, like (d,d) on the array
        if (m.next_min[i] != m.sow[i]) {
          m.sow[i] = m.next_min[i];
          m.ptn[i] = static_cast<graph::Vertex>(m.next_arg[i]);
          ++changed;
          if (!panel_changes.empty()) ++panel_changes[i / p];
        }
      }
      if (active) m.dirty.update(panel_changes);
      ++m.iterations;
      if (options.record_iterations) {
        m.trace.push_back(IterationRecord{changed, machine.steps().since(before_iteration)});
      }
      if (observer != nullptr) {
        observer->record_iteration(static_cast<std::int64_t>(m.destination), m.iterations,
                                   changed, std::move(panel_changes));
      }
      if (changed == 0) {
        m.converged = true;
        --live;
      }
    }
    ++sweeps;
  }
  relax_span.reset();
  panels.keep();

  // ------------------------------------------------------------------
  // Finalization. Steps and masking counters are shared by construction:
  // every member reports the whole pass's delta (docs/batching.md;
  // all_pairs counts each group once).
  // ------------------------------------------------------------------
  const sim::StepCounter total = machine.steps().since(at_entry);
  const sim::StepCounter init_delta = after_init.since(at_entry);
  const sim::MaskingStats masking = machine.masking_stats().since(masking_at_entry);
  std::vector<Result> results(k);
  {
    PPA_SPAN(observer, "unload", &machine);
    for (std::size_t mi = 0; mi < k; ++mi) {
      Member& m = members[mi];
      Result& result = results[mi];
      result.solution.destination = m.destination;
      result.solution.cost = std::move(m.sow);
      result.solution.next = std::move(m.ptn);
      result.iterations = m.iterations;
      result.iteration_trace = std::move(m.trace);
      result.init_steps = init_delta;
      result.total_steps = total;
      result.masking = masking;
      if (!m.converged) result.outcome = SolveOutcome::NonConverged;
    }
  }

  if (observer != nullptr) {
    obs::MetricsRegistry& metrics = observer->metrics();
    metrics.counter(obs::metric::kSolverPanels).add(panels_visited);
    if (active) {
      metrics.counter(obs::metric::kSolverPanelsSkipped).add(panels_skipped);
      metrics.counter(obs::metric::kSolverActiveBlocks).add(active_blocks_total);
      metrics.counter(obs::metric::kSolverPanelIoSaved).add(ledger.saved());
    }
  }
  record_panel_store(panels, observer);
  record_plan_cache_delta(machine, plans_at_entry, observer);
  record_throughput_delta(machine, sweeps_at_entry, observer);
  finalize_result(machine, graph, options, faults_at_entry, results);
  return results;
}

}  // namespace detail

}  // namespace ppa::mcp
