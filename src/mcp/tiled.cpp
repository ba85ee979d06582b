#include "mcp/tiled.hpp"

#include <algorithm>
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
using sim::Word;

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
  const std::size_t n = graph.size();
  const std::size_t p = machine.n();
  PPA_REQUIRE(p >= 1 && p <= n, "physical array side must be in [1, vertex count]");
  PPA_REQUIRE(machine.field() == graph.field(),
              "machine and graph must use the same h-bit field");
  PPA_REQUIRE(destination < n, "destination out of range");
  // PTN carries GLOBAL column indices through the argmin.
  PPA_REQUIRE(machine.field().representable(n - 1),
              "vertex indices must be representable in the h-bit field");

  const std::size_t blocks = (n + p - 1) / p;  // ceil(n/p) panels per axis
  const Word inf = machine.field().infinity();
  const std::size_t iteration_cap =
      options.max_iterations != 0 ? options.max_iterations : n + 2;
  const bool two_sided = options.broadcast_scheme == BroadcastScheme::TwoSidedLinear;
  // Same variant forcing as the full-array solver (see minimum_cost_path).
  const MinVariant variant = two_sided ? MinVariant::OrProbe : options.min_variant;

  obs::Collector* const observer = options.observer;
  detail::ScopedSink scoped_sink(machine, observer);
  PPA_SPAN(observer, "solve", &machine, static_cast<std::int64_t>(destination));

  ppc::Context ctx(machine);
  const sim::StepCounter at_entry = machine.steps();
  const std::size_t faults_at_entry = machine.fault_count();
  const sim::Machine::PlanCacheStats plans_at_entry = machine.plan_cache_stats();
  const sim::MaskingStats masking_at_entry = machine.masking_stats();
  const detail::ThroughputProbe throughput_at_entry =
      observer != nullptr ? detail::probe_throughput(machine) : detail::ThroughputProbe{};

  // ------------------------------------------------------------------
  // Initialization. The row-d state lives with the controller as host
  // n-vectors between panel visits; SOW starts at the 1-edge costs
  // (column d of W, the full solver's init transposed host-side) and PTN
  // at d. No array instructions are issued here, so init_steps only
  // covers wiring the physical constants below.
  // ------------------------------------------------------------------
  auto init_span = std::make_optional(obs::open_span(observer, "init", &machine));
  std::vector<graph::Weight> sow(n);
  std::vector<graph::Vertex> ptn(n, destination);
  for (std::size_t i = 0; i < n; ++i) {
    sow[i] = (i == destination) ? 0 : graph.at(i, destination);
  }

  // Per-PE constants of the p x p physical array. The carrier of the SOW
  // fragment is machine row 0 (the full array uses row d; any fixed row
  // works — the fragment rides the column buses either way).
  const Pint ROW = ppc::row_of(ctx);
  const Pint COL = ppc::col_of(ctx);
  const Pbool carrier = (ROW == Word{0});
  const Pbool not_carrier = !carrier;
  const Pbool row_end = (COL == static_cast<Word>(p - 1));  // min() cluster anchor

  // Host panel views of W, built once and reused across iterations (the
  // ARRAY still pays PanelIo for every visit; the host just avoids
  // rebuilding the same cell vector each sweep).
  std::vector<std::vector<Word>> panels(blocks * blocks);
  for (std::size_t bi = 0; bi < blocks; ++bi) {
    for (std::size_t bj = 0; bj < blocks; ++bj) {
      panels[bi * blocks + bj] = detail::panel_weights(graph, p, bi * p, bj * p);
    }
  }

  const sim::StepCounter after_init = machine.steps();
  init_span.reset();

  Result result;
  result.init_steps = after_init.since(at_entry);

  // ------------------------------------------------------------------
  // Relaxation sweeps. Each iteration covers all ceil(n/p)^2 panels —
  // visiting the ones whose column block is dirty, replaying the cached
  // readback for the rest (Options::active_panels; false visits all);
  // row-block bi folds its panels' partial minima into a host carry
  // (strict `<`, so the earliest column block wins ties and the paper's
  // smallest-next-hop tie-break survives), and the row-d updates are
  // buffered until the sweep completes (Jacobi order, like the array).
  // ------------------------------------------------------------------
  auto relax_span = std::make_optional(obs::open_span(observer, "relax", &machine));
  std::vector<Word> sow_cells(p * p);
  std::vector<Word> carry_min(p), carry_arg(p);
  std::vector<Word> next_min(n), next_arg(n);
  std::uint64_t panels_visited = 0;
  // Active-panel schedule (docs/tiling.md "Active panels"): per-column-
  // block dirty flags decide which visits can be skipped, the per-(bi,bj)
  // cache replays a skipped panel's last readback (exact under Jacobi
  // order — the panel's inputs are the static W panel and its column
  // block's fragment, both unchanged while the block stays clean), and
  // the ledger double-buffers visited loads and closes the accounting:
  // charged PanelIo + saved == the dense I*blocks^2*(p+3) exactly.
  const bool active = options.active_panels;
  detail::DirtyBlocks dirty(blocks);
  detail::PanelIoLedger ledger(machine, active);
  std::vector<Word> cache_min(active ? blocks * blocks * p : 0);
  std::vector<Word> cache_arg(active ? blocks * blocks * p : 0);
  std::vector<Word> min_line(p), arg_line(p);
  std::uint64_t panels_skipped = 0;
  std::uint64_t active_blocks_total = 0;
  for (;;) {
    if (result.iterations >= iteration_cap) {
      // Same diagnosis as the full solver: the DP is monotone, so an
      // exhausted cap means corrupted state; report it.
      result.outcome = SolveOutcome::NonConverged;
      const sim::FaultEvent event{sim::FaultEventKind::NonConvergence,
                                  sim::StepCategory::Alu, sim::Direction::North,
                                  destination, destination, result.iterations};
      machine.report_fault(event);
      break;
    }
    const sim::StepCounter before_iteration = machine.steps();
    PPA_SPAN(observer, "relax_iter", &machine,
             static_cast<std::int64_t>(result.iterations));

    ledger.begin_sweep();
    if (active) active_blocks_total += dirty.count();
    for (std::size_t bi = 0; bi < blocks; ++bi) {
      const std::size_t base_r = bi * p;
      const std::size_t bh = std::min(p, n - base_r);
      std::fill(carry_min.begin(), carry_min.end(), inf);
      std::fill(carry_arg.begin(), carry_arg.end(), Word{0});
      for (std::size_t bj = 0; bj < blocks; ++bj) {
        const std::size_t base_c = bj * p;
        const auto panel_id = static_cast<std::int64_t>(bi * blocks + bj);
        Word* const cache_m = active ? &cache_min[(bi * blocks + bj) * p] : nullptr;
        Word* const cache_a = active ? &cache_arg[(bi * blocks + bj) * p] : nullptr;

        if (active && !dirty.dirty(bj)) {
          // ---- skipped visit: the column block's fragment is unchanged,
          //      so the cached readback IS the visit's result. Fold it in
          //      the same bj order and save the whole p+3 beats.
          ++panels_skipped;
          ledger.skip(static_cast<std::uint64_t>(p) + 3);
          for (std::size_t r = 0; r < bh; ++r) {
            if (cache_m[r] < carry_min[r]) {
              carry_min[r] = cache_m[r];
              carry_arg[r] = cache_a[r];
            }
          }
          continue;
        }
        ++panels_visited;

        // ---- panel load: W panel (p rows) + SOW fragment (1 row),
        //      counted and traced as PanelIo; under the active schedule
        //      the beats hidden by the previous panel's relax sweep are
        //      not charged (double buffering).
        auto load_span =
            std::make_optional(obs::open_span(observer, "panel_load", &machine, panel_id));
        std::fill(sow_cells.begin(), sow_cells.end(), Word{0});
        for (std::size_t c = 0; c < p; ++c) {
          const std::size_t gj = base_c + c;
          sow_cells[c] = gj < n ? sow[gj] : inf;
        }
        const Pint Wp(ctx, panels[bi * blocks + bj]);
        Pint SOWP(ctx, sow_cells);
        ledger.load(static_cast<std::uint64_t>(p) + 1);
        load_span.reset();

        // ---- panel relax: the shared core (relax_core.hpp).
        PPA_SPAN(observer, "panel_relax", &machine, panel_id);
        ledger.relax_begin();
        // Global column indices for the argmin: one ALU op per visit.
        const Pint INDEX = COL + static_cast<Word>(base_c);
        Pint MINP(ctx, inf);
        Pint PTNP(ctx, Word{0});
        ppc::where(ctx, not_carrier, [&] {
          detail::panel_candidates(Wp, carrier, options.broadcast_scheme, SOWP);
        });
        ppc::where(ctx, carrier, [&] {
          // The carrier doubles as data row 0: its fragment value is still
          // resident (the masked store above skipped it), so its candidates
          // come from a local add — necessary under the two-sided scheme,
          // where a driver never hears its own injection.
          SOWP = SOWP + Wp;
        });
        detail::panel_row_reduce(INDEX, row_end, variant, SOWP, MINP, PTNP);
        ledger.relax_end();

        // ---- panel unload: one column readback per result register
        //      (min / argmin are cluster-wide, so column 0 suffices).
        ledger.unload(2);
        MINP.read_column(0, min_line);
        PTNP.read_column(0, arg_line);
        for (std::size_t r = 0; r < bh; ++r) {
          const Word m = min_line[r];
          const Word a = arg_line[r];
          if (active) {
            cache_m[r] = m;
            cache_a[r] = a;
          }
          if (m < carry_min[r]) {
            carry_min[r] = m;
            carry_arg[r] = a;
          }
        }
      }
      for (std::size_t r = 0; r < bh; ++r) {
        next_min[base_r + r] = carry_min[r];
        next_arg[base_r + r] = carry_arg[r];
      }
    }

    // Apply the buffered row-d update; the loop test is the host's (the
    // controller already holds the fresh row, no global-OR cycle needed).
    // Change counts are kept per row block (vertex i lives in block i/p):
    // the per-panel sparsity signal active-panel virtualization needs —
    // a block whose count hits 0 has a settled SOW fragment.
    std::size_t changed = 0;
    std::vector<std::uint64_t> panel_changes(
        observer != nullptr || active ? blocks : 0, 0);
    for (std::size_t i = 0; i < n; ++i) {
      if (i == destination) continue;  // pinned at 0, like (d,d) on the array
      if (next_min[i] != sow[i]) {
        sow[i] = next_min[i];
        ptn[i] = static_cast<graph::Vertex>(next_arg[i]);
        ++changed;
        if (!panel_changes.empty()) ++panel_changes[i / p];
      }
    }
    if (active) dirty.update(panel_changes);

    ++result.iterations;
    if (options.record_iterations) {
      result.iteration_trace.push_back(
          IterationRecord{changed, machine.steps().since(before_iteration)});
    }
    if (observer != nullptr) {
      observer->record_iteration(static_cast<std::int64_t>(destination),
                                 result.iterations, changed, std::move(panel_changes));
    }
    if (changed == 0) break;
  }
  relax_span.reset();

  result.total_steps = machine.steps().since(at_entry);

  {
    PPA_SPAN(observer, "unload", &machine);
    result.solution.destination = destination;
    result.solution.cost = sow;
    result.solution.next = ptn;
  }

  if (observer != nullptr) {
    observer->metrics().counter(obs::metric::kSolverPanels).add(panels_visited);
    if (active) {
      obs::MetricsRegistry& metrics = observer->metrics();
      metrics.counter(obs::metric::kSolverPanelsSkipped).add(panels_skipped);
      metrics.counter(obs::metric::kSolverActiveBlocks).add(active_blocks_total);
      metrics.counter(obs::metric::kSolverPanelIoSaved).add(ledger.saved());
    }
  }
  result.masking = machine.masking_stats().since(masking_at_entry);
  detail::record_plan_cache_delta(machine, plans_at_entry, observer);
  detail::record_throughput_delta(machine, throughput_at_entry, observer);
  detail::finalize_result(machine, graph, destination, options, faults_at_entry, result);
  return result;
}

}  // namespace ppa::mcp
