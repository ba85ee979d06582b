#include "mcp/allpairs.hpp"

#include <algorithm>
#include <memory>
#include <numeric>

#include "mcp/batch.hpp"
#include "mcp/relax_core.hpp"
#include "mcp/tiled.hpp"
#include "obs/collector.hpp"
#include "ppc/primitives.hpp"
#include "util/check.hpp"
#include "util/thread_pool.hpp"

namespace ppa::mcp {

namespace {

using ppc::Pbool;
using ppc::Pint;
using sim::Direction;
using sim::Word;

/// Reduces the finished run's row d (out.mcp) to the in-eccentricity on
/// `machine`.
void reduce_eccentricity(sim::Machine& machine, const graph::WeightMatrix& graph,
                         graph::Vertex destination, EccentricityResult& out) {
  const std::size_t n = graph.size();
  const std::size_t p = machine.n();
  const Word inf = graph.infinity();
  ppc::Context ctx(machine);

  if (p == n) {
    // After the run the costs are resident in row d of the PEs' SOW
    // registers; the Result copied them out but the machine state is
    // unchanged. Rebuild that register view and reduce it on the machine:
    // one OR-probe selected_max over the finite entries of row d. The
    // candidate set is never empty ((d,d) == 0), and the OR-probe variant
    // leaves the other rows' empty selections at a harmless 0 instead of a
    // floating bus read.
    std::vector<Word> cells(machine.pe_count(), 0);
    for (std::size_t i = 0; i < n; ++i) {
      cells[destination * n + i] = out.mcp.solution.cost[i];
    }

    const sim::StepCounter before = machine.steps();
    const Pint SOW(ctx, cells);
    const Pbool row_is_d = (ppc::row_of(ctx) == static_cast<Word>(destination));
    const Pbool row_end = (ppc::col_of(ctx) == static_cast<Word>(n - 1));
    const Pbool finite_in_d = row_is_d & !(SOW == inf);
    const Pint row_max = ppc::selected_max_orprobe(SOW, Direction::West, row_end, finite_in_d);
    std::vector<Word> column0(n);
    row_max.read_column(0, column0);
    out.eccentricity = column0[destination];
    out.reduction_steps = machine.steps().since(before);
    return;
  }

  // Virtualized reduction (docs/tiling.md): the row-d costs only exist as
  // the controller's host vector after a tiled run, so the selected_max
  // folds block by block — each ceil(n/p) fragment rides machine row 0
  // (1 PanelIo beat in, 1 readback beat out), reduces with the same
  // OR-probe selected_max over its finite entries, and the controller
  // max-folds the per-block results. A fragment with no finite entry
  // reduces to the OR-probe's harmless 0, which can never exceed the true
  // maximum (the destination's own 0 is always finite).
  const std::size_t blocks = (n + p - 1) / p;
  const sim::StepCounter before = machine.steps();
  const Pbool row0 = (ppc::row_of(ctx) == Word{0});
  const Pbool row_end = (ppc::col_of(ctx) == static_cast<Word>(p - 1));
  std::vector<Word> cells(machine.pe_count(), 0);
  std::vector<Word> column0(p);
  graph::Weight ecc = 0;
  for (std::size_t bj = 0; bj < blocks; ++bj) {
    const std::size_t base_c = bj * p;
    for (std::size_t c = 0; c < p; ++c) {
      const std::size_t gj = base_c + c;
      cells[c] = gj < n ? out.mcp.solution.cost[gj] : inf;
    }
    const Pint SOW(ctx, cells);
    machine.charge_panel_io(1);
    const Pbool finite = row0 & !(SOW == inf);
    const Pint block_max = ppc::selected_max_orprobe(SOW, Direction::West, row_end, finite);
    machine.charge_panel_io(1);
    block_max.read_column(0, column0);
    ecc = std::max(ecc, column0[0]);
  }
  out.eccentricity = ecc;
  out.reduction_steps = machine.steps().since(before);
}

}  // namespace

EccentricityResult eccentricity(sim::Machine& machine, const graph::WeightMatrix& graph,
                                graph::Vertex destination, const Options& options) {
  EccentricityResult out;
  out.mcp = run_minimum_cost_path(machine, graph, destination, options);
  reduce_eccentricity(machine, graph, destination, out);
  return out;
}

EccentricityResult solve_eccentricity(const graph::WeightMatrix& graph,
                                      graph::Vertex destination, const Options& options) {
  const auto machine =
      detail::make_machine(options, graph, effective_array_side(options, graph.size()));
  std::unique_ptr<sim::Machine> oracle;
  EccentricityResult out;
  out.mcp = solve_with_recovery(*machine, oracle, graph, destination, options);
  // The reduction has no retry of its own, so it never runs on a faulty
  // machine: the eccentricity is always exact for the row reported.
  if (machine->has_faults() && !oracle) oracle = detail::make_oracle(*machine, graph);
  reduce_eccentricity(machine->has_faults() ? *oracle : *machine, graph, destination, out);
  return out;
}

AllPairsResult all_pairs(const graph::WeightMatrix& graph, const Options& options) {
  return all_pairs(graph, AllPairsOptions{options, 1});
}

std::size_t AllPairsResult::failed_destinations() const noexcept {
  std::size_t failed = 0;
  for (const SolveOutcome outcome : outcomes) {
    if (outcome == SolveOutcome::VerificationFailed ||
        outcome == SolveOutcome::NonConverged || outcome == SolveOutcome::HardwareFault) {
      ++failed;
    }
  }
  return failed;
}

AllPairsResult all_pairs(const graph::WeightMatrix& graph, const AllPairsOptions& options) {
  const std::size_t n = graph.size();
  // Worker machines honor Options::array_side: p < n runs every
  // destination through the virtualized sweep.
  const std::size_t side = effective_array_side(options.mcp, n);

  AllPairsResult result;
  result.n = n;
  result.dist.assign(n * n, graph.infinity());
  result.next.assign(n * n, 0);
  result.outcomes.assign(n, SolveOutcome::Unchecked);
  result.attempts.assign(n, 1);

  // Destinations are partitioned into GLOBAL groups of at most `width`,
  // so group composition never depends on the worker count and results,
  // outcomes and merged metrics stay worker-count independent. Each group
  // rides one machine pass (mcp/batch.hpp, docs/batching.md); batching
  // runs only under the BitPlane backend — the word backend keeps
  // one-destination groups and remains the differential oracle. A worker
  // runs a contiguous range of groups on its own simulated machine and
  // records each group's step delta ONCE, on the group's first
  // destination slot. Workers write disjoint columns of dist/next and
  // disjoint slots of the per-destination arrays, so no synchronization
  // is needed beyond the pool's join. A destination whose final outcome
  // is still a failure keeps its infinity-filled dist column — the
  // all-pairs run degrades per destination instead of aborting.
  const std::size_t width = options.mcp.backend == sim::ExecBackend::BitPlane
                                ? std::max<std::size_t>(options.mcp.batch_width, 1)
                                : 1;
  const std::size_t groups = (n + width - 1) / width;
  std::vector<sim::StepCounter> per_destination(n);
  std::vector<std::size_t> iterations(n, 0);
  std::vector<std::vector<sim::FaultEvent>> events(n);
  // One collector per group, merged below in destination order — the
  // StepCounter idiom extended to metrics, so the observed totals are
  // identical for every worker count.
  obs::Collector* const observer = options.mcp.observer;
  std::vector<std::unique_ptr<obs::Collector>> collectors(observer != nullptr ? n : 0);
  const auto run_groups = [&](std::size_t gbegin, std::size_t gend) {
    const auto machine = detail::make_machine(options.mcp, graph, side);
    std::unique_ptr<sim::Machine> oracle;  // shared across this worker's groups
    Options run_options = options.mcp;
    for (std::size_t g = gbegin; g < gend; ++g) {
      const std::size_t first = g * width;
      std::vector<graph::Vertex> dests(std::min(width, n - first));
      std::iota(dests.begin(), dests.end(), first);
      if (observer != nullptr) {
        collectors[first] = std::make_unique<obs::Collector>();
        run_options.observer = collectors[first].get();
      }
      const sim::StepCounter before = machine->steps();
      const sim::StepCounter oracle_before = oracle ? oracle->steps() : sim::StepCounter{};
      const std::vector<Result> runs =
          solve_batch_on(*machine, oracle, graph, dests, run_options);
      per_destination[first] = machine->steps().since(before);
      if (oracle) per_destination[first].merge(oracle->steps().since(oracle_before));
      for (std::size_t gi = 0; gi < runs.size(); ++gi) {
        const std::size_t d = first + gi;
        const Result& run = runs[gi];
        iterations[d] = run.iterations;
        result.outcomes[d] = run.outcome;
        result.attempts[d] = run.attempts;
        events[d] = run.fault_events;
        // An aborted attempt already reports an all-infinity column, so
        // the unconditional copy preserves the degradation default.
        for (graph::Vertex i = 0; i < n; ++i) {
          result.dist[i * n + d] = run.solution.cost[i];
          result.next[i * n + d] = run.solution.next[i];
        }
      }
    }
  };

  util::ThreadPool pool(std::min(options.workers, groups));
  pool.parallel_for(groups, run_groups);

  // Deterministic reduction: merge in destination order, whatever the
  // thread count was. StepCounter::merge is a component-wise sum, so even
  // the order only matters in principle — it is fixed here anyway.
  for (graph::Vertex d = 0; d < n; ++d) {
    result.total_steps.merge(per_destination[d]);
    result.total_iterations += iterations[d];
    result.fault_events.insert(result.fault_events.end(), events[d].begin(),
                               events[d].end());
    // One collector per GROUP (stored at the group's first destination);
    // the other slots stay empty.
    if (observer != nullptr && collectors[d] != nullptr) observer->merge(*collectors[d]);
  }
  for (const graph::Weight w : result.dist) {
    if (w != graph.infinity()) result.diameter = std::max(result.diameter, w);
  }
  return result;
}

}  // namespace ppa::mcp
