#include "mcp/mcp.hpp"

#include <algorithm>
#include <iterator>
#include <vector>

#include "mcp/batch.hpp"
#include "mcp/relax_core.hpp"
#include "mcp/tiled.hpp"
#include "obs/collector.hpp"
#include "ppc/primitives.hpp"
#include "util/check.hpp"

namespace ppa::mcp {

const char* name_of(SolveOutcome outcome) noexcept {
  switch (outcome) {
    case SolveOutcome::Unchecked: return "unchecked";
    case SolveOutcome::Verified: return "verified";
    case SolveOutcome::VerificationFailed: return "verification-failed";
    case SolveOutcome::NonConverged: return "non-converged";
    case SolveOutcome::HardwareFault: return "hardware-fault";
    case SolveOutcome::MaskedFaults: return "masked-faults";
  }
  return "?";
}

const char* name_of(RecoveryPolicy policy) noexcept {
  switch (policy) {
    case RecoveryPolicy::Retry: return "retry";
    case RecoveryPolicy::Tmr: return "tmr";
    case RecoveryPolicy::Ecc: return "ecc";
    case RecoveryPolicy::TmrThenRetry: return "tmr+retry";
  }
  return "?";
}

sim::BusMasking masking_of(RecoveryPolicy policy) noexcept {
  switch (policy) {
    case RecoveryPolicy::Retry: return sim::BusMasking::None;
    case RecoveryPolicy::Tmr:
    case RecoveryPolicy::TmrThenRetry: return sim::BusMasking::Tmr;
    case RecoveryPolicy::Ecc: return sim::BusMasking::Ecc;
  }
  return sim::BusMasking::None;
}

bool retry_allowed(RecoveryPolicy policy) noexcept {
  return policy == RecoveryPolicy::Retry || policy == RecoveryPolicy::TmrThenRetry;
}

namespace {

using ppc::Pbool;
using ppc::Pint;
using sim::Direction;
using sim::Word;

/// Statements 11..12: min_sow = min(sow, WEST, row_end) — the row minimum,
/// available in every PE of the row — and ptn = selected_min(index, ...)
/// — the smallest index attaining it, on the configured variant. Stores
/// obey the ambient mask.
void panel_row_reduce(const Pint& index, const Pbool& row_end, MinVariant variant,
                      const Pint& sow, Pint& min_sow, Pint& ptn) {
  if (variant == MinVariant::Paper) {
    min_sow = ppc::pmin(sow, Direction::West, row_end);
    ptn = ppc::selected_min(index, Direction::West, row_end, min_sow == sow);
  } else {
    min_sow = ppc::pmin_orprobe(sow, Direction::West, row_end);
    ptn = ppc::selected_min_orprobe(index, Direction::West, row_end, min_sow == sow);
  }
}

}  // namespace

Result minimum_cost_path(sim::Machine& machine, const graph::WeightMatrix& graph,
                         graph::Vertex destination, const Options& options) {
  const std::size_t n = graph.size();
  PPA_REQUIRE(machine.n() == n, "machine side must equal the vertex count");
  PPA_REQUIRE(machine.field() == graph.field(),
              "machine and graph must use the same h-bit field");
  PPA_REQUIRE(destination < n, "destination out of range");

  const std::size_t iteration_cap =
      options.max_iterations != 0 ? options.max_iterations : n + 2;
  const bool two_sided = options.broadcast_scheme == BroadcastScheme::TwoSidedLinear;
  // The two-sided scheme cannot run the paper min()'s routing step (see
  // BroadcastScheme), so it always uses the OR-probe minimum.
  const MinVariant variant = two_sided ? MinVariant::OrProbe : options.min_variant;

  obs::Collector* const observer = options.observer;
  detail::ScopedSink scoped_sink(machine, observer);
  PPA_SPAN(observer, "solve", &machine, static_cast<std::int64_t>(destination));

  ppc::Context ctx(machine);
  const sim::StepCounter at_entry = machine.steps();
  const std::size_t faults_at_entry = machine.fault_count();
  const sim::Machine::PlanCacheStats plans_at_entry = machine.plan_cache_stats();
  const sim::MaskingStats masking_at_entry = machine.masking_stats();
  const sim::plane_kernels::SweepStats sweeps_at_entry = machine.sweep_stats();

  // ------------------------------------------------------------------
  // Data layout (paper Section 3): W, SOW, PTN are n x n parallel ints;
  // only row d of SOW / PTN is meaningful at the end. W, with its
  // diagonal at 0 (see header), is the one panel of a p = n WeightPanels.
  // ------------------------------------------------------------------
  detail::WeightPanels panels(ctx, graph);
  const Pint& W = panels.visit(0, 0);
  const Pint ROW = ppc::row_of(ctx);
  const Pint COL = ppc::col_of(ctx);
  const Word d = static_cast<Word>(destination);

  const Pbool row_is_d = (ROW == d);
  const Pbool on_diagonal = (ROW == COL);
  const Pbool row_end = (COL == static_cast<Word>(n - 1));  // min() cluster anchor

  Pint SOW(ctx, machine.field().infinity());
  Pint PTN(ctx, d);

  // One broadcast issue point for both schemes.
  const auto bcast = [&](const Pint& value, Direction dir, const Pbool& open) {
    return two_sided ? ppc::two_sided_broadcast(value, dir, open)
                     : ppc::broadcast(value, dir, open);
  };

  // Step 1 — initialization (paper statements 4..7): the d-th row gets the
  // 1-edge path costs and pointers, SOW[d][i] = w_id.
  //
  // ERRATUM: the paper's listing writes `SOW = W` under ROW == d, which
  // loads w_di — the edges *leaving* d — while the paper's own Step-1 text
  // says SOW_id "is initialized with the weight associated to the link
  // from vertex i to vertex d", i.e. COLUMN d of W. The text is the
  // version consistent with the Step-2 update (PE (i,j) = SOW_jd + w_ij),
  // so we implement it: column d is transposed into row d with two O(1)
  // bus cycles — a row broadcast from column d puts w_id on the whole of
  // row i (in particular on the diagonal), and a column broadcast from
  // the diagonal delivers it to row d.
  // The element (d,d) is written explicitly (it is 0, the empty path)
  // rather than through the diagonal broadcast: under the two-sided
  // scheme a diagonal driver never hears itself, and under the ring
  // scheme the broadcast would deliver the same 0 anyway.
  auto init_span = std::make_optional(obs::open_span(observer, "init", &machine));
  const Pbool col_is_d = (COL == d);
  const Pint w_into_d = bcast(W, Direction::East, col_is_d);
  const Pint zero(ctx, 0);
  ppc::where(ctx, row_is_d, [&] {
    PTN = Pint(ctx, d);
    ppc::where(ctx, !on_diagonal, [&] {
      SOW = bcast(w_into_d, Direction::South, on_diagonal);
    });
    ppc::where(ctx, on_diagonal, [&] { SOW = zero; });
  });

  // MIN_SOW starts as a copy of SOW so the never-recomputed diagonal
  // element (d,d) feeds its own unchanged value back in statement 16.
  Pint MIN_SOW(SOW);
  Pint OLD_SOW(ctx, 0);

  const sim::StepCounter after_init = machine.steps();
  init_span.reset();

  Result result;
  result.init_steps = after_init.since(at_entry);

  // Step 2 — relaxation loop (paper statements 8..20).
  auto relax_span = std::make_optional(obs::open_span(observer, "relax", &machine));
  for (;;) {
    if (result.iterations >= iteration_cap) {
      // The DP is monotone, so exhausting the cap means corrupted state
      // (injected faults, or a caller-supplied cap below the true path
      // length). Report it instead of returning partial SOW/PTN silently.
      result.outcome = SolveOutcome::NonConverged;
      const sim::FaultEvent event{sim::FaultEventKind::NonConvergence,
                                  sim::StepCategory::Alu, Direction::North, destination,
                                  destination, result.iterations};
      machine.report_fault(event);
      break;
    }
    const sim::StepCounter before_iteration = machine.steps();
    PPA_SPAN(observer, "relax_iter", &machine,
             static_cast<std::int64_t>(result.iterations));

    ppc::where(ctx, !row_is_d, [&] {
      // 10..12 — the shared panel core (relax_core.hpp). Here the "panel"
      // is the whole matrix: the carrier is row d and the argmin indices
      // are the wired COL constants.
      detail::panel_candidates(W, row_is_d, options.broadcast_scheme, SOW);
      panel_row_reduce(COL, row_end, variant, SOW, MIN_SOW, PTN);
    });

    // 15..18: pull the new costs/pointers from the diagonal into row d.
    // (d,d) is excluded: its cost is pinned at 0 and its MIN_SOW was
    // never recomputed; under the two-sided scheme it would also read its
    // own floating injection.
    const Pbool changed =
        ppc::pullback(SOW, OLD_SOW, PTN, MIN_SOW, row_is_d, on_diagonal, two_sided);

    ++result.iterations;
    // changed.count() is a free host read (it never charges SIMD steps),
    // so convergence telemetry rides the OR the loop test needs anyway.
    if (options.record_iterations || observer != nullptr) {
      const std::size_t active = changed.count();
      if (options.record_iterations) {
        result.iteration_trace.push_back(
            IterationRecord{active, machine.steps().since(before_iteration)});
      }
      if (observer != nullptr) {
        observer->record_iteration(static_cast<std::int64_t>(destination),
                                   result.iterations, active);
      }
    }

    // 20: while (at least one SOW in row d has changed) — the controller's
    // global-OR response line.
    if (!ppc::any(changed)) break;
  }
  relax_span.reset();
  panels.keep();

  result.total_steps = machine.steps().since(at_entry);

  // Unload row d (controller I/O; not charged as SIMD steps).
  {
    PPA_SPAN(observer, "unload", &machine);
    result.solution.destination = destination;
    result.solution.cost.resize(n);
    SOW.read_row(destination, result.solution.cost);
    std::vector<Word> next(n);
    PTN.read_row(destination, next);
    result.solution.next.assign(next.begin(), next.end());
  }

  // Fault harvest, outcome policy, solver counters (shared with the tiled
  // driver — relax_core.hpp).
  result.masking = machine.masking_stats().since(masking_at_entry);
  detail::record_panel_store(panels, observer);
  detail::record_plan_cache_delta(machine, plans_at_entry, observer);
  detail::record_throughput_delta(machine, sweeps_at_entry, observer);
  detail::finalize_result(machine, graph, options, faults_at_entry, {&result, 1});
  return result;
}

namespace {

/// True when the outcome warrants another attempt on the oracle.
bool retriable(SolveOutcome outcome) {
  return outcome == SolveOutcome::VerificationFailed ||
         outcome == SolveOutcome::NonConverged || outcome == SolveOutcome::HardwareFault;
}

/// One attempt over a group of destinations on `machine`: a lone
/// destination runs the geometry dispatch (the paper's full-array solver
/// on a full-size machine, the 1-member sweep otherwise), a larger group
/// one shared k-member sweep. Converts a ContractError on a faulty machine
/// into a HardwareFault result for every member (an injected fault can
/// drive the program into states the machine contracts reject, e.g. an
/// undriven value reaching a primitive that requires full driven-ness in
/// unchecked mode); fault-free machines propagate it unchanged.
std::vector<Result> attempt(sim::Machine& machine, const graph::WeightMatrix& graph,
                            const std::vector<graph::Vertex>& group, const Options& options) {
  const std::size_t faults_at_entry = machine.fault_count();
  try {
    if (group.size() > 1) return detail::sweep(machine, graph, group, options);
    std::vector<Result> results;
    results.push_back(run_minimum_cost_path(machine, graph, group.front(), options));
    return results;
  } catch (const util::ContractError&) {
    if (!machine.has_faults()) throw;
    std::vector<sim::FaultEvent> events;
    const std::vector<sim::FaultEvent>& log = machine.fault_events();
    for (std::size_t i = faults_at_entry; i < log.size(); ++i) events.push_back(log[i]);
    if (events.empty()) {
      // The abort itself is the diagnostic: an undriven consume tripped a
      // contract before checked mode could record anything.
      events.push_back(sim::FaultEvent{sim::FaultEventKind::UndrivenRead,
                                       sim::StepCategory::Alu, Direction::North, 0, 0, 1});
    }
    std::vector<Result> results(group.size());
    for (std::size_t i = 0; i < group.size(); ++i) {
      Result& result = results[i];
      result.outcome = SolveOutcome::HardwareFault;
      result.solution.destination = group[i];
      result.solution.cost.assign(graph.size(), graph.infinity());
      result.solution.next.assign(graph.size(), group[i]);
      result.fault_events = events;
    }
    return results;
  }
}

/// The one attempt/recovery loop: one attempt over the group on `machine`,
/// then every member whose outcome is still retriable re-runs ALONE on
/// `oracle` while retries remain — the rest of the group keeps its
/// first-pass rows. Fault events, steps and masking counters accumulate
/// across a member's attempts.
std::vector<Result> solve_group(sim::Machine& machine, std::unique_ptr<sim::Machine>& oracle,
                                const graph::WeightMatrix& graph,
                                const std::vector<graph::Vertex>& group,
                                const Options& options) {
  std::vector<Result> results = attempt(machine, graph, group, options);
  for (Result& result : results) {
    const graph::Vertex destination = result.solution.destination;
    std::vector<sim::FaultEvent> events = std::move(result.fault_events);
    sim::StepCounter spent = result.total_steps;
    sim::MaskingStats masked = result.masking;
    std::size_t attempts = 1;

    while (retry_allowed(options.recovery) && retriable(result.outcome) &&
           attempts <= options.max_retries) {
      // Same geometry as the failed machine: a tiled run retries tiled,
      // so the recovery path exercises the same panel schedule.
      if (!oracle) oracle = detail::make_oracle(machine, graph);
      if (options.observer != nullptr) {
        options.observer->metrics().counter(obs::metric::kSolverRetries).add(1);
      }
      PPA_SPAN(options.observer, "retry", oracle.get(), static_cast<std::int64_t>(attempts));
      result = run_minimum_cost_path(*oracle, graph, destination, options);
      ++attempts;
      events.insert(events.end(), result.fault_events.begin(), result.fault_events.end());
      spent.merge(result.total_steps);
      masked.merge(result.masking);
    }

    if (attempts > 1 && result.outcome == SolveOutcome::Verified &&
        options.observer != nullptr) {
      // The retry loop turned a failed row into a verified one.
      options.observer->metrics().counter(obs::metric::kSolverRecoveredRows).add(1);
    }
    result.fault_events = std::move(events);
    result.total_steps = spent;
    result.attempts = attempts;
    result.masking = masked;
  }
  return results;
}

}  // namespace

Result solve_with_recovery(sim::Machine& machine, std::unique_ptr<sim::Machine>& oracle,
                           const graph::WeightMatrix& graph, graph::Vertex destination,
                           const Options& options) {
  return std::move(solve_group(machine, oracle, graph, {destination}, options).front());
}

Result solve(const graph::WeightMatrix& graph, graph::Vertex destination,
             const Options& options) {
  const auto machine =
      detail::make_machine(options, graph, effective_array_side(options, graph.size()));
  std::unique_ptr<sim::Machine> oracle;
  return solve_with_recovery(*machine, oracle, graph, destination, options);
}

std::vector<Result> solve_batch_on(sim::Machine& machine,
                                   std::unique_ptr<sim::Machine>& oracle,
                                   const graph::WeightMatrix& graph,
                                   const std::vector<graph::Vertex>& destinations,
                                   const Options& options) {
  std::vector<Result> out;
  out.reserve(destinations.size());
  const std::size_t width = std::max<std::size_t>(options.batch_width, 1);
  for (std::size_t start = 0; start < destinations.size(); start += width) {
    const auto first = destinations.begin() + static_cast<std::ptrdiff_t>(start);
    const auto last = destinations.begin() + static_cast<std::ptrdiff_t>(
                                                 std::min(start + width, destinations.size()));
    std::vector<Result> group = solve_group(machine, oracle, graph, {first, last}, options);
    std::move(group.begin(), group.end(), std::back_inserter(out));
  }
  return out;
}

std::vector<Result> solve_batch(const graph::WeightMatrix& graph,
                                const std::vector<graph::Vertex>& destinations,
                                const Options& options) {
  if (destinations.empty()) return {};
  const auto machine =
      detail::make_machine(options, graph, effective_array_side(options, graph.size()));
  std::unique_ptr<sim::Machine> oracle;
  return solve_batch_on(*machine, oracle, graph, destinations, options);
}

SourceResult solve_from(const graph::WeightMatrix& graph, graph::Vertex source,
                        const Options& options) {
  const Result toward = solve(graph.transposed(), source, options);
  SourceResult result;
  result.source = source;
  result.infinity = graph.infinity();
  result.cost = toward.solution.cost;
  // In g^T the "next hop toward source" of vertex i is, in g, the vertex
  // that precedes i on the source -> i path.
  result.prev = toward.solution.next;
  result.iterations = toward.iterations;
  result.total_steps = toward.total_steps;
  return result;
}

std::optional<std::vector<graph::Vertex>> extract_path_from(const SourceResult& result,
                                                            graph::Vertex target) {
  const std::size_t n = result.cost.size();
  PPA_REQUIRE(target < n, "target out of range");
  if (result.cost[target] == result.infinity) return std::nullopt;
  graph::McpSolution as_solution;
  as_solution.destination = result.source;
  as_solution.cost = result.cost;
  as_solution.next = result.prev;
  auto reversed = graph::extract_path(as_solution, target);
  if (!reversed) return std::nullopt;
  std::vector<graph::Vertex> path(reversed->rbegin(), reversed->rend());
  return path;
}

}  // namespace ppa::mcp
