#include "mcp/relax_core.hpp"

#include <algorithm>

#include "mcp/verify.hpp"
#include "obs/collector.hpp"
#include "ppc/primitives.hpp"

namespace ppa::mcp::detail {

using ppc::Pbool;
using ppc::Pint;

void panel_candidates(const Pint& W, const Pbool& carrier_row, BroadcastScheme scheme,
                      Pint& sow, const Pbool* receivers) {
  ppc::broadcast_add(sow, W, carrier_row, scheme == BroadcastScheme::TwoSidedLinear,
                     receivers);
}

ScopedSink::ScopedSink(sim::Machine& machine, obs::Collector* observer)
    : machine_(machine), previous_(machine.trace()) {
  if (observer != nullptr && previous_ == nullptr) machine_.set_trace(observer);
}

ScopedSink::~ScopedSink() { machine_.set_trace(previous_); }

void record_plan_cache_delta(const sim::Machine& machine,
                             sim::Machine::PlanCacheStats entry,
                             obs::Collector* observer) {
  if (observer == nullptr) return;
  const sim::Machine::PlanCacheStats now = machine.plan_cache_stats();
  obs::MetricsRegistry& metrics = observer->metrics();
  metrics.counter(obs::metric::kPlanCacheHits).add(now.hits - entry.hits);
  metrics.counter(obs::metric::kPlanCacheMisses).add(now.misses - entry.misses);
}

void record_throughput_delta(const sim::Machine& machine,
                             const sim::plane_kernels::SweepStats& entry,
                             obs::Collector* observer) {
  if (observer == nullptr) return;
  obs::MetricsRegistry& metrics = observer->metrics();
  const sim::plane_kernels::SweepStats delta = machine.sweep_stats().since(entry);
  metrics.counter(obs::metric::kSweepDispatches).add(delta.dispatches);
  metrics.counter(obs::metric::kSweepWords).add(delta.words);
}

std::unique_ptr<sim::Machine> make_machine(const Options& options,
                                           const graph::WeightMatrix& graph, std::size_t side,
                                           sim::BusTopology topology) {
  sim::MachineConfig config;
  config.n = side;
  config.bits = graph.field().bits();
  config.topology = topology;
  config.backend = options.backend;
  config.checked = options.checked || !options.faults.empty();
  config.masking = masking_of(options.recovery);
  auto machine = std::make_unique<sim::Machine>(config);
  if (!options.faults.empty()) machine->inject_faults(options.faults);
  return machine;
}

std::unique_ptr<sim::Machine> make_oracle(const sim::Machine& failed,
                                          const graph::WeightMatrix& graph) {
  Options fault_free;
  fault_free.backend = failed.config().backend;
  return make_machine(fault_free, graph, failed.n(), failed.config().topology);
}

void finalize_result(sim::Machine& machine, const graph::WeightMatrix& graph,
                     const Options& options, std::size_t faults_at_entry,
                     std::span<Result> results) {
  // This pass's checked-execution diagnostics (delta of the machine's
  // capped fault log), harvested before any member reports its own
  // verification failure.
  const std::vector<sim::FaultEvent>& log = machine.fault_events();
  const std::vector<sim::FaultEvent> pass_events(
      log.begin() + static_cast<std::ptrdiff_t>(std::min(faults_at_entry, log.size())),
      log.end());
  const bool machine_faulted = machine.fault_count() > faults_at_entry;

  obs::Collector* const observer = options.observer;
  if (observer != nullptr && results.front().masking.votes != 0) {
    const sim::MaskingStats& masking = results.front().masking;
    obs::MetricsRegistry& metrics = observer->metrics();
    metrics.counter(obs::metric::kMaskVotes).add(masking.votes);
    metrics.counter(obs::metric::kMaskCorrections).add(masking.corrections);
    metrics.counter(obs::metric::kMaskUncorrectable).add(masking.uncorrectable);
  }

  for (Result& result : results) {
    const graph::Vertex destination = result.solution.destination;
    for (const sim::FaultEvent& event : pass_events) {
      if (event.kind == sim::FaultEventKind::NonConvergence && event.row != destination) {
        continue;
      }
      result.fault_events.push_back(event);
    }

    // Outcome: non-convergence dominates (row d is partial data), then
    // the host certificate, then any machine diagnostics, then the masking
    // counters — a run that completed only because TMR / ECC corrected
    // bus cycles is success-with-information (MaskedFaults), unless decode
    // left uncorrectable residue, which is as untrustworthy as any other
    // hardware fault.
    if (result.outcome != SolveOutcome::NonConverged) {
      if (options.verify) {
        PPA_SPAN(observer, "verify", &machine);
        const CertificateReport report = check_certificate(graph, result.solution);
        if (report.ok) {
          result.outcome = SolveOutcome::Verified;
        } else {
          result.outcome = SolveOutcome::VerificationFailed;
          result.verify_detail = report.detail;
          const sim::FaultEvent event{sim::FaultEventKind::VerificationFailed,
                                      sim::StepCategory::Alu, sim::Direction::North,
                                      destination, destination, 1};
          machine.report_fault(event);
          result.fault_events.push_back(event);
        }
      } else if (machine_faulted) {
        result.outcome = SolveOutcome::HardwareFault;
      } else if (result.masking.uncorrectable > 0) {
        result.outcome = SolveOutcome::HardwareFault;
      } else if (result.masking.corrections > 0) {
        result.outcome = SolveOutcome::MaskedFaults;
      }
    }

    if (observer != nullptr) {
      obs::MetricsRegistry& metrics = observer->metrics();
      metrics.counter(obs::metric::kSolverRuns).add(1);
      metrics.counter(obs::metric::kSolverIterations).add(result.iterations);
      metrics.counter(std::string(obs::metric::kOutcomePrefix) + name_of(result.outcome))
          .add(1);
    }
  }
}

}  // namespace ppa::mcp::detail
