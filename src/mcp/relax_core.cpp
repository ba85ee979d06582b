#include "mcp/relax_core.hpp"

#include <algorithm>

#include "mcp/verify.hpp"
#include "obs/collector.hpp"
#include "ppc/primitives.hpp"

namespace ppa::mcp::detail {

using ppc::Pbool;
using ppc::Pint;
using sim::Word;

void panel_candidates(const Pint& W, const Pbool& carrier_row, BroadcastScheme scheme,
                      Pint& sow, const Pbool* receivers) {
  ppc::broadcast_add(sow, W, carrier_row, scheme == BroadcastScheme::TwoSidedLinear,
                     receivers);
}

namespace {

/// The packed W panels of one (graph stamp, side, backend) key; a slot is
/// empty until packed, and while a pass holds its panel.
struct PanelStore {
  std::uint64_t stamp = 0;  // WeightMatrix stamps are never 0
  std::size_t side = 0;
  sim::ExecBackend backend = sim::ExecBackend::Words;
  std::vector<Pint::Storage> panels;

  [[nodiscard]] bool holds(const graph::WeightMatrix& graph, const ppc::Context& ctx) const {
    return stamp == graph.stamp() && side == ctx.n() &&
           backend == ctx.machine().config().backend;
  }
};

PanelStore& thread_store() {
  thread_local PanelStore store;
  return store;
}

/// Packs panel (base_r, base_c) for `ctx` straight from the matrix rows:
/// a row slice that is a whole panel row off the diagonal is packed in
/// place, any other row (the diagonal's, a clipped slice, padding) from
/// one p-word row buffer. WeightMatrix::set keeps every cell in the
/// field, so no value is checked here. Not billed to the plane ALU's
/// sweep counters: packing is host preparation, and whether it runs
/// depends on the thread's history (solver.panel_packs counts it).
///
/// A panel is packed when its key is new, so its matrix rows are usually
/// out of cache. Each row's slice is prefetched kPrefetchRows rows ahead
/// to keep several row misses in flight while pack_row works: without
/// it, fresh-graph solves measured slower than copying the panel out
/// first (docs/performance.md, "W panels packed once per thread").
constexpr std::size_t kPrefetchRows = 4;
constexpr std::size_t kWordsPerLine = 64 / sizeof(Word);

Pint::Storage pack_panel(const ppc::Context& ctx, const graph::WeightMatrix& graph,
                         std::size_t base_r, std::size_t base_c) {
  const std::size_t n = graph.size();
  const std::size_t p = ctx.n();
  const std::size_t bw = std::min(p, n - base_c);
  const int h = ctx.field().bits();
  Pint::Storage storage;
  if (ctx.bitplane()) {
    storage.planes.resize(ctx.geometry().plane_words() * static_cast<std::size_t>(h));
  } else {
    storage.words.resize(p * p);
  }
  std::vector<Word> buffer(p);
  for (std::size_t r = 0; r < p; ++r) {
    const std::size_t gi = base_r + r;
    if (r + kPrefetchRows < p && gi + kPrefetchRows < n) {
      const Word* ahead = graph.row(gi + kPrefetchRows).data() + base_c;
      for (std::size_t c = 0; c < bw; c += kWordsPerLine) __builtin_prefetch(ahead + c);
    }
    const bool diagonal = gi >= base_c && gi < base_c + bw;
    const Word* row = nullptr;
    if (gi < n && bw == p && !diagonal) {
      row = graph.row(gi).data() + base_c;
    } else {
      std::fill(buffer.begin(), buffer.end(), graph.infinity());
      if (gi < n) {
        const auto slice = graph.row(gi).subspan(base_c, bw);
        std::copy(slice.begin(), slice.end(), buffer.begin());
        if (diagonal) buffer[gi - base_c] = 0;
      }
      row = buffer.data();
    }
    if (ctx.bitplane()) {
      ctx.alu().kernels().pack_row(ctx.geometry(), row, h, r, storage.planes.data());
    } else {
      std::copy_n(row, p, storage.words.begin() + static_cast<std::ptrdiff_t>(r * p));
    }
  }
  return storage;
}

}  // namespace

WeightPanels::WeightPanels(ppc::Context& ctx, const graph::WeightMatrix& graph)
    : ctx_(ctx), graph_(graph), blocks_((graph.size() + ctx.n() - 1) / ctx.n()) {
  panels_.resize(blocks_ * blocks_);
  PanelStore& store = thread_store();
  if (!store.holds(graph, ctx)) {
    store.panels.clear();  // drop the old graph before packing this one
    store.panels.resize(panels_.size());
    store.stamp = graph.stamp();
    store.side = ctx.n();
    store.backend = ctx.machine().config().backend;
  }
}

const Pint& WeightPanels::visit(std::size_t bi, std::size_t bj) {
  std::optional<Pint>& panel = panels_[bi * blocks_ + bj];
  if (panel) {
    ctx_.machine().charge_alu();  // the declaration a reload would issue
    return *panel;
  }
  PanelStore& store = thread_store();
  Pint::Storage packed;
  if (store.holds(graph_, ctx_)) packed = std::move(store.panels[bi * blocks_ + bj]);
  if (packed.words.empty() && packed.planes.empty()) {
    packed = pack_panel(ctx_, graph_, bi * ctx_.n(), bj * ctx_.n());
    ++packs_;
  } else {
    ++reuses_;
  }
  return panel.emplace(Pint::adopt(ctx_, std::move(packed)));
}

void WeightPanels::keep() {
  PanelStore& store = thread_store();
  if (!store.holds(graph_, ctx_)) return;
  for (std::size_t i = 0; i < panels_.size(); ++i) {
    if (!panels_[i]) continue;
    store.panels[i] = std::move(*panels_[i]).surrender();
    panels_[i].reset();
  }
}

void record_panel_store(const WeightPanels& panels, obs::Collector* observer) {
  if (observer == nullptr) return;
  obs::MetricsRegistry& metrics = observer->metrics();
  metrics.counter(obs::metric::kSolverPanelPacks).add(panels.packs());
  metrics.counter(obs::metric::kSolverPanelReuses).add(panels.reuses());
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
