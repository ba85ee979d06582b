#include "mcp/batch.hpp"

#include <algorithm>
#include <bit>
#include <optional>
#include <vector>

#include "mcp/relax_core.hpp"
#include "mcp/tiled.hpp"
#include "mcp/verify.hpp"
#include "obs/collector.hpp"
#include "ppc/primitives.hpp"
#include "util/check.hpp"

namespace ppa::mcp {

namespace {

using ppc::Pbool;
using ppc::Pint;
using sim::Direction;
using sim::Word;

/// True when the outcome warrants another attempt on the oracle (the same
/// policy as solve_with_recovery).
bool retriable(SolveOutcome outcome) {
  return outcome == SolveOutcome::VerificationFailed ||
         outcome == SolveOutcome::NonConverged || outcome == SolveOutcome::HardwareFault;
}

/// One batch member's host-side state: the controller keeps the row-d
/// vectors between panel visits, exactly like the tiled driver, one set
/// per destination in flight.
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
  // Active-panel schedule, per member (docs/tiling.md "Active panels"):
  // each destination's change pattern is its own, so each member carries
  // its own dirty flags and cached per-(bi,bj) readbacks.
  detail::DirtyBlocks dirty{0};
  std::vector<Word> cache_min;
  std::vector<Word> cache_arg;
};

/// One shared sweep pass over `members.size()` destinations. The sweep
/// schedule is the tiled driver's generalized to k destinations: the
/// weight panel is loaded once per panel visit and every still-active
/// member rides it with its own SOW fragment. The row reduction is a
/// FUSED bit-serial min/argmin: h + ceil(log2(blocks * p)) wired-OR
/// elimination rounds MSB-first over the candidate value bits and then
/// the global column-index bits, with the controller reconstructing both
/// results from the per-row OR lines (an OR round that finds a 0 pins
/// that bit of the minimum to 0 and narrows the candidate set). One
/// survivor per row remains — the minimum with the smallest global index
/// — matching panel_row_reduce's tie-break bit for bit while skipping its
/// routing/spread broadcasts and the per-destination GlobalOr loop test
/// (convergence is host-side). See docs/batching.md.
std::vector<Result> run_batched(sim::Machine& machine, const graph::WeightMatrix& graph,
                                const std::vector<graph::Vertex>& destinations,
                                const Options& options) {
  const std::size_t n = graph.size();
  const std::size_t p = machine.n();
  const std::size_t b = destinations.size();
  PPA_REQUIRE(p >= 1 && p <= n, "physical array side must be in [1, vertex count]");
  PPA_REQUIRE(machine.field() == graph.field(),
              "machine and graph must use the same h-bit field");
  PPA_REQUIRE(machine.field().representable(n - 1),
              "vertex indices must be representable in the h-bit field");
  for (const graph::Vertex d : destinations) {
    PPA_REQUIRE(d < n, "destination out of range");
  }

  const std::size_t blocks = (n + p - 1) / p;  // ceil(n/p) panels per axis
  const Word inf = machine.field().infinity();
  const std::size_t iteration_cap =
      options.max_iterations != 0 ? options.max_iterations : n + 2;
  const int h = static_cast<int>(machine.field().bits());
  // Index elimination rounds: enough bits for the largest global column
  // index any panel carries (padding columns of the last block included —
  // they hold infinity candidates and lose every value round unless the
  // whole row is at infinity, where the smallest index still wins).
  const int idx_bits = static_cast<int>(std::bit_width(blocks * p - 1));

  obs::Collector* const observer = options.observer;
  detail::ScopedSink scoped_sink(machine, observer);
  PPA_SPAN(observer, "solve_batch", &machine, static_cast<std::int64_t>(b));

  ppc::Context ctx(machine);
  const sim::StepCounter at_entry = machine.steps();
  const std::size_t faults_at_entry = machine.fault_count();
  const sim::Machine::PlanCacheStats plans_at_entry = machine.plan_cache_stats();
  const sim::MaskingStats masking_at_entry = machine.masking_stats();
  const detail::ThroughputProbe throughput_at_entry =
      observer != nullptr ? detail::probe_throughput(machine) : detail::ThroughputProbe{};

  if (observer != nullptr) {
    observer->metrics().counter(obs::metric::kSolverBatches).add(1);
    observer->metrics().counter(obs::metric::kSolverBatchWidth).add(b);
  }

  // ------------------------------------------------------------------
  // Initialization: one host row-d state per member (the tiled init, k
  // times) plus the shared physical constants and host panel views.
  // ------------------------------------------------------------------
  auto init_span = std::make_optional(obs::open_span(observer, "init", &machine));
  const bool active_schedule = options.active_panels;
  std::vector<Member> members(b);
  for (std::size_t mi = 0; mi < b; ++mi) {
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
    if (active_schedule) {
      m.dirty = detail::DirtyBlocks(blocks);
      m.cache_min.resize(blocks * blocks * p);
      m.cache_arg.resize(blocks * blocks * p);
    }
  }

  // The carrier of every SOW fragment is machine row 0, like the tiled
  // sweep; all members share the switch configurations, so the broadcast
  // plan cache serves every cycle after the first from memory.
  const Pint ROW = ppc::row_of(ctx);
  const Pint COL = ppc::col_of(ctx);
  const Pbool carrier = (ROW == Word{0});
  const Pbool not_carrier = !carrier;
  const Pbool row_end = (COL == static_cast<Word>(p - 1));

  std::vector<std::vector<Word>> panels(blocks * blocks);
  for (std::size_t bi = 0; bi < blocks; ++bi) {
    for (std::size_t bj = 0; bj < blocks; ++bj) {
      panels[bi * blocks + bj] = detail::panel_weights(graph, p, bi * p, bj * p);
    }
  }

  // Global column-index bit planes per column block, MSB-first: PE (r, c)
  // of block bj holds bit j of bj*p + c. Host flags (no field arithmetic,
  // so padding indices never clamp), built once per batch and reused by
  // every member, panel visit and sweep.
  std::vector<std::vector<Pbool>> index_bits(blocks);
  {
    std::vector<sim::Flag> flags(p * p);
    for (std::size_t bj = 0; bj < blocks; ++bj) {
      for (int j = idx_bits - 1; j >= 0; --j) {
        for (std::size_t r = 0; r < p; ++r) {
          for (std::size_t c = 0; c < p; ++c) {
            flags[r * p + c] =
                static_cast<sim::Flag>(((bj * p + c) >> static_cast<std::size_t>(j)) & 1u);
          }
        }
        index_bits[bj].emplace_back(ctx, flags);
      }
    }
  }

  const sim::StepCounter after_init = machine.steps();
  init_span.reset();

  // ------------------------------------------------------------------
  // Relaxation sweeps. Panel-visit cost splits into a shared part (the W
  // panel load, p PanelIo) and a per-active-member part (1 fragment load
  // + 2 result-column readbacks): the dense schedule's PanelIo totals
  // S * blocks^2 * p + 3 * blocks^2 * sum_m I_m, with S = max iterations
  // over the batch — the amortization tests/mcp_batch_test.cpp pins with
  // Options::active_panels off. The active schedule (docs/tiling.md
  // "Active panels") makes the formula an upper bound: a member whose
  // column block is clean replays its cached readback (saving its 3
  // beats), a panel NO live member needs skips the shared W load (saving
  // p), and visited W loads double-buffer against the previous panel's
  // relax phase; charged PanelIo + saved equals the formula exactly. A
  // member freezes the sweep after its row first comes back unchanged;
  // the pass runs until every member has frozen or the cap trips.
  // ------------------------------------------------------------------
  auto relax_span = std::make_optional(obs::open_span(observer, "relax", &machine));
  std::vector<Word> sow_cells(p * p, Word{0});
  std::vector<Word> minv(p), argv(p);
  std::vector<sim::Flag> or_line(p);
  std::uint64_t panels_visited = 0;
  detail::PanelIoLedger ledger(machine, active_schedule);
  std::vector<std::uint8_t> need(blocks, 1);
  std::uint64_t panels_skipped = 0;
  std::uint64_t active_blocks_total = 0;
  std::size_t sweeps = 0;
  std::size_t active = b;
  while (active > 0) {
    if (sweeps >= iteration_cap) {
      // Same diagnosis as the per-destination engines: the DP is
      // monotone, so an exhausted cap means corrupted state. Every
      // still-active member reports its own event.
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
    if (active_schedule) {
      // A column block is needed this sweep when ANY live member's slice
      // of it changed last iteration; blocks nobody needs skip the shared
      // W load outright. Computed once per sweep — convergence flags only
      // move in the apply phase below.
      std::size_t needed = 0;
      for (std::size_t bj = 0; bj < blocks; ++bj) {
        std::uint8_t flag = 0;
        for (const Member& m : members) {
          if (!m.converged && m.dirty.dirty(bj)) {
            flag = 1;
            break;
          }
        }
        need[bj] = flag;
        needed += flag;
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
        const auto panel_id = static_cast<std::int64_t>(bi * blocks + bj);

        if (active_schedule && !need[bj]) {
          // ---- skipped shared visit: every live member's bj block is
          //      clean, so each replays its cached readback.
          ++panels_skipped;
          ledger.skip(static_cast<std::uint64_t>(p));
          for (Member& m : members) {
            if (m.converged) continue;
            ledger.skip(3);
            const Word* const cm = &m.cache_min[(bi * blocks + bj) * p];
            const Word* const ca = &m.cache_arg[(bi * blocks + bj) * p];
            for (std::size_t r = 0; r < bh; ++r) {
              if (cm[r] < m.carry_min[r]) {
                m.carry_min[r] = cm[r];
                m.carry_arg[r] = ca[r];
              }
            }
          }
          continue;
        }
        ++panels_visited;

        // ---- shared panel load: the W panel rides ONE PanelIo charge
        //      for the whole batch, double-buffered against the previous
        //      visited panel's relax phase under the active schedule.
        auto load_span =
            std::make_optional(obs::open_span(observer, "panel_load", &machine, panel_id));
        const Pint Wp(ctx, panels[bi * blocks + bj]);
        ledger.load(static_cast<std::uint64_t>(p));
        load_span.reset();

        PPA_SPAN(observer, "panel_relax", &machine, panel_id);
        ledger.relax_begin();
        for (Member& m : members) {
          if (m.converged) continue;
          if (active_schedule && !m.dirty.dirty(bj)) {
            // ---- member replay: this member's bj block is clean; its
            //      cached partial is exact, so the fragment and compute
            //      are skipped and the fold order stays identical.
            ledger.skip(3);
            const Word* const cm = &m.cache_min[(bi * blocks + bj) * p];
            const Word* const ca = &m.cache_arg[(bi * blocks + bj) * p];
            for (std::size_t r = 0; r < bh; ++r) {
              if (cm[r] < m.carry_min[r]) {
                m.carry_min[r] = cm[r];
                m.carry_arg[r] = ca[r];
              }
            }
            continue;
          }
          // ---- member fragment: 1 PanelIo row.
          for (std::size_t c = 0; c < p; ++c) {
            const std::size_t gj = base_c + c;
            sow_cells[c] = gj < n ? m.sow[gj] : inf;
          }
          Pint SOWP(ctx, sow_cells);
          machine.charge_panel_io(1);

          // ---- candidates: the shared relax core, per member.
          ppc::where(ctx, not_carrier, [&] {
            detail::panel_candidates(Wp, carrier, options.broadcast_scheme, SOWP);
          });
          ppc::where(ctx, carrier, [&] { SOWP = SOWP + Wp; });

          // ---- fused min/argmin elimination with host readback. The
          // controller reads each round's per-row OR line off column 0
          // (the row cluster spans the whole row, so any column works):
          // a round with no surviving 0 pins that result bit to 1.
          std::fill(minv.begin(), minv.begin() + static_cast<std::ptrdiff_t>(bh), Word{0});
          std::fill(argv.begin(), argv.begin() + static_cast<std::ptrdiff_t>(bh), Word{0});
          Pbool enable(ctx, true);
          for (int j = h - 1; j >= 0; --j) {
            const Pbool probe = enable & !SOWP.bit(j);
            const Pbool some = ppc::bus_or(probe, Direction::West, row_end);
            some.read_column(0, or_line);
            for (std::size_t r = 0; r < bh; ++r) {
              minv[r] |= static_cast<Word>(or_line[r] ^ 1u) << j;
            }
            ppc::where(ctx, some, [&] { enable = probe; });
          }
          for (int j = idx_bits - 1; j >= 0; --j) {
            const Pbool probe = enable & !index_bits[bj][static_cast<std::size_t>(
                                             idx_bits - 1 - j)];
            const Pbool some = ppc::bus_or(probe, Direction::West, row_end);
            some.read_column(0, or_line);
            for (std::size_t r = 0; r < bh; ++r) {
              argv[r] |= static_cast<Word>(or_line[r] ^ 1u) << j;
            }
            ppc::where(ctx, some, [&] { enable = probe; });
          }
          // ---- member readback: min + argmin columns, 2 PanelIo rows.
          machine.charge_panel_io(2);
          if (active_schedule) {
            std::copy(minv.begin(), minv.begin() + static_cast<std::ptrdiff_t>(bh),
                      m.cache_min.begin() + static_cast<std::ptrdiff_t>((bi * blocks + bj) * p));
            std::copy(argv.begin(), argv.begin() + static_cast<std::ptrdiff_t>(bh),
                      m.cache_arg.begin() + static_cast<std::ptrdiff_t>((bi * blocks + bj) * p));
          }
          for (std::size_t r = 0; r < bh; ++r) {
            if (minv[r] < m.carry_min[r]) {
              m.carry_min[r] = minv[r];
              m.carry_arg[r] = argv[r];
            }
          }
        }
        ledger.relax_end();
      }
      for (Member& m : members) {
        if (m.converged) continue;
        for (std::size_t r = 0; r < bh; ++r) {
          m.next_min[base_r + r] = m.carry_min[r];
          m.next_arg[base_r + r] = m.carry_arg[r];
        }
      }
    }

    // Apply the buffered row-d updates (Jacobi order, like the array);
    // each member's convergence test is its own.
    for (Member& m : members) {
      if (m.converged) continue;
      std::size_t changed = 0;
      // Per-row-block change counts, like the tiled driver: each member's
      // sparsity signal is its own (vertex i lives in block i/p).
      std::vector<std::uint64_t> panel_changes(
          observer != nullptr || active_schedule ? blocks : 0, 0);
      for (std::size_t i = 0; i < n; ++i) {
        if (i == m.destination) continue;  // pinned at 0
        if (m.next_min[i] != m.sow[i]) {
          m.sow[i] = m.next_min[i];
          m.ptn[i] = static_cast<graph::Vertex>(m.next_arg[i]);
          ++changed;
          if (!panel_changes.empty()) ++panel_changes[i / p];
        }
      }
      if (active_schedule) m.dirty.update(panel_changes);
      ++m.iterations;
      if (options.record_iterations) {
        m.trace.push_back(IterationRecord{changed, machine.steps().since(before_iteration)});
      }
      if (observer != nullptr) {
        observer->record_iteration(static_cast<std::int64_t>(m.destination),
                                   m.iterations, changed, std::move(panel_changes));
      }
      if (changed == 0) {
        m.converged = true;
        --active;
      }
    }
    ++sweeps;
  }
  relax_span.reset();

  // ------------------------------------------------------------------
  // Finalization. The machine's checked-execution delta is harvested
  // ONCE — the events are genuinely shared by every member that rode the
  // pass — then each member settles its own outcome with the same
  // precedence as detail::finalize_result (non-convergence, certificate,
  // machine diagnostics). NonConvergence diagnoses carry the destination
  // in their coordinates and stay with their own member.
  // ------------------------------------------------------------------
  const sim::StepCounter total = machine.steps().since(at_entry);
  const sim::StepCounter init_delta = after_init.since(at_entry);
  const std::vector<sim::FaultEvent>& log = machine.fault_events();
  std::vector<sim::FaultEvent> shared_events(log.begin() + static_cast<std::ptrdiff_t>(
                                                 faults_at_entry),
                                             log.end());
  const bool machine_faulted = machine.fault_count() > faults_at_entry;
  // Masking counters, like steps, are genuinely shared by the whole group:
  // each member Result carries the group delta, the observer counts the
  // group ONCE (all_pairs merges per-group collectors, not per-member).
  const sim::MaskingStats masking_delta = machine.masking_stats().since(masking_at_entry);

  if (observer != nullptr) {
    observer->metrics().counter(obs::metric::kSolverPanels).add(panels_visited);
    if (active_schedule) {
      obs::MetricsRegistry& metrics = observer->metrics();
      metrics.counter(obs::metric::kSolverPanelsSkipped).add(panels_skipped);
      metrics.counter(obs::metric::kSolverActiveBlocks).add(active_blocks_total);
      metrics.counter(obs::metric::kSolverPanelIoSaved).add(ledger.saved());
    }
    if (masking_delta.votes != 0) {
      obs::MetricsRegistry& metrics = observer->metrics();
      metrics.counter(obs::metric::kMaskVotes).add(masking_delta.votes);
      metrics.counter(obs::metric::kMaskCorrections).add(masking_delta.corrections);
      metrics.counter(obs::metric::kMaskUncorrectable).add(masking_delta.uncorrectable);
    }
  }
  detail::record_plan_cache_delta(machine, plans_at_entry, observer);
  detail::record_throughput_delta(machine, throughput_at_entry, observer);

  std::vector<Result> results;
  results.reserve(b);
  for (Member& m : members) {
    Result result;
    result.solution.destination = m.destination;
    result.solution.cost = std::move(m.sow);
    result.solution.next = std::move(m.ptn);
    result.iterations = m.iterations;
    result.iteration_trace = std::move(m.trace);
    // Steps are shared by construction: every member reports the whole
    // group's delta (docs/batching.md; all_pairs counts each group once).
    result.init_steps = init_delta;
    result.total_steps = total;
    result.masking = masking_delta;
    for (const sim::FaultEvent& event : shared_events) {
      if (event.kind == sim::FaultEventKind::NonConvergence &&
          event.row != m.destination) {
        continue;
      }
      result.fault_events.push_back(event);
    }
    if (!m.converged) result.outcome = SolveOutcome::NonConverged;

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
                                      sim::StepCategory::Alu, Direction::North,
                                      m.destination, m.destination, 1};
          machine.report_fault(event);
          result.fault_events.push_back(event);
        }
      } else if (machine_faulted) {
        result.outcome = SolveOutcome::HardwareFault;
      } else if (masking_delta.uncorrectable > 0) {
        result.outcome = SolveOutcome::HardwareFault;
      } else if (masking_delta.corrections > 0) {
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
    results.push_back(std::move(result));
  }
  return results;
}

/// One batched attempt on `machine`; converts a ContractError on a faulty
/// machine into per-member HardwareFault results (the batched twin of
/// mcp.cpp's attempt() — a fault can drive the shared pass into states the
/// machine contracts reject, and every member that rode the pass degrades
/// together before retrying alone).
std::vector<Result> batched_attempt(sim::Machine& machine, const graph::WeightMatrix& graph,
                                    const std::vector<graph::Vertex>& destinations,
                                    const Options& options) {
  const std::size_t faults_at_entry = machine.fault_count();
  try {
    return run_batched(machine, graph, destinations, options);
  } catch (const util::ContractError&) {
    if (!machine.has_faults()) throw;
    std::vector<sim::FaultEvent> events;
    const std::vector<sim::FaultEvent>& log = machine.fault_events();
    for (std::size_t i = faults_at_entry; i < log.size(); ++i) {
      events.push_back(log[i]);
    }
    if (events.empty()) {
      events.push_back(sim::FaultEvent{sim::FaultEventKind::UndrivenRead,
                                       sim::StepCategory::Alu, Direction::North, 0, 0, 1});
    }
    std::vector<Result> results;
    results.reserve(destinations.size());
    for (const graph::Vertex d : destinations) {
      Result result;
      result.outcome = SolveOutcome::HardwareFault;
      result.solution.destination = d;
      result.solution.cost.assign(graph.size(), graph.infinity());
      result.solution.next.assign(graph.size(), d);
      result.fault_events = events;
      results.push_back(std::move(result));
    }
    return results;
  }
}

}  // namespace

std::vector<Result> solve_batch_on(sim::Machine& machine,
                                   std::unique_ptr<sim::Machine>& oracle,
                                   const graph::WeightMatrix& graph,
                                   const std::vector<graph::Vertex>& destinations,
                                   const Options& options) {
  std::vector<Result> out;
  out.reserve(destinations.size());
  const std::size_t width = options.batch_width;

  for (std::size_t start = 0; start < destinations.size();) {
    const std::size_t stop =
        width <= 1 ? start + 1 : std::min(start + width, destinations.size());
    if (stop - start == 1) {
      // Degenerate group: the per-destination engine IS the batch.
      out.push_back(solve_with_recovery(machine, oracle, graph, destinations[start],
                                        options));
      start = stop;
      continue;
    }
    const std::vector<graph::Vertex> group(destinations.begin() +
                                               static_cast<std::ptrdiff_t>(start),
                                           destinations.begin() +
                                               static_cast<std::ptrdiff_t>(stop));
    std::vector<Result> group_results = batched_attempt(machine, graph, group, options);

    // Per-member recovery: a failed member retries ALONE on the shared
    // fault-free word-backend oracle — the rest of the batch keeps its
    // first-pass rows untouched. Same geometry and bookkeeping as
    // solve_with_recovery.
    for (std::size_t gi = 0; gi < group_results.size(); ++gi) {
      Result result = std::move(group_results[gi]);
      const graph::Vertex d = group[gi];
      std::vector<sim::FaultEvent> events = std::move(result.fault_events);
      sim::StepCounter spent = result.total_steps;
      sim::MaskingStats masked = result.masking;
      std::size_t attempts = 1;
      while (retry_allowed(options.recovery) && retriable(result.outcome) &&
             attempts <= options.max_retries) {
        if (!oracle) {
          sim::MachineConfig config;
          config.n = machine.config().n;
          config.bits = graph.field().bits();
          config.topology = machine.config().topology;
          config.backend = sim::ExecBackend::Words;  // the fault-free oracle
          oracle = std::make_unique<sim::Machine>(config);
        }
        if (options.observer != nullptr) {
          options.observer->metrics().counter(obs::metric::kSolverRetries).add(1);
        }
        PPA_SPAN(options.observer, "retry", oracle.get(),
                 static_cast<std::int64_t>(attempts));
        result = run_minimum_cost_path(*oracle, graph, d, options);
        ++attempts;
        events.insert(events.end(), result.fault_events.begin(),
                      result.fault_events.end());
        spent.merge(result.total_steps);
        masked.merge(result.masking);
      }
      if (attempts > 1 && result.outcome == SolveOutcome::Verified &&
          options.observer != nullptr) {
        options.observer->metrics().counter(obs::metric::kSolverRecoveredRows).add(1);
      }
      result.fault_events = std::move(events);
      result.total_steps = spent;
      result.attempts = attempts;
      result.masking = masked;
      out.push_back(std::move(result));
    }
    start = stop;
  }
  return out;
}

std::vector<Result> solve_batch(const graph::WeightMatrix& graph,
                                const std::vector<graph::Vertex>& destinations,
                                const Options& options) {
  if (destinations.empty()) return {};
  sim::MachineConfig config;
  config.n = effective_array_side(options, graph.size());
  config.bits = graph.field().bits();
  config.backend = options.backend;
  config.checked = options.checked || !options.faults.empty();
  config.masking = masking_of(options.recovery);
  sim::Machine machine(config);
  if (!options.faults.empty()) machine.inject_faults(options.faults);
  std::unique_ptr<sim::Machine> oracle;
  return solve_batch_on(machine, oracle, graph, destinations, options);
}

}  // namespace ppa::mcp
