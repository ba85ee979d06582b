// Every entry point honours every Options field the same way. One row per
// Options field: under that row's options, solve, solve_batch, all_pairs
// and solve_eccentricity().mcp must report the same row (costs and next
// hops), outcome, attempts and iteration count for every destination, and
// the row's own check shows the field took effect at all. The closure
// entry points are held to the machine-level settings ClosureOptions
// carries (backend, array side, active panels).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "graph/generators.hpp"
#include "mcp/allpairs.hpp"
#include "mcp/batch.hpp"
#include "mcp/closure.hpp"
#include "mcp/mcp.hpp"
#include "obs/collector.hpp"
#include "sim/fault_model.hpp"
#include "util/rng.hpp"

namespace ppa::mcp {
namespace {

using sim::StepCategory;

constexpr std::size_t kN = 12;
constexpr int kBits = 8;

graph::WeightMatrix entry_graph() {
  util::Rng rng(2024);
  return graph::random_reachable_digraph(kN, kBits, 0.25, {1, 20}, 0, rng);
}

/// A persistent stuck wire on row bus 3: bit 2 of every value that row's
/// bus delivers reads 1. Checked execution does not see it, so without
/// verification it corrupts rows silently — the same way on every entry
/// point that builds its machine from Options.
sim::FaultModel stuck_row_wire() {
  return sim::FaultModel::parse("stuck-bit:row,3,2,1", kN, kBits);
}

/// What one entry point reported for each destination.
struct Report {
  std::vector<graph::McpSolution> rows;
  std::vector<SolveOutcome> outcomes;
  std::vector<std::size_t> attempts;
  std::vector<std::size_t> iterations;
};

Report from_results(const std::vector<Result>& results) {
  Report report;
  for (const Result& r : results) {
    report.rows.push_back(r.solution);
    report.outcomes.push_back(r.outcome);
    report.attempts.push_back(r.attempts);
    report.iterations.push_back(r.iterations);
  }
  return report;
}

struct Row {
  const char* field;
  std::function<void(Options&)> set;
  /// Shows the field took effect, on the per-destination solve() results.
  std::function<void(const std::vector<Result>&)> check;
};

std::vector<graph::Vertex> all_destinations() {
  std::vector<graph::Vertex> dests(kN);
  std::iota(dests.begin(), dests.end(), graph::Vertex{0});
  return dests;
}

std::size_t count_outcome(const std::vector<Result>& runs, SolveOutcome outcome) {
  return static_cast<std::size_t>(std::count_if(
      runs.begin(), runs.end(), [&](const Result& r) { return r.outcome == outcome; }));
}

TEST(EntryOptions, EveryEntryPointHonoursEveryOptionsField) {
  const auto g = entry_graph();
  const std::vector<graph::Vertex> dests = all_destinations();
  obs::Collector observed;  // the observer row's collector

  const std::vector<Row> rows = {
      {"backend", [](Options& o) { o.backend = sim::ExecBackend::BitPlane; },
       [](const std::vector<Result>& runs) {
         EXPECT_EQ(count_outcome(runs, SolveOutcome::Unchecked), kN);
       }},
      {"array_side", [](Options& o) { o.array_side = 5; },
       [](const std::vector<Result>& runs) {
         for (const Result& r : runs) {
           EXPECT_GT(r.total_steps.count(StepCategory::PanelIo), 0u);
         }
       }},
      {"active_panels",
       [](Options& o) {
         o.array_side = 5;
         o.active_panels = false;
       },
       [](const std::vector<Result>& runs) {
         // The dense schedule charges its formula I * blocks^2 * (p + 3).
         for (const Result& r : runs) {
           EXPECT_EQ(r.total_steps.count(StepCategory::PanelIo), r.iterations * 3 * 3 * 8);
         }
       }},
      {"batch_width",
       [](Options& o) {
         o.backend = sim::ExecBackend::BitPlane;
         o.batch_width = 4;
       },
       nullptr},
      {"verify", [](Options& o) { o.verify = true; },
       [](const std::vector<Result>& runs) {
         EXPECT_EQ(count_outcome(runs, SolveOutcome::Verified), kN);
       }},
      {"max_retries",
       [](Options& o) {
         o.faults = stuck_row_wire();
         o.verify = true;
         o.max_retries = 1;
       },
       [](const std::vector<Result>& runs) {
         EXPECT_EQ(count_outcome(runs, SolveOutcome::Verified), kN);
         EXPECT_TRUE(std::any_of(runs.begin(), runs.end(),
                                 [](const Result& r) { return r.attempts == 2; }));
       }},
      {"max_retries (bit-plane oracle)",
       [](Options& o) {
         o.backend = sim::ExecBackend::BitPlane;
         o.faults = stuck_row_wire();
         o.verify = true;
         o.max_retries = 1;
       },
       [&g](const std::vector<Result>& runs) {
         // The retry oracle runs the failed machine's backend: a retried
         // bit-plane row bills bit-plane kernel sweeps (the word backend
         // bills none), so the retry adds simd.sweep.words on top of the
         // first attempt's.
         const auto retried = std::find_if(runs.begin(), runs.end(),
                                           [](const Result& r) { return r.attempts == 2; });
         ASSERT_NE(retried, runs.end());
         const auto sweep_words = [&g, d = retried->solution.destination](std::size_t retries) {
           obs::Collector collector;
           Options o;
           o.backend = sim::ExecBackend::BitPlane;
           o.faults = stuck_row_wire();
           o.verify = true;
           o.max_retries = retries;
           o.observer = &collector;
           (void)solve(g, d, o);
           return collector.metrics().counter(obs::metric::kSweepWords).value();
         };
         EXPECT_GT(sweep_words(1), sweep_words(0));
       }},
      {"checked", [](Options& o) { o.checked = true; },
       [](const std::vector<Result>& runs) {
         for (const Result& r : runs) EXPECT_TRUE(r.fault_events.empty());
       }},
      {"faults", [](Options& o) { o.faults = stuck_row_wire(); },
       [&g](const std::vector<Result>& runs) {
         // Some row must differ from the fault-free answer.
         std::size_t corrupted = 0;
         for (const Result& r : runs) {
           if (r.solution.cost != solve(g, r.solution.destination).solution.cost) ++corrupted;
         }
         EXPECT_GT(corrupted, 0u);
       }},
      {"recovery",
       [](Options& o) {
         o.backend = sim::ExecBackend::BitPlane;
         o.faults = stuck_row_wire();
         o.recovery = RecoveryPolicy::Ecc;
       },
       [](const std::vector<Result>& runs) {
         EXPECT_GT(count_outcome(runs, SolveOutcome::MaskedFaults), 0u);
       }},
      {"min_variant", [](Options& o) { o.min_variant = MinVariant::OrProbe; },
       [&g, &dests](const std::vector<Result>& runs) {
         // Full-array runs change their step profile; the sweep engine
         // (tiled and batched) ignores the variant: same rows, same steps.
         for (const Result& r : runs) {
           EXPECT_FALSE(r.total_steps == solve(g, r.solution.destination).total_steps);
         }
         for (const std::size_t width : {std::size_t{1}, std::size_t{4}}) {
           Options paper;
           paper.array_side = 5;
           paper.batch_width = width;
           Options orprobe = paper;
           orprobe.min_variant = MinVariant::OrProbe;
           const std::vector<Result> a = solve_batch(g, dests, paper);
           const std::vector<Result> b = solve_batch(g, dests, orprobe);
           for (std::size_t d = 0; d < dests.size(); ++d) {
             EXPECT_EQ(a[d].solution.cost, b[d].solution.cost) << "width=" << width;
             EXPECT_EQ(a[d].solution.next, b[d].solution.next) << "width=" << width;
             EXPECT_TRUE(a[d].total_steps == b[d].total_steps) << "width=" << width;
           }
         }
       }},
      {"max_iterations", [](Options& o) { o.max_iterations = 2; },
       [](const std::vector<Result>& runs) {
         EXPECT_GT(count_outcome(runs, SolveOutcome::NonConverged), 0u);
       }},
      {"record_iterations", [](Options& o) { o.record_iterations = true; },
       [](const std::vector<Result>& runs) {
         for (const Result& r : runs) EXPECT_EQ(r.iteration_trace.size(), r.iterations);
       }},
      {"observer", [&observed](Options& o) { o.observer = &observed; },
       [&observed](const std::vector<Result>&) {
         EXPECT_GT(observed.metrics().counter(obs::metric::kSolverRuns).value(), 0u);
       }},
  };

  for (const Row& row : rows) {
    Options options;
    row.set(options);

    std::vector<Result> solved;
    std::vector<Result> eccentricity_runs;
    for (const graph::Vertex d : dests) {
      solved.push_back(solve(g, d, options));
      eccentricity_runs.push_back(solve_eccentricity(g, d, options).mcp);
    }
    const Report reference = from_results(solved);
    const Report batched = from_results(solve_batch(g, dests, options));
    const Report eccentricity = from_results(eccentricity_runs);
    const AllPairsResult all = all_pairs(g, options);

    const auto expect_same = [&](const Report& got, const char* entry) {
      for (const graph::Vertex d : dests) {
        const std::string at = std::string(row.field) + " " + entry + " dest=" +
                               std::to_string(d);
        EXPECT_EQ(got.rows[d].cost, reference.rows[d].cost) << at;
        EXPECT_EQ(got.rows[d].next, reference.rows[d].next) << at;
        EXPECT_EQ(got.outcomes[d], reference.outcomes[d]) << at;
        EXPECT_EQ(got.attempts[d], reference.attempts[d]) << at;
        EXPECT_EQ(got.iterations[d], reference.iterations[d]) << at;
      }
    };
    expect_same(batched, "solve_batch");
    expect_same(eccentricity, "solve_eccentricity");

    std::size_t iteration_sum = 0;
    for (const graph::Vertex d : dests) {
      const std::string at = std::string(row.field) + " all_pairs dest=" + std::to_string(d);
      for (graph::Vertex i = 0; i < kN; ++i) {
        EXPECT_EQ(all.dist_at(i, d), reference.rows[d].cost[i]) << at << " i=" << i;
        EXPECT_EQ(all.next_at(i, d), reference.rows[d].next[i]) << at << " i=" << i;
      }
      EXPECT_EQ(all.outcomes[d], reference.outcomes[d]) << at;
      EXPECT_EQ(all.attempts[d], reference.attempts[d]) << at;
      iteration_sum += reference.iterations[d];
    }
    EXPECT_EQ(all.total_iterations, iteration_sum) << row.field << " all_pairs";

    SCOPED_TRACE(row.field);
    if (row.check) row.check(solved);
  }
}

TEST(EntryOptions, ClosureEntryPointsHonourMachineSettings) {
  const auto g = entry_graph();
  for (const auto backend : {sim::ExecBackend::Words, sim::ExecBackend::BitPlane}) {
    for (const std::size_t side : {std::size_t{0}, std::size_t{5}}) {
      for (const bool active : {true, false}) {
        ClosureOptions options;
        options.backend = backend;
        options.array_side = side;
        options.active_panels = active;
        const std::string label = std::string(backend == sim::ExecBackend::BitPlane
                                                  ? "bitplane"
                                                  : "word") +
                                  " side=" + std::to_string(side) +
                                  (active ? " active" : " dense");

        // The one-shot machine is the one a caller would build from the
        // same settings.
        sim::MachineConfig config;
        config.n = side == 0 ? kN : side;
        config.bits = kBits;
        config.backend = backend;
        sim::Machine machine(config);

        const ClosureResult closure = transitive_closure(g, options);
        std::uint64_t skipped = 0;
        for (graph::Vertex d = 0; d < kN; ++d) {
          const std::string at = label + " dest=" + std::to_string(d);
          const ReachabilityResult one = solve_reachability(g, d, options);
          const ReachabilityResult reference = reachability(machine, g, d, options);
          EXPECT_EQ(one.reachable, reference.reachable) << at;
          EXPECT_EQ(one.iterations, reference.iterations) << at;
          EXPECT_TRUE(one.total_steps == reference.total_steps) << at;
          EXPECT_EQ(one.panels_visited, reference.panels_visited) << at;
          EXPECT_EQ(one.panels_skipped, reference.panels_skipped) << at;
          for (graph::Vertex i = 0; i < kN; ++i) {
            EXPECT_EQ(closure.at(i, d), one.reachable[i]) << at << " i=" << i;
          }
          // array_side: only a virtualized run pays PanelIo.
          EXPECT_EQ(one.total_steps.count(StepCategory::PanelIo) > 0, side != 0) << at;
          skipped += one.panels_skipped;
        }
        // active_panels: only the active tiled schedule skips panels.
        if (side != 0 && active) {
          EXPECT_GT(skipped, 0u) << label;
        } else {
          EXPECT_EQ(skipped, 0u) << label;
        }
        EXPECT_TRUE(closure.total_steps == machine.steps()) << label;
      }
    }
  }
}

}  // namespace
}  // namespace ppa::mcp
