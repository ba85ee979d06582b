// The virtualized (tiled) PPA against the full-array oracle: for every
// (n, p) with p < n the tiled sweep must produce bit-identical solutions,
// iteration counts, outcomes and certificate verdicts on BOTH execution
// backends — the full array is the oracle, and the word/bit-plane pair
// must also agree with each other step counter for step counter. The
// virtualization overhead is pinned separately: panel reloads appear as
// the distinct PanelIo step category and nowhere else.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include "graph/generators.hpp"
#include "mcp/allpairs.hpp"
#include "mcp/batch.hpp"
#include "mcp/mcp.hpp"
#include "mcp/tiled.hpp"
#include "obs/collector.hpp"
#include "obs/export.hpp"
#include "panel_store_cases.hpp"
#include "sim/step_counter.hpp"
#include "test_util.hpp"
#include "util/rng.hpp"

namespace ppa {
namespace {

using sim::StepCategory;
using sim::Word;

std::size_t ceil_div(std::size_t a, std::size_t b) { return (a + b - 1) / b; }

/// Solves with array_side = p on both backends and asserts full observable
/// equality with the full-array run (and between the tiled backends).
/// The default options ride the active-panel schedule; a third tiled run
/// with active_panels = false pins the exact dense PanelIo formula, and
/// the active run's ledger must close against it (charged + saved ==
/// formula — docs/tiling.md "Active panels").
void expect_tiled_matches_full(const graph::WeightMatrix& g, graph::Vertex destination,
                               mcp::Options options, std::size_t p,
                               const std::string& label) {
  options.array_side = 0;
  options.backend = sim::ExecBackend::Words;
  const mcp::Result full = mcp::solve(g, destination, options);
  ASSERT_EQ(full.total_steps.count(StepCategory::PanelIo), 0u)
      << label << ": the full-array path must not charge panel I/O";

  options.array_side = p;
  obs::Collector ledger_metrics;
  obs::Collector* const caller_observer = options.observer;
  options.observer = &ledger_metrics;
  const mcp::Result word = mcp::solve(g, destination, options);
  options.observer = caller_observer;
  options.backend = sim::ExecBackend::BitPlane;
  const mcp::Result plane = mcp::solve(g, destination, options);

  for (const mcp::Result* tiled : {&word, &plane}) {
    ASSERT_EQ(tiled->solution.cost, full.solution.cost) << label;
    ASSERT_EQ(tiled->solution.next, full.solution.next) << label;
    ASSERT_EQ(tiled->solution.destination, full.solution.destination) << label;
    ASSERT_EQ(tiled->iterations, full.iterations) << label;
    ASSERT_EQ(tiled->outcome, full.outcome) << label;
    ASSERT_EQ(tiled->verify_detail, full.verify_detail) << label;
  }
  ASSERT_TRUE(word.total_steps == plane.total_steps)
      << label << ": tiled step counters diverged across backends (word "
      << word.total_steps.summary() << " vs bitplane " << plane.total_steps.summary()
      << ")";
  ASSERT_TRUE(word.init_steps == plane.init_steps) << label;

  // Panel-reload cost is attributed to its own category: p + 1 I/O rows
  // per panel load (weight panel + SOW fragment) and 2 column readbacks,
  // for every panel of every iteration — charged in full by the dense
  // schedule, and an upper bound under the active one.
  const std::size_t blocks = ceil_div(g.size(), p);
  const std::uint64_t per_panel = static_cast<std::uint64_t>(p) + 3;
  const std::uint64_t formula =
      static_cast<std::uint64_t>(word.iterations) * blocks * blocks * per_panel;

  mcp::Options dense = options;
  dense.backend = sim::ExecBackend::Words;
  dense.observer = caller_observer;
  dense.active_panels = false;
  const mcp::Result off = mcp::solve(g, destination, dense);
  ASSERT_EQ(off.solution.cost, full.solution.cost) << label;
  ASSERT_EQ(off.solution.next, full.solution.next) << label;
  ASSERT_EQ(off.iterations, full.iterations) << label;
  ASSERT_EQ(off.total_steps.count(StepCategory::PanelIo), formula) << label;

  if (options.active_panels) {
    const std::uint64_t charged = word.total_steps.count(StepCategory::PanelIo);
    const std::uint64_t saved =
        ledger_metrics.metrics().counter(obs::metric::kSolverPanelIoSaved).value();
    const std::uint64_t visited =
        ledger_metrics.metrics().counter(obs::metric::kSolverPanels).value();
    const std::uint64_t skipped =
        ledger_metrics.metrics().counter(obs::metric::kSolverPanelsSkipped).value();
    ASSERT_LE(charged, formula) << label;
    ASSERT_EQ(charged + saved, formula)
        << label << ": the active ledger must close against the dense formula";
    ASSERT_EQ(visited + skipped,
              static_cast<std::uint64_t>(word.iterations) * blocks * blocks)
        << label;
  } else {
    ASSERT_EQ(word.total_steps.count(StepCategory::PanelIo), formula) << label;
  }

  // Anchor the oracle itself to ground truth.
  test::expect_solves(g, full.solution, label + " (full-array oracle)");
}

TEST(McpTiled, RandomGraphsAcrossGeometries) {
  // n up to 4x the physical side, divisible and non-divisible splits,
  // p = 1 (fully serialized) through p = n - 1 (one row/column of
  // padding), across field widths and densities.
  struct Case {
    std::size_t n;
    std::size_t p;
    int bits;
    double density;
    std::uint64_t seed;
  };
  const Case cases[] = {
      {2, 1, 8, 0.9, 1},    {5, 2, 8, 0.5, 2},    {8, 2, 8, 0.4, 3},
      {12, 3, 10, 0.3, 4},  {13, 4, 16, 0.25, 5}, {16, 4, 8, 0.3, 6},
      {9, 8, 8, 0.4, 7},    {17, 16, 8, 0.15, 8}, {20, 5, 12, 0.2, 9},
      {21, 6, 8, 0.15, 10}, {24, 6, 6, 0.2, 11},  {11, 1, 8, 0.5, 12},
  };
  for (const Case& c : cases) {
    util::Rng rng(c.seed);
    const Word hi = std::max<Word>(1, std::min<Word>(30, (1u << c.bits) - 2));
    const auto g = graph::random_digraph(c.n, c.bits, c.density, {1, hi}, rng);
    const graph::Vertex dest = c.n > 1 ? static_cast<graph::Vertex>(rng.below(c.n)) : 0;
    std::ostringstream label;
    label << "random n=" << c.n << " p=" << c.p << " bits=" << c.bits
          << " density=" << c.density << " seed=" << c.seed << " dest=" << dest;
    expect_tiled_matches_full(g, dest, {}, c.p, label.str());
  }
}

TEST(McpTiled, MultiWordRowGeometries) {
  // p > 64 packs each machine row into 2 or 3 plane words, so the sweep
  // reads its OR lines and runs its row buses across word boundaries.
  // Ragged last blocks (130 = 2 x 65 exactly; 200 = 2 x 96 + 8;
  // 140 = 130 + 10) keep infinity padding in play.
  struct Case {
    std::size_t n;
    std::size_t p;
    double density;
    std::uint64_t seed;
  };
  const Case cases[] = {{130, 65, 0.04, 41}, {200, 96, 0.03, 42}, {140, 130, 0.04, 43}};
  for (const Case& c : cases) {
    util::Rng rng(c.seed);
    const auto g = graph::random_digraph(c.n, 12, c.density, {1, 60}, rng);
    const auto dest = static_cast<graph::Vertex>(rng.below(c.n));
    std::ostringstream label;
    label << "multi-word n=" << c.n << " p=" << c.p << " dest=" << dest;
    expect_tiled_matches_full(g, dest, {}, c.p, label.str());
  }
}

TEST(McpTiled, StructuredFamiliesWithVerification) {
  // The host certificate checker is array-agnostic: verdicts must match
  // the full array bit for bit, on structured workloads where paths are
  // long (ring: the MCP has n - 1 edges, so every iteration improves
  // something and every panel sweep matters).
  util::Rng rng(77);
  const graph::WeightRange range{1, 20};
  mcp::Options options;
  options.verify = true;

  const auto ring = graph::directed_ring(14, 8, range, rng);
  expect_tiled_matches_full(ring, 5, options, 4, "ring n=14 p=4");
  const auto grid = graph::grid_mesh(4, 4, 8, range, rng);
  expect_tiled_matches_full(grid, 12, options, 3, "grid 4x4 p=3");
  const auto reachable = graph::random_reachable_digraph(26, 16, 0.08, {1, 30}, 0, rng);
  expect_tiled_matches_full(reachable, 0, options, 7, "reachable n=26 p=7");
  const auto sparse = graph::random_digraph(18, 8, 0.04, {1, 25}, rng);
  expect_tiled_matches_full(sparse, 9, options, 5, "sparse n=18 p=5");
}

TEST(McpTiled, AlgorithmVariantsAndIterationTrace) {
  // Both broadcast schemes ride through the tiled core; the min variant
  // only selects the full-array reference's reduction (the sweep always
  // runs its fused elimination), so every variant must still agree. The
  // per-iteration changed counts must match the full array's exactly
  // (same Jacobi order), whatever the panel schedule.
  util::Rng rng(31);
  const auto g = graph::random_reachable_digraph(15, 8, 0.2, {1, 25}, 2, rng);
  for (const auto variant : {mcp::MinVariant::Paper, mcp::MinVariant::OrProbe}) {
    for (const auto scheme :
         {mcp::BroadcastScheme::SingleRing, mcp::BroadcastScheme::TwoSidedLinear}) {
      mcp::Options options;
      options.min_variant = variant;
      options.broadcast_scheme = scheme;
      options.record_iterations = true;
      std::ostringstream label;
      label << "variant=" << (variant == mcp::MinVariant::Paper ? "paper" : "orprobe")
            << " scheme="
            << (scheme == mcp::BroadcastScheme::SingleRing ? "ring" : "two-sided");
      expect_tiled_matches_full(g, 2, options, 4, label.str());

      options.array_side = 4;
      options.backend = sim::ExecBackend::Words;
      const mcp::Result tiled = mcp::solve(g, 2, options);
      options.array_side = 0;
      const mcp::Result full = mcp::solve(g, 2, options);
      ASSERT_EQ(tiled.iteration_trace.size(), full.iteration_trace.size()) << label.str();
      for (std::size_t k = 0; k < full.iteration_trace.size(); ++k) {
        EXPECT_EQ(tiled.iteration_trace[k].changed, full.iteration_trace[k].changed)
            << label.str() << " iteration " << k;
      }
    }
  }
}

TEST(McpTiled, TieHeavyArgminMatchesFullArrayForEverySide) {
  // The sweep's argmin runs over panel-LOCAL column indices and the host
  // adds the panel base; the smallest global next hop must survive that
  // on a graph built for ties: uniform weights (many equal-cost routes),
  // vertices with no way out (rows at infinity in every panel) and sides
  // that leave a ragged last block — including p = 1, where a panel has
  // no index bits at all.
  constexpr std::size_t n = 17;
  graph::WeightMatrix g(n, 8);
  for (graph::Vertex i = 0; i < n - 3; ++i) {
    for (graph::Vertex j = 0; j < n; ++j) {
      if (i != j && (i + 2 * j) % 3 != 0) g.set(i, j, 2);
    }
  }
  // Vertices 14..16 have no outgoing edges: every row they own in any
  // panel holds only infinity candidates (and the diagonal's 0 + inf).
  const std::vector<graph::Vertex> dests = {0, 5, 16};

  for (const std::size_t p : {1u, 2u, 3u, 5u, 7u, 16u}) {
    for (const bool active : {true, false}) {
      for (const auto backend : {sim::ExecBackend::Words, sim::ExecBackend::BitPlane}) {
        std::ostringstream label;
        label << "p=" << p << (active ? " active" : " dense")
              << (backend == sim::ExecBackend::BitPlane ? " bitplane" : " word");
        mcp::Options options;
        options.backend = backend;
        options.active_panels = active;
        options.verify = true;
        options.array_side = p;
        options.batch_width = dests.size();
        const std::vector<mcp::Result> batched = mcp::solve_batch(g, dests, options);
        ASSERT_EQ(batched.size(), dests.size()) << label.str();
        for (std::size_t m = 0; m < dests.size(); ++m) {
          mcp::Options full_options;
          full_options.verify = true;
          const mcp::Result full = mcp::solve(g, dests[m], full_options);
          const mcp::Result tiled = mcp::solve(g, dests[m], options);
          const std::string at = label.str() + " dest=" + std::to_string(dests[m]);
          EXPECT_EQ(full.outcome, mcp::SolveOutcome::Verified) << at;
          EXPECT_EQ(tiled.solution.next, full.solution.next) << at << " tiled";
          EXPECT_EQ(tiled.solution.cost, full.solution.cost) << at << " tiled";
          EXPECT_EQ(tiled.outcome, full.outcome) << at << " tiled";
          EXPECT_EQ(batched[m].solution.next, full.solution.next) << at << " batched";
          EXPECT_EQ(batched[m].solution.cost, full.solution.cost) << at << " batched";
          EXPECT_EQ(batched[m].outcome, full.outcome) << at << " batched";
        }
      }
    }
  }
}

TEST(McpTiled, SolveFromRidesTheTiledPath) {
  // solve_from runs solve() on the transposed matrix, so array_side must
  // ride through unchanged.
  util::Rng rng(55);
  const auto g = graph::random_reachable_digraph(13, 8, 0.3, {1, 20}, 4, rng);
  mcp::Options options;
  const auto full = mcp::solve_from(g, 4, options);
  options.array_side = 4;
  const auto tiled = mcp::solve_from(g, 4, options);
  EXPECT_EQ(tiled.cost, full.cost);
  EXPECT_EQ(tiled.prev, full.prev);
  EXPECT_EQ(tiled.iterations, full.iterations);
  EXPECT_GT(tiled.total_steps.count(StepCategory::PanelIo), 0u);
}

TEST(McpTiled, AllPairsHonorsArraySide) {
  // Every destination through the tiled sweep, sequential and threaded:
  // distances, pointers, outcomes and step totals identical to the
  // full-array batch except for the added PanelIo attribution.
  util::Rng rng(91);
  const auto g = graph::random_digraph(11, 8, 0.3, {1, 20}, rng);
  mcp::AllPairsOptions options;
  options.mcp.verify = true;
  const auto full = mcp::all_pairs(g, options);
  options.mcp.array_side = 3;
  const auto tiled = mcp::all_pairs(g, options);
  options.workers = 4;
  const auto threaded = mcp::all_pairs(g, options);

  EXPECT_EQ(tiled.dist, full.dist);
  EXPECT_EQ(tiled.next, full.next);
  EXPECT_EQ(tiled.outcomes, full.outcomes);
  EXPECT_EQ(tiled.diameter, full.diameter);
  EXPECT_EQ(tiled.total_iterations, full.total_iterations);
  EXPECT_GT(tiled.total_steps.count(StepCategory::PanelIo), 0u);

  EXPECT_EQ(threaded.dist, tiled.dist);
  EXPECT_EQ(threaded.next, tiled.next);
  EXPECT_EQ(threaded.outcomes, tiled.outcomes);
  EXPECT_TRUE(threaded.total_steps == tiled.total_steps)
      << "worker count changed tiled step totals";
}

TEST(McpTiled, ArraySideClampAndDispatch) {
  // array_side >= n clamps to the full-array path: no panel I/O charged,
  // results identical to array_side = 0.
  util::Rng rng(13);
  const auto g = graph::random_digraph(9, 8, 0.4, {1, 20}, rng);
  mcp::Options options;
  const auto full = mcp::solve(g, 1, options);
  options.array_side = 64;
  const auto clamped = mcp::solve(g, 1, options);
  EXPECT_EQ(clamped.solution.cost, full.solution.cost);
  EXPECT_EQ(clamped.solution.next, full.solution.next);
  EXPECT_EQ(clamped.total_steps.count(StepCategory::PanelIo), 0u);
  EXPECT_TRUE(clamped.total_steps == full.total_steps);

  EXPECT_EQ(mcp::effective_array_side({}, 9), 9u);
  mcp::Options sided;
  sided.array_side = 4;
  EXPECT_EQ(mcp::effective_array_side(sided, 9), 4u);
  sided.array_side = 100;
  EXPECT_EQ(mcp::effective_array_side(sided, 9), 9u);
}

TEST(McpTiled, PanelsCounterAndSpansSurfaceInMetrics) {
  // The observer sees the tiled phases: solver.panels counts the VISITED
  // panels, solver.panels_skipped the rest (the two always sum to
  // iterations x ceil(n/p)^2), panel_load / panel_relax spans exist for
  // exactly the visited panels, and the steps.panel_io counter lands in
  // the exported ppa.metrics.v1 document.
  util::Rng rng(23);
  const auto g = graph::random_reachable_digraph(10, 8, 0.3, {1, 20}, 0, rng);
  obs::Collector collector;
  mcp::Options options;
  options.array_side = 4;
  options.observer = &collector;
  const auto r = mcp::solve(g, 0, options);

  const std::size_t blocks = ceil_div(g.size(), 4);
  const std::uint64_t all_panels =
      static_cast<std::uint64_t>(r.iterations) * blocks * blocks;
  const std::uint64_t visited =
      collector.metrics().counter(obs::metric::kSolverPanels).value();
  const std::uint64_t skipped =
      collector.metrics().counter(obs::metric::kSolverPanelsSkipped).value();
  EXPECT_EQ(visited + skipped, all_panels);
  EXPECT_GT(collector.metrics().counter(obs::metric::kSolverActiveBlocks).value(), 0u);
  EXPECT_EQ(collector.metrics().counter(std::string(obs::metric::kStepPrefix) + "panel_io")
                .value(),
            r.total_steps.count(StepCategory::PanelIo));

  std::size_t loads = 0, relaxes = 0;
  for (const obs::SpanRecord& span : collector.spans()) {
    if (span.name == "panel_load") ++loads;
    if (span.name == "panel_relax") ++relaxes;
  }
  EXPECT_EQ(loads, visited);
  EXPECT_EQ(relaxes, visited);

  // The dense schedule restores the every-panel span stream.
  obs::Collector dense_collector;
  mcp::Options dense = options;
  dense.observer = &dense_collector;
  dense.active_panels = false;
  const auto dense_run = mcp::solve(g, 0, dense);
  EXPECT_EQ(dense_collector.metrics().counter(obs::metric::kSolverPanels).value(),
            all_panels);
  EXPECT_EQ(dense_collector.metrics().counter(obs::metric::kSolverPanelsSkipped).value(),
            0u);
  EXPECT_EQ(dense_run.solution.cost, r.solution.cost);

  obs::RunInfo run;
  run.workload = "mcp";
  run.backend = "word";
  run.n = g.size();
  run.simd_steps = r.total_steps.total();
  std::ostringstream json;
  obs::write_metrics_json(json, collector, run);
  EXPECT_NE(json.str().find("solver.panels"), std::string::npos);
  EXPECT_NE(json.str().find("solver.panels_skipped"), std::string::npos);
  EXPECT_NE(json.str().find("solver.panel_io_saved"), std::string::npos);
  EXPECT_NE(json.str().find("steps.panel_io"), std::string::npos);

  // Observation is free on the tiled path too.
  mcp::Options plain;
  plain.array_side = 4;
  const auto unobserved = mcp::solve(g, 0, plain);
  EXPECT_EQ(unobserved.solution.cost, r.solution.cost);
  EXPECT_TRUE(unobserved.total_steps == r.total_steps);
}

TEST(McpTiled, PackedPanelsNeverServeStaleContent) {
  // Sides 5 and 4 clip the last panel row and column differently (12 =
  // 2*5 + 2 = 3*4), so the two keys' panels differ in shape as well.
  for (const sim::ExecBackend backend : {sim::ExecBackend::Words, sim::ExecBackend::BitPlane}) {
    SCOPED_TRACE(backend == sim::ExecBackend::Words ? "words" : "bitplane");
    test::expect_no_stale_panels(backend, 5, 4);
  }
}

TEST(McpTiled, AdoptedPanelsRunExactlyLikePackedOnes) {
  for (const sim::ExecBackend backend : {sim::ExecBackend::Words, sim::ExecBackend::BitPlane}) {
    SCOPED_TRACE(backend == sim::ExecBackend::Words ? "words" : "bitplane");
    test::expect_hit_matches_miss(backend, 5);
  }
}

TEST(McpTiled, NonConvergenceReportedLikeFullArray) {
  // A caller-supplied cap below the true path length: same NonConverged
  // outcome and synthesized fault event as the full array.
  util::Rng rng(67);
  const auto ring = graph::directed_ring(12, 8, {1, 5}, rng);
  mcp::Options options;
  options.max_iterations = 2;
  options.array_side = 0;
  const auto full = mcp::solve(ring, 0, options);
  options.array_side = 5;
  const auto tiled = mcp::solve(ring, 0, options);
  ASSERT_EQ(full.outcome, mcp::SolveOutcome::NonConverged);
  EXPECT_EQ(tiled.outcome, full.outcome);
  EXPECT_EQ(tiled.iterations, full.iterations);
  ASSERT_EQ(tiled.fault_events.size(), 1u);
  EXPECT_EQ(tiled.fault_events[0].kind, sim::FaultEventKind::NonConvergence);
}

}  // namespace
}  // namespace ppa
