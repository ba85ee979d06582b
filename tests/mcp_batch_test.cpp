// Multi-destination plane batching (mcp/batch.hpp) against the
// per-destination engine: for every generated workload, every batch
// width, both execution backends and both geometries (full array and
// tiled), solve_batch must produce BIT-IDENTICAL rows (SOW costs AND PTN
// pointers), per-destination iteration counts and outcomes to a loop of
// solve() — the per-destination engine is the oracle, and it is itself
// anchored to Dijkstra elsewhere. Only the step PROFILE may differ; its
// amortized PanelIo formula is pinned here too:
//
//   PanelIo = S * blocks^2 * p  +  3 * blocks^2 * sum_m I_m
//
// (S = max member iterations, I_m = member m's iterations: the W panel is
// billed once per panel visit for the whole batch, each active member
// adds 1 fragment row + 2 result columns).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <numeric>
#include <sstream>
#include <string>
#include <vector>

#include "graph/generators.hpp"
#include "mcp/allpairs.hpp"
#include "mcp/batch.hpp"
#include "mcp/mcp.hpp"
#include "mcp/tiled.hpp"
#include "obs/collector.hpp"
#include "test_util.hpp"
#include "util/rng.hpp"

namespace ppa {
namespace {

using sim::StepCategory;
using sim::Word;

std::vector<graph::Vertex> all_destinations(std::size_t n) {
  std::vector<graph::Vertex> dests(n);
  std::iota(dests.begin(), dests.end(), graph::Vertex{0});
  return dests;
}

/// solve_batch vs a solve() loop under identical options: rows, iteration
/// counts and outcomes must match destination for destination.
void expect_batch_matches_sequential(const graph::WeightMatrix& g,
                                     const std::vector<graph::Vertex>& dests,
                                     mcp::Options options, std::size_t batch_width,
                                     const std::string& label) {
  options.batch_width = 1;
  std::vector<mcp::Result> sequential;
  sequential.reserve(dests.size());
  for (const graph::Vertex d : dests) sequential.push_back(mcp::solve(g, d, options));

  options.batch_width = batch_width;
  const std::vector<mcp::Result> batched = mcp::solve_batch(g, dests, options);
  ASSERT_EQ(batched.size(), dests.size()) << label;

  for (std::size_t i = 0; i < dests.size(); ++i) {
    const std::string at = label + " dest=" + std::to_string(dests[i]);
    ASSERT_EQ(batched[i].solution.destination, sequential[i].solution.destination) << at;
    ASSERT_EQ(batched[i].solution.cost, sequential[i].solution.cost) << at;
    ASSERT_EQ(batched[i].solution.next, sequential[i].solution.next) << at;
    ASSERT_EQ(batched[i].iterations, sequential[i].iterations) << at;
    ASSERT_EQ(batched[i].outcome, sequential[i].outcome) << at;
    ASSERT_EQ(batched[i].verify_detail, sequential[i].verify_detail) << at;
  }
}

TEST(McpBatch, DifferentialFuzzAcrossWidthsBackendsAndGeometries) {
  struct Case {
    std::size_t n;
    int bits;
    double density;
    std::size_t array_side;  // 0 = full array
    std::uint64_t seed;
  };
  // Sides straddle the 64-lane plane-word boundary; tiled sides cover
  // even/uneven panel grids with padding blocks.
  const Case cases[] = {
      {2, 4, 0.5, 0, 2},    {3, 8, 0.9, 2, 3},   {7, 6, 0.3, 0, 4},
      {7, 6, 0.3, 3, 5},    {13, 16, 0.2, 5, 6}, {16, 8, 0.08, 0, 7},
      {24, 12, 0.15, 7, 8}, {33, 6, 0.1, 16, 9}, {65, 8, 0.04, 32, 10},
  };
  for (const Case& c : cases) {
    util::Rng rng(c.seed);
    const Word hi = std::max<Word>(1, std::min<Word>(30, (1u << c.bits) - 2));
    const auto g = graph::random_digraph(c.n, c.bits, c.density, {1, hi}, rng);
    // A destination subset (with one duplicate) plus batch widths that
    // leave full, partial and degenerate tail groups.
    std::vector<graph::Vertex> dests = all_destinations(c.n);
    dests.push_back(dests.front());
    for (const std::size_t width : {std::size_t{1}, std::size_t{2}, std::size_t{7}, c.n}) {
      for (const sim::ExecBackend backend :
           {sim::ExecBackend::Words, sim::ExecBackend::BitPlane}) {
        mcp::Options options;
        options.backend = backend;
        options.array_side = c.array_side;
        options.verify = true;
        std::ostringstream label;
        label << "n=" << c.n << " bits=" << c.bits << " density=" << c.density
              << " p=" << c.array_side << " width=" << width
              << " backend=" << (backend == sim::ExecBackend::Words ? "word" : "plane")
              << " seed=" << c.seed;
        expect_batch_matches_sequential(g, dests, options, width, label.str());
      }
    }
  }
}

TEST(McpBatch, BatchedRowsAnchorToDijkstra) {
  util::Rng rng(77);
  const auto g = graph::random_reachable_digraph(21, 10, 0.15, {1, 40}, 4, rng);
  mcp::Options options;
  options.backend = sim::ExecBackend::BitPlane;
  options.batch_width = 6;
  const std::vector<mcp::Result> batched = mcp::solve_batch(g, all_destinations(21), options);
  for (const mcp::Result& r : batched) {
    test::expect_solves(g, r.solution, "batched dest=" + std::to_string(r.solution.destination));
  }
}

TEST(McpBatch, PanelIoFollowsTheAmortizedFormula) {
  // One group of b destinations on a tiled geometry with the dense
  // schedule (active_panels = false): PanelIo must equal
  // S * blocks^2 * p + 3 * blocks^2 * sum(I_m) exactly — the W panel is
  // shared, the per-member traffic is not. Iteration counts come from the
  // sequential oracle, which the differential test above ties to the
  // batched engine. The active schedule charges at most that and its
  // ledger closes against it (rows stay bit-identical either way).
  util::Rng rng(5150);
  const std::size_t n = 19;
  const std::size_t p = 8;
  const auto g = graph::random_digraph(n, 8, 0.25, {1, 25}, rng);
  const std::vector<graph::Vertex> dests = {0, 5, 11, 17};

  mcp::Options options;
  options.backend = sim::ExecBackend::BitPlane;
  options.array_side = p;
  options.active_panels = false;

  std::vector<std::size_t> iters;
  for (const graph::Vertex d : dests) iters.push_back(mcp::solve(g, d, options).iterations);
  const std::size_t sweeps = *std::max_element(iters.begin(), iters.end());
  const std::size_t sum_iters = std::accumulate(iters.begin(), iters.end(), std::size_t{0});
  const std::size_t blocks = (n + p - 1) / p;

  options.batch_width = dests.size();
  const std::vector<mcp::Result> batched = mcp::solve_batch(g, dests, options);
  ASSERT_EQ(batched.size(), dests.size());
  const std::uint64_t expected =
      static_cast<std::uint64_t>(sweeps * blocks * blocks * p + 3 * blocks * blocks * sum_iters);
  // Steps are shared across the group: every member reports the same
  // whole-group counter (docs/batching.md).
  for (const mcp::Result& r : batched) {
    EXPECT_EQ(r.total_steps.count(StepCategory::PanelIo), expected);
    EXPECT_EQ(r.total_steps.count(StepCategory::GlobalOr), 0u)
        << "batched convergence is host-side";
  }

  // Active schedule: identical rows, PanelIo bounded by the dense charge,
  // and the ledger closes the gap exactly.
  obs::Collector collector;
  mcp::Options active = options;
  active.active_panels = true;
  active.observer = &collector;
  const std::vector<mcp::Result> live = mcp::solve_batch(g, dests, active);
  ASSERT_EQ(live.size(), batched.size());
  for (std::size_t i = 0; i < live.size(); ++i) {
    EXPECT_EQ(live[i].solution.cost, batched[i].solution.cost);
    EXPECT_EQ(live[i].solution.next, batched[i].solution.next);
    EXPECT_EQ(live[i].iterations, batched[i].iterations);
  }
  const std::uint64_t charged = live[0].total_steps.count(StepCategory::PanelIo);
  const std::uint64_t saved =
      collector.metrics().counter(obs::metric::kSolverPanelIoSaved).value();
  EXPECT_LE(charged, expected);
  EXPECT_EQ(charged + saved, expected)
      << "the batched active ledger must close against the amortized formula";
}

TEST(McpBatch, WidthOneDelegatesToThePerDestinationEngine) {
  // batch_width <= 1 must be EXACTLY the sequential engine — including
  // the step counters, not just the rows.
  util::Rng rng(31);
  const auto g = graph::random_digraph(12, 8, 0.3, {1, 20}, rng);
  mcp::Options options;
  options.backend = sim::ExecBackend::BitPlane;
  options.batch_width = 1;
  const std::vector<graph::Vertex> dests = all_destinations(12);
  const std::vector<mcp::Result> batched = mcp::solve_batch(g, dests, options);
  for (std::size_t d = 0; d < dests.size(); ++d) {
    const mcp::Result sequential = mcp::solve(g, d, options);
    ASSERT_EQ(batched[d].solution.cost, sequential.solution.cost);
    ASSERT_EQ(batched[d].solution.next, sequential.solution.next);
    ASSERT_TRUE(batched[d].total_steps == sequential.total_steps)
        << "width-1 batch diverged from the sequential engine at d=" << d;
  }
}

TEST(McpBatch, AllPairsBatchedMatchesSequentialForAllWorkerCounts) {
  util::Rng rng(123);
  const std::size_t n = 23;
  const auto g = graph::random_digraph(n, 8, 0.2, {1, 30}, rng);

  mcp::AllPairsOptions sequential_options;
  sequential_options.mcp.backend = sim::ExecBackend::BitPlane;
  sequential_options.mcp.verify = true;
  const mcp::AllPairsResult sequential = mcp::all_pairs(g, sequential_options);

  for (const std::size_t width : {std::size_t{2}, std::size_t{7}, n}) {
    for (const std::size_t workers : {std::size_t{1}, std::size_t{3}}) {
      mcp::AllPairsOptions options = sequential_options;
      options.mcp.batch_width = width;
      options.workers = workers;
      const mcp::AllPairsResult batched = mcp::all_pairs(g, options);
      const std::string label =
          "width=" + std::to_string(width) + " workers=" + std::to_string(workers);
      ASSERT_EQ(batched.dist, sequential.dist) << label;
      ASSERT_EQ(batched.next, sequential.next) << label;
      ASSERT_EQ(batched.outcomes, sequential.outcomes) << label;
      ASSERT_EQ(batched.total_iterations, sequential.total_iterations) << label;
      ASSERT_EQ(batched.diameter, sequential.diameter) << label;
    }
  }
}

TEST(McpBatch, AllPairsWordBackendKeepsThePerDestinationPath) {
  // The word backend is the differential oracle: batch_width must be a
  // no-op there, down to the step counters.
  util::Rng rng(9);
  const auto g = graph::random_digraph(10, 8, 0.3, {1, 20}, rng);
  mcp::AllPairsOptions options;
  options.mcp.backend = sim::ExecBackend::Words;
  const mcp::AllPairsResult plain = mcp::all_pairs(g, options);
  options.mcp.batch_width = 4;
  const mcp::AllPairsResult widened = mcp::all_pairs(g, options);
  ASSERT_EQ(widened.dist, plain.dist);
  ASSERT_EQ(widened.next, plain.next);
  ASSERT_TRUE(widened.total_steps == plain.total_steps);
}

TEST(McpBatch, MetricsPinBatchAndPlanCacheCounters) {
  // ppa.metrics.v1 pins: solver.batches / solver.batch_width record the
  // launches, and the broadcast plan cache's per-run hit/miss deltas
  // surface as bus.plan_cache.* (the batched sweep reuses one switch
  // configuration per axis, so hits must dominate after warm-up).
  util::Rng rng(42);
  const std::size_t n = 17;
  const auto g = graph::random_digraph(n, 8, 0.25, {1, 25}, rng);
  obs::Collector collector;
  mcp::Options options;
  options.backend = sim::ExecBackend::BitPlane;
  options.batch_width = 5;
  options.observer = &collector;
  const std::vector<mcp::Result> batched = mcp::solve_batch(g, all_destinations(n), options);
  ASSERT_EQ(batched.size(), n);

  const auto& counters = collector.metrics().counters();
  const auto counter = [&](const std::string& name) -> std::uint64_t {
    const auto it = counters.find(name);
    return it == counters.end() ? 0 : it->second.value();
  };
  EXPECT_EQ(counter(obs::metric::kSolverBatches), (n + 4) / 5);
  EXPECT_EQ(counter(obs::metric::kSolverBatchWidth), n);  // widths sum over launches
  EXPECT_EQ(counter(obs::metric::kSolverRuns), n);
  EXPECT_GT(counter(obs::metric::kPlanCacheHits), counter(obs::metric::kPlanCacheMisses));
}

TEST(McpBatch, PlanCacheCountersArePinned) {
  // Statement 10 may leave its column broadcast to the caller, reading the
  // carrier row alone, but it still looks the broadcast's switches up in
  // the plan cache once, as the resolving cycle does: batched runs on one
  // 40x40 panel and on 16x16 panels report the hits and misses they
  // reported when every broadcast was resolved.
  struct Case {
    std::size_t array_side;
    std::uint64_t hits;
    std::uint64_t misses;
  };
  for (const Case& c : {Case{0, 211, 2}, Case{16, 1669, 2}}) {
    util::Rng rng(42);
    const std::size_t n = 40;
    const auto g = graph::random_digraph(n, 8, 0.25, {1, 25}, rng);
    obs::Collector collector;
    mcp::Options options;
    options.backend = sim::ExecBackend::BitPlane;
    options.batch_width = 5;
    options.array_side = c.array_side;
    options.observer = &collector;
    (void)mcp::solve_batch(g, all_destinations(n), options);
    const auto& counters = collector.metrics().counters();
    EXPECT_EQ(counters.at(obs::metric::kPlanCacheHits).value(), c.hits) << c.array_side;
    EXPECT_EQ(counters.at(obs::metric::kPlanCacheMisses).value(), c.misses) << c.array_side;
  }
}

}  // namespace
}  // namespace ppa
