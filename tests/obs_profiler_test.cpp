// The utilization profiler's deterministic telemetry: the new counters
// (bus occupancy, SIMD sweep throughput, active lanes) and the convergence
// series are part of the bit-identical contract — independent of the
// all-pairs worker count, in every solver mode
// (full / tiled / batched, both backends). Plus the
// tiled n = 128 ring: the per-panel change counts expose exactly the
// sparse-panel structure active-panel virtualization needs.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "graph/generators.hpp"
#include "mcp/allpairs.hpp"
#include "mcp/mcp.hpp"
#include "obs/collector.hpp"
#include "sim/machine.hpp"
#include "util/rng.hpp"

namespace ppa::obs {
namespace {

struct ModeConfig {
  sim::ExecBackend backend;
  std::size_t array_side;   // 0 = full array
  std::size_t batch_width;  // 1 = per-destination engine
  const char* label;
};

TEST(Profiler, CountersAreWorkerCountIndependentInEveryMode) {
  util::Rng rng(7);
  const auto g = graph::random_reachable_digraph(12, 8, 0.3, {1, 9}, 0, rng);
  const ModeConfig modes[] = {
      {sim::ExecBackend::Words, 0, 1, "word/full"},
      {sim::ExecBackend::Words, 5, 1, "word/tiled"},
      {sim::ExecBackend::BitPlane, 0, 1, "bitplane/full"},
      {sim::ExecBackend::BitPlane, 5, 1, "bitplane/tiled"},
      {sim::ExecBackend::BitPlane, 0, 4, "bitplane/batched"},
  };
  for (const ModeConfig& mode : modes) {
    auto run = [&](std::size_t workers) {
      auto collector = std::make_unique<Collector>();
      mcp::AllPairsOptions options;
      options.workers = workers;
      options.mcp.backend = mode.backend;
      options.mcp.array_side = mode.array_side;
      options.mcp.batch_width = mode.batch_width;
      options.mcp.observer = collector.get();
      (void)mcp::all_pairs(g, options);
      return collector;
    };
    const auto one = run(1);
    // The telemetry is live in this mode at all (occupancy scans fed the
    // counters, the convergence series filled in)...
    EXPECT_GT(one->metrics().counters().at(metric::kBusTotalWires).value(), 0u)
        << mode.label;
    EXPECT_GT(one->metrics().counters().at(metric::kActiveLanes).value(), 0u)
        << mode.label;
    EXPECT_FALSE(one->convergence().empty()) << mode.label;
    if (mode.array_side != 0) {
      EXPECT_FALSE(one->convergence().front().panel_changes.empty()) << mode.label;
    }

    // ...and none of it depends on how many host workers ran the sweep.
    for (const std::size_t workers : {2u, 4u}) {
      const auto many = run(workers);
      ASSERT_EQ(one->metrics().counters().size(), many->metrics().counters().size())
          << mode.label << " workers=" << workers;
      for (const auto& [name, counter] : one->metrics().counters()) {
        // The plan cache is per worker machine and starts cold, so the
        // hit/miss SPLIT shifts with the destination partitioning; only
        // their sum (lookups) is invariant, checked below. The packed W
        // panels are kept per thread, so their pack/reuse split shifts
        // the same way, around an invariant sum.
        if (name == metric::kPlanCacheHits || name == metric::kPlanCacheMisses) continue;
        if (name == metric::kSolverPanelPacks || name == metric::kSolverPanelReuses) continue;
        EXPECT_EQ(counter.value(), many->metrics().counters().at(name).value())
            << mode.label << " " << name << " workers=" << workers;
      }
      const auto lookups = [](const Collector& c) {
        return c.metrics().counters().at(metric::kPlanCacheHits).value() +
               c.metrics().counters().at(metric::kPlanCacheMisses).value();
      };
      EXPECT_EQ(lookups(*one), lookups(*many)) << mode.label << " workers=" << workers;
      const auto panels = [](const Collector& c) {
        return c.metrics().counters().at(metric::kSolverPanelPacks).value() +
               c.metrics().counters().at(metric::kSolverPanelReuses).value();
      };
      EXPECT_EQ(panels(*one), panels(*many)) << mode.label << " workers=" << workers;
      for (const auto& [name, hist] : one->metrics().histograms()) {
        EXPECT_EQ(hist.counts(), many->metrics().histograms().at(name).counts())
            << mode.label << " " << name << " workers=" << workers;
        EXPECT_EQ(hist.sum(), many->metrics().histograms().at(name).sum())
            << mode.label << " " << name << " workers=" << workers;
      }
      const auto& first = one->convergence();
      const auto& other = many->convergence();
      ASSERT_EQ(first.size(), other.size()) << mode.label << " workers=" << workers;
      for (std::size_t i = 0; i < first.size(); ++i) {
        EXPECT_EQ(first[i].destination, other[i].destination) << mode.label << " " << i;
        EXPECT_EQ(first[i].iteration, other[i].iteration) << mode.label << " " << i;
        EXPECT_EQ(first[i].active, other[i].active) << mode.label << " " << i;
        EXPECT_EQ(first[i].panel_changes, other[i].panel_changes)
            << mode.label << " " << i;
      }
    }
  }
}

TEST(Profiler, SweepCountersCountPlaneSweepsOnly) {
  // simd.sweep.* is billed once per plane-ALU sweep on the controller
  // thread, so a bit-plane solve reports a positive total.
  util::Rng rng(11);
  const auto g = graph::random_reachable_digraph(17, 8, 0.3, {1, 9}, 0, rng);
  {
    sim::MachineConfig cfg;
    cfg.n = g.size();
    cfg.bits = g.field().bits();
    cfg.backend = sim::ExecBackend::BitPlane;
    sim::Machine machine(cfg);
    Collector collector;
    mcp::Options options;
    options.observer = &collector;
    (void)mcp::minimum_cost_path(machine, g, 0, options);
    const auto& counters = collector.metrics().counters();
    EXPECT_GT(counters.at(metric::kSweepDispatches).value(), 0u);
    EXPECT_GT(counters.at(metric::kSweepWords).value(), 0u);
  }

  // The word backend has no plane ALU: its sweep counters stay zero
  // (present, so merged registries keep matching shapes).
  sim::MachineConfig cfg;
  cfg.n = g.size();
  cfg.bits = g.field().bits();
  cfg.backend = sim::ExecBackend::Words;
  sim::Machine machine(cfg);
  Collector collector;
  mcp::Options options;
  options.observer = &collector;
  (void)mcp::minimum_cost_path(machine, g, 0, options);
  EXPECT_EQ(collector.metrics().counters().at(metric::kSweepDispatches).value(), 0u);
  EXPECT_EQ(collector.metrics().counters().at(metric::kSweepWords).value(), 0u);
}

TEST(Profiler, TiledRingTelemetryShowsPerPanelSparsity) {
  // Directed ring, n = 128 on a 32 x 32 physical array (4 row blocks,
  // 16 panels per sweep). The DP's wavefront settles one vertex per
  // iteration, so every sample has active = 1 concentrated in exactly one
  // row block — the sparse-panel signal the ROADMAP's active-panel
  // virtualization item wants to consume, now visible in the telemetry.
  util::Rng rng(5);
  const auto g = graph::directed_ring(128, 16, {1, 9}, rng);
  Collector collector;
  mcp::Options options;
  options.observer = &collector;
  options.array_side = 32;
  options.active_panels = false;  // the dense sweep, to pin the waste below
  const auto result = mcp::solve(g, 0, options);
  EXPECT_EQ(result.iterations, 127u);

  const auto& series = collector.convergence();
  ASSERT_EQ(series.size(), 127u);
  for (std::size_t i = 0; i + 1 < series.size(); ++i) {
    const IterationSample& sample = series[i];
    EXPECT_EQ(sample.iteration, i + 1) << i;
    EXPECT_EQ(sample.active, 1u) << i;
    ASSERT_EQ(sample.panel_changes.size(), 4u) << i;
    std::uint64_t sum = 0;
    std::size_t nonzero = 0;
    for (const std::uint64_t c : sample.panel_changes) {
      sum += c;
      if (c != 0) ++nonzero;
    }
    EXPECT_EQ(sum, sample.active) << i;
    EXPECT_EQ(nonzero, 1u) << i;
  }
  EXPECT_EQ(series.back().active, 0u);  // the settled sweep that ends the loop

  // The dense sweep visits every panel every iteration — the gap the
  // telemetry quantifies: 127 iterations x 16 panels.
  EXPECT_EQ(collector.metrics().counters().at(metric::kSolverPanels).value(),
            127u * 16u);

  // The active-panel schedule consumes exactly this signal: after the
  // first sweep only the single wavefront column block stays dirty, so
  // each of the remaining 126 iterations visits 4 panels (one per row
  // block) instead of 16 — with bit-identical results.
  Collector active_collector;
  mcp::Options active = options;
  active.observer = &active_collector;
  active.active_panels = true;
  const auto active_result = mcp::solve(g, 0, active);
  EXPECT_EQ(active_result.solution.cost, result.solution.cost);
  EXPECT_EQ(active_result.solution.next, result.solution.next);
  EXPECT_EQ(active_result.iterations, result.iterations);
  const auto& counters = active_collector.metrics().counters();
  EXPECT_EQ(counters.at(metric::kSolverPanels).value(), 16u + 126u * 4u);
  EXPECT_EQ(counters.at(metric::kSolverPanelsSkipped).value(),
            127u * 16u - (16u + 126u * 4u));
  EXPECT_EQ(counters.at(metric::kSolverActiveBlocks).value(), 4u + 126u * 1u);
}

}  // namespace
}  // namespace ppa::obs
