// Shared cases for the per-thread store of packed W panels (src/mcp
// relax_core.hpp, WeightPanels): a solve must never read a panel packed for
// other cells, and a solve that adopts packed panels must be the same run,
// instruction for instruction, as one that packs them. The reference for
// every answer is a solve on g.with_bits(g.field().bits()), the same cells
// under a stamp no earlier pass can have seen, run on a new thread, whose
// store is empty: it packs every panel whatever the store's key rule.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <future>
#include <string>
#include <utility>
#include <vector>

#include "graph/generators.hpp"
#include "mcp/batch.hpp"
#include "mcp/mcp.hpp"
#include "mcp/tiled.hpp"
#include "obs/collector.hpp"
#include "sim/trace.hpp"
#include "util/rng.hpp"

namespace ppa::test {

inline graph::WeightMatrix restamped(const graph::WeightMatrix& g) {
  return g.with_bits(g.field().bits());
}

/// Runs `solve` on a new thread and returns its result (or rethrows).
template <typename Solve>
auto on_fresh_thread(Solve solve) {
  return std::async(std::launch::async, std::move(solve)).get();
}

inline void expect_same_run(const mcp::Result& got, const mcp::Result& want,
                            const std::string& label) {
  EXPECT_EQ(got.solution.cost, want.solution.cost) << label;
  EXPECT_EQ(got.solution.next, want.solution.next) << label;
  EXPECT_EQ(got.iterations, want.iterations) << label;
  EXPECT_EQ(got.outcome, want.outcome) << label;
  EXPECT_TRUE(got.total_steps == want.total_steps) << label;
}

/// Every way the cells behind a stamp can change between two solves on
/// one thread, at array sides `side_a` and `side_b` (0 = full array), each
/// answer checked against a solve on a freshly stamped copy.
inline void expect_no_stale_panels(sim::ExecBackend backend, std::size_t side_a,
                                   std::size_t side_b) {
  util::Rng rng(29);
  graph::WeightMatrix g = graph::random_reachable_digraph(12, 8, 0.3, {3, 20}, 0, rng);
  mcp::Options options;
  options.backend = backend;
  options.array_side = side_a;
  const auto check = [&](const graph::WeightMatrix& graph, graph::Vertex d,
                         const std::string& label) {
    const mcp::Result got = mcp::solve(graph, d, options);
    const mcp::Result want =
        on_fresh_thread([&] { return mcp::solve(restamped(graph), d, options); });
    expect_same_run(got, want, label);
    return got;
  };

  // A new weight-1 edge from the costliest vertex to the cheapest one
  // other than the destination. It changes the answer only through the
  // relaxation, which reads W from the panels (SOW starts from the
  // matrix's column d, so an edge into d would not show a stale panel).
  const auto shortcut = [](const mcp::Result& r) {
    const std::vector<graph::Weight>& cost = r.solution.cost;
    graph::Vertex far = 0;
    graph::Vertex near = 0;
    for (graph::Vertex v = 0; v < cost.size(); ++v) {
      if (cost[v] > cost[far]) far = v;
    }
    for (graph::Vertex v = 0; v < cost.size(); ++v) {
      if (v == r.solution.destination || v == far) continue;
      if (near == r.solution.destination || near == far || cost[v] < cost[near]) near = v;
    }
    return std::pair{far, near};
  };

  // An edge changed with set / set_min between two solves: the second
  // solve's answer moves with it.
  const mcp::Result before = check(g, 0, "first solve");
  const auto [far, near] = shortcut(before);
  g.set(far, near, 1);
  const mcp::Result after_set = check(g, 0, "after set");
  EXPECT_NE(after_set.solution.cost, before.solution.cost);
  const auto [far2, near2] = shortcut(after_set);
  g.set_min(far2, near2, 1);
  const mcp::Result after_set_min = check(g, 0, "after set_min");
  EXPECT_NE(after_set_min.solution.cost, after_set.solution.cost);
  // A batched pass over the changed graph as well.
  const std::vector<graph::Vertex> group{0, 3, 5};
  const std::vector<mcp::Result> batch = mcp::solve_batch(g, group, options);
  const std::vector<mcp::Result> fresh_batch =
      on_fresh_thread([&] { return mcp::solve_batch(restamped(g), group, options); });
  for (std::size_t i = 0; i < group.size(); ++i) {
    expect_same_run(batch[i], fresh_batch[i], "batch member " + std::to_string(i));
  }

  // A copy shares the stamp until either side changes.
  graph::WeightMatrix copy = g;
  const mcp::Result copied = check(copy, 0, "copy");
  const auto [far3, near3] = shortcut(copied);
  copy.set(far3, near3, 1);
  const mcp::Result changed_copy = check(copy, 0, "changed copy");
  const mcp::Result original = check(g, 0, "original after its copy changed");
  EXPECT_NE(changed_copy.solution.cost, original.solution.cost);

  // Graphs A, B, A in turn.
  const graph::WeightMatrix other = graph::random_reachable_digraph(12, 8, 0.4, {1, 9}, 4, rng);
  check(g, 4, "A");
  check(other, 4, "B");
  check(g, 4, "A again");

  // The same graph at two array sides, and back.
  for (const std::size_t side : {side_a, side_b, side_a}) {
    options.array_side = side;
    check(g, 2, "array side " + std::to_string(side));
  }
}

/// A solve that packs its W panels (miss) and the same solve adopting the
/// panels it packed (hit) are the same run on their machines: results,
/// steps, trace events, bus cycles and broadcast-plan-cache counters.
inline void expect_hit_matches_miss(sim::ExecBackend backend, std::size_t side) {
  util::Rng rng(31);
  const graph::WeightMatrix g = graph::random_reachable_digraph(12, 8, 0.3, {1, 20}, 0, rng);
  struct Run {
    mcp::Result result;
    std::vector<sim::TraceEvent> events;
    std::uint64_t bus_cycles = 0;
    sim::Machine::PlanCacheStats plans;
    std::uint64_t packs = 0;
    std::uint64_t reuses = 0;
  };
  const auto run = [&] {
    sim::MachineConfig config;
    config.n = side;
    config.bits = g.field().bits();
    config.backend = backend;
    sim::Machine machine(config);
    sim::RecordingTrace trace;
    machine.set_trace(&trace);
    obs::Collector collector;
    mcp::Options options;
    options.backend = backend;
    options.observer = &collector;
    Run r;
    r.result = mcp::run_minimum_cost_path(machine, g, 3, options);
    r.events = trace.events();
    r.bus_cycles = machine.bus_cycles();
    r.plans = machine.plan_cache_stats();
    r.packs = collector.metrics().counter(obs::metric::kSolverPanelPacks).value();
    r.reuses = collector.metrics().counter(obs::metric::kSolverPanelReuses).value();
    return r;
  };
  const Run miss = run();
  const Run hit = run();
  EXPECT_GT(miss.packs, 0u);
  EXPECT_EQ(miss.reuses, 0u);
  EXPECT_EQ(hit.packs, 0u);
  EXPECT_EQ(hit.reuses, miss.packs);
  expect_same_run(hit.result, miss.result, "hit vs miss");
  EXPECT_TRUE(hit.events == miss.events);
  EXPECT_EQ(hit.bus_cycles, miss.bus_cycles);
  EXPECT_EQ(hit.plans.hits, miss.plans.hits);
  EXPECT_EQ(hit.plans.misses, miss.plans.misses);
}

}  // namespace ppa::test
