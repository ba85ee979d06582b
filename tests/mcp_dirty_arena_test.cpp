// Each thread keeps its register arena between Contexts (src/ppc
// context.hpp), so a solve starts with the buffers the thread's last solve
// released, contents and all. A solve of graph B after a solve of graph A,
// and after a solve that threw ContractError halfway, must be the same run
// as B on a new thread, whose arena is empty: rows, steps, trace events,
// bus cycles and broadcast-plan-cache counters.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <string>
#include <vector>

#include "graph/generators.hpp"
#include "mcp/allpairs.hpp"
#include "mcp/batch.hpp"
#include "mcp/closure.hpp"
#include "mcp/mcp.hpp"
#include "mcp/tiled.hpp"
#include "sim/fault_model.hpp"
#include "sim/trace.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace ppa::mcp {
namespace {

constexpr std::size_t kVertices = 12;
constexpr std::size_t kTiledSide = 5;
constexpr int kBits = 8;
constexpr graph::Vertex kDestination = 3;

/// A solver's answer, flattened for comparison.
using Rows = std::vector<std::uint64_t>;

void append(Rows& rows, const Result& r) {
  rows.insert(rows.end(), r.solution.cost.begin(), r.solution.cost.end());
  rows.insert(rows.end(), r.solution.next.begin(), r.solution.next.end());
  rows.push_back(r.iterations);
  rows.push_back(static_cast<std::uint64_t>(r.outcome));
}

using Solve = std::function<Rows(sim::Machine&, const graph::WeightMatrix&)>;

Rows single_mcp(sim::Machine& m, const graph::WeightMatrix& g) {
  Rows rows;
  append(rows, run_minimum_cost_path(m, g, kDestination));
  return rows;
}

struct Workload {
  std::size_t side;  // the machine's array side
  Solve solve;
  /// What runs on the faulty machine: `solve`, unless it recovers from
  /// the fault instead of throwing.
  Solve throwing = nullptr;
};

Workload mcp_on(std::size_t side) { return {side, single_mcp}; }

Workload batched() {
  return {kTiledSide, [](sim::Machine& m, const graph::WeightMatrix& g) {
            Options options;
            options.backend = m.config().backend;
            options.batch_width = 4;
            std::unique_ptr<sim::Machine> oracle;
            Rows rows;
            for (const Result& r : solve_batch_on(m, oracle, g, {0, 3, 5, 7}, options)) {
              append(rows, r);
            }
            return rows;
          },
          // The batched driver retries a failed group on its oracle, so
          // the throw comes from a one-destination solve on the same key.
          single_mcp};
}

Workload closure() {
  return {kVertices, [](sim::Machine& m, const graph::WeightMatrix& g) {
            const ReachabilityResult r = reachability(m, g, kDestination);
            Rows rows(r.reachable.begin(), r.reachable.end());
            rows.push_back(r.iterations);
            return rows;
          }};
}

Workload eccentric() {
  return {kTiledSide, [](sim::Machine& m, const graph::WeightMatrix& g) {
            const EccentricityResult r = eccentricity(m, g, kDestination);
            Rows rows;
            append(rows, r.mcp);
            rows.push_back(r.eccentricity);
            return rows;
          }};
}

struct Run {
  Rows rows;
  sim::StepCounter steps;
  std::vector<sim::TraceEvent> events;
  std::uint64_t bus_cycles = 0;
  sim::Machine::PlanCacheStats plans;
};

sim::MachineConfig config_of(const Workload& w, sim::ExecBackend backend) {
  sim::MachineConfig config;
  config.n = w.side;
  config.bits = kBits;
  config.backend = backend;
  return config;
}

Run run(const Workload& w, sim::ExecBackend backend, const graph::WeightMatrix& g) {
  sim::Machine machine(config_of(w, backend));
  sim::RecordingTrace trace;
  machine.set_trace(&trace);
  Run r;
  r.rows = w.solve(machine, g);
  r.steps = machine.steps();
  r.events = trace.events();
  r.bus_cycles = machine.bus_cycles();
  r.plans = machine.plan_cache_stats();
  return r;
}

void expect_same_run(const Run& got, const Run& want, const std::string& label) {
  EXPECT_EQ(got.rows, want.rows) << label;
  EXPECT_TRUE(got.steps == want.steps) << label;
  EXPECT_TRUE(got.events == want.events) << label;
  EXPECT_EQ(got.bus_cycles, want.bus_cycles) << label;
  EXPECT_EQ(got.plans.hits, want.plans.hits) << label;
  EXPECT_EQ(got.plans.misses, want.plans.misses) << label;
}

/// B after A, and B after a solve that threw, on this thread, against B
/// on a new thread; on both backends.
void expect_dirty_matches_fresh(const Workload& w) {
  util::Rng rng(47);
  const graph::WeightMatrix a =
      graph::random_reachable_digraph(kVertices, kBits, 0.4, {1, 30}, kDestination, rng);
  const graph::WeightMatrix b =
      graph::random_reachable_digraph(kVertices, kBits, 0.3, {1, 20}, kDestination, rng);
  for (const sim::ExecBackend backend : {sim::ExecBackend::Words, sim::ExecBackend::BitPlane}) {
    SCOPED_TRACE(backend == sim::ExecBackend::Words ? "words" : "bitplane");
    const Run fresh = std::async(std::launch::async, [&] { return run(w, backend, b); }).get();

    (void)run(w, backend, a);
    expect_same_run(run(w, backend, b), fresh, "after graph A");

    // Column 0's switches are all stuck closed, so every column broadcast
    // leaves column 0 undriven, and the machine refuses the first read of
    // it midway through the solve.
    std::string spec;
    for (std::size_t r = 0; r < w.side; ++r) {
      spec += (r == 0 ? "" : ";") + std::string("stuck-closed:col,") + std::to_string(r) + ",0";
    }
    sim::Machine faulty(config_of(w, backend));
    faulty.inject_faults(sim::FaultModel::parse(spec, w.side, kBits));
    EXPECT_THROW((void)(w.throwing ? w.throwing : w.solve)(faulty, a), util::ContractError);
    expect_same_run(run(w, backend, b), fresh, "after a solve that threw");
  }
}

TEST(DirtyArena, FullArraySolveMatchesANewThread) {
  expect_dirty_matches_fresh(mcp_on(kVertices));
}

TEST(DirtyArena, TiledSolveMatchesANewThread) { expect_dirty_matches_fresh(mcp_on(kTiledSide)); }

TEST(DirtyArena, BatchedSolveMatchesANewThread) { expect_dirty_matches_fresh(batched()); }

TEST(DirtyArena, ReachabilityMatchesANewThread) { expect_dirty_matches_fresh(closure()); }

TEST(DirtyArena, EccentricityMatchesANewThread) { expect_dirty_matches_fresh(eccentric()); }

}  // namespace
}  // namespace ppa::mcp
