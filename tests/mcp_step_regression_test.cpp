// Step-count regression guard. The SIMD step totals of the MCP algorithm
// are a pure function of the workload (graph + destination + options) —
// they must not move when the host-side implementation changes (new
// backend, new sweeps, refactors). These are the E6 benchmark workloads
// (random_reachable_digraph seeded with n, density 2/n, h = 16, dest 0);
// the constants were produced by the seed implementation and any change
// to them is a semantic change to the simulated machine, not a perf
// regression — it must be deliberate and explained in the commit.
#include <gtest/gtest.h>

#include <ostream>
#include <string>
#include <vector>

#include "graph/generators.hpp"
#include "mcp/batch.hpp"
#include "mcp/mcp.hpp"
#include "sim/machine.hpp"
#include "util/rng.hpp"

namespace ppa {
namespace {

struct Pinned {
  std::size_t n;
  std::size_t iterations;
  std::uint64_t total_steps;
  const char* summary;
};

// gtest would print a Pinned as its raw bytes, the summary's address
// among them, and ctest ids carry that print: a printer and a name
// generator keep the ids the same from one build to the next.
void PrintTo(const Pinned& pin, std::ostream* os) { *os << "n=" << pin.n; }

std::string pinned_name(const ::testing::TestParamInfo<Pinned>& info) {
  return "N" + std::to_string(info.param.n);
}

graph::WeightMatrix bench_graph(std::size_t n) {
  util::Rng rng(n);
  return graph::random_reachable_digraph(n, 16, 2.0 / static_cast<double>(n), {1, 30}, 0,
                                         rng);
}

class McpStepRegression : public ::testing::TestWithParam<Pinned> {};

TEST_P(McpStepRegression, CanonicalCountsHold) {
  const Pinned& pin = GetParam();
  const auto g = bench_graph(pin.n);
  for (const auto backend : {sim::ExecBackend::Words, sim::ExecBackend::BitPlane}) {
    mcp::Options options;
    options.backend = backend;
    const mcp::Result r = mcp::solve(g, 0, options);
    const char* name = backend == sim::ExecBackend::BitPlane ? "bitplane" : "word";
    EXPECT_EQ(r.iterations, pin.iterations) << "n=" << pin.n << " backend=" << name;
    EXPECT_EQ(r.total_steps.total(), pin.total_steps) << "n=" << pin.n << " backend=" << name;
    EXPECT_EQ(r.total_steps.summary(), pin.summary) << "n=" << pin.n << " backend=" << name;
  }
}

// Per-iteration cost depends only on h (each iteration is a fixed
// instruction sequence), so n = 64 and n = 128 — which happen to converge
// in the same 8 iterations — pin the SAME totals; the n = 128 row is the
// headline workload of BENCH_e6.json.
INSTANTIATE_TEST_SUITE_P(
    BenchWorkloads, McpStepRegression,
    ::testing::Values(
        Pinned{32, 4, 1045, "steps=1045 alu=883 bus_bcast=30 bus_or=128 global_or=4"},
        Pinned{64, 8, 2069, "steps=2069 alu=1747 bus_bcast=58 bus_or=256 global_or=8"},
        Pinned{128, 8, 2069, "steps=2069 alu=1747 bus_bcast=58 bus_or=256 global_or=8"}),
    pinned_name);

// A clean full-array solve charges every min() route and spread without
// resolving them (ppc::pmin / selected_min on the bit-plane backend), so
// the n = 128 bench solve puts no row on the row broadcasts' segmented-fill
// ladder, at its pinned steps.
TEST(McpRowRoutes, CleanFullSolveNeverReachesTheLadder) {
  const auto g = bench_graph(128);
  sim::MachineConfig config;
  config.n = 128;
  config.bits = 16;
  config.backend = sim::ExecBackend::BitPlane;
  sim::Machine machine(config);
  const mcp::Result r = mcp::minimum_cost_path(machine, g, 0, mcp::Options{});
  EXPECT_EQ(r.iterations, 8u);
  EXPECT_EQ(r.total_steps.summary(), "steps=2069 alu=1747 bus_bcast=58 bus_or=256 global_or=8");
  EXPECT_EQ(machine.row_ladder_rows(), 0u);
}

// The virtualized sweep's full step profile, not only its PanelIo formula:
// a fragment beat moved into or out of the double buffer, or a reduction
// swapped, shows here. The n = 64 bench graph on a 16 x 16 array (4 x 4
// panels per sweep): `solve` toward destination 0 (the 1-member sweep),
// and `solve_batch` toward destinations 0..3 at width 4 (one 4-member
// group; every member carries the group's step delta). Both reduce rows
// with the fused elimination over panel-local indices. Each shape runs
// with active panels on and off, on both backends, which must agree.
struct VirtualizedPin {
  bool batch;
  bool active_panels;
  std::vector<std::size_t> iterations;  // per destination
  const char* summary;                  // total_steps.summary() of destination 0
};

TEST(McpStepRegressionVirtualized, SweepProfilesHold) {
  const auto g = bench_graph(64);
  const std::vector<VirtualizedPin> pins = {
      {false, true, {8}, "steps=14993 alu=12189 bus_bcast=116 bus_or=2320 panel_io=368"},
      {false, false, {8}, "steps=18569 alu=13449 bus_bcast=128 bus_or=2560 panel_io=2432"},
      {true,
       true,
       {8, 10, 11, 8},
       "steps=68449 alu=55505 bus_bcast=532 bus_or=10640 panel_io=1772"},
      {true,
       false,
       {8, 10, 11, 8},
       "steps=78777 alu=61753 bus_bcast=592 bus_or=11840 panel_io=4592"},
  };
  for (const VirtualizedPin& pin : pins) {
    for (const auto backend : {sim::ExecBackend::Words, sim::ExecBackend::BitPlane}) {
      mcp::Options options;
      options.backend = backend;
      options.array_side = 16;
      options.active_panels = pin.active_panels;
      std::vector<graph::Vertex> dests(pin.iterations.size());
      for (std::size_t i = 0; i < dests.size(); ++i) dests[i] = i;
      std::vector<mcp::Result> runs;
      if (pin.batch) {
        options.batch_width = dests.size();
        runs = mcp::solve_batch(g, dests, options);
      } else {
        runs.push_back(mcp::solve(g, dests.front(), options));
      }
      const std::string label = std::string(pin.batch ? "solve_batch" : "solve") +
                                (pin.active_panels ? " active" : " dense") +
                                (backend == sim::ExecBackend::BitPlane ? " bitplane" : " word");
      ASSERT_EQ(runs.size(), dests.size()) << label;
      for (std::size_t i = 0; i < runs.size(); ++i) {
        EXPECT_EQ(runs[i].iterations, pin.iterations[i]) << label << " dest=" << i;
        EXPECT_EQ(runs[i].total_steps.summary(), pin.summary) << label << " dest=" << i;
      }
    }
  }
}

}  // namespace
}  // namespace ppa
