// The threaded all-pairs driver is host parallelism only: solutions, step
// counts and iteration totals must be bit-identical to the sequential
// driver for EVERY worker count (the paper's cost model counts SIMD steps,
// which cannot depend on how the host scheduled the destination runs).
#include "mcp/allpairs.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "baseline/sequential.hpp"
#include "graph/generators.hpp"
#include "util/rng.hpp"

namespace ppa::mcp {
namespace {

using graph::Vertex;

void expect_identical(const AllPairsResult& got, const AllPairsResult& want,
                      std::size_t workers) {
  ASSERT_EQ(got.n, want.n) << "workers=" << workers;
  EXPECT_EQ(got.dist, want.dist) << "workers=" << workers;
  EXPECT_EQ(got.next, want.next) << "workers=" << workers;
  EXPECT_EQ(got.total_iterations, want.total_iterations) << "workers=" << workers;
  EXPECT_EQ(got.total_steps, want.total_steps) << "workers=" << workers;
  EXPECT_EQ(got.diameter, want.diameter) << "workers=" << workers;
}

TEST(AllPairsParallel, BitIdenticalForEveryWorkerCount) {
  util::Rng rng(77);
  const auto g = graph::random_digraph(12, 16, 0.3, {1, 20}, rng);
  const auto sequential = all_pairs(g);
  for (const std::size_t workers : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
    AllPairsOptions options;
    options.workers = workers;
    const auto threaded = all_pairs(g, options);
    expect_identical(threaded, sequential, workers);
  }
}

TEST(AllPairsParallel, MoreWorkersThanDestinations) {
  util::Rng rng(78);
  const auto g = graph::random_digraph(3, 16, 0.5, {1, 9}, rng);
  AllPairsOptions options;
  options.workers = 16;  // clamped to n inside the driver
  const auto threaded = all_pairs(g, options);
  expect_identical(threaded, all_pairs(g), options.workers);
}

TEST(AllPairsParallel, BatchedGroupsBitIdenticalForEveryWorkerCount) {
  // The batched path (docs/batching.md) hands whole destination GROUPS to
  // the pool; group composition is global, so results and steps must stay
  // bit-identical for every worker count there too. This test also puts
  // the group loop under the tsan preset (it runs the AllPairsParallel
  // suite), covering the per-group writes to the shared result arrays.
  util::Rng rng(80);
  const auto g = graph::random_digraph(13, 16, 0.3, {1, 20}, rng);
  AllPairsOptions batched;
  batched.mcp.backend = sim::ExecBackend::BitPlane;
  batched.mcp.batch_width = 4;
  const auto sequential = all_pairs(g, batched);  // workers = 1
  for (const std::size_t workers : {std::size_t{2}, std::size_t{8}}) {
    AllPairsOptions options = batched;
    options.workers = workers;
    expect_identical(all_pairs(g, options), sequential, workers);
  }
}

TEST(AllPairsParallel, TiledWorkersEachPackTheirOwnPanels) {
  // Every worker thread keeps its own packed W panels (src/mcp
  // relax_core.hpp, WeightPanels) while all of them read the one shared
  // graph. Under the tsan preset this covers the per-thread stores; the
  // answers and steps must still match the one-lane run, on both
  // backends, per destination and batched.
  util::Rng rng(81);
  const auto g = graph::random_digraph(14, 16, 0.3, {1, 20}, rng);
  for (const sim::ExecBackend backend : {sim::ExecBackend::Words, sim::ExecBackend::BitPlane}) {
    for (const std::size_t width : {std::size_t{1}, std::size_t{3}}) {
      AllPairsOptions tiled;
      tiled.mcp.backend = backend;
      tiled.mcp.array_side = 5;
      tiled.mcp.batch_width = width;
      const auto sequential = all_pairs(g, tiled);  // workers = 1
      for (const std::size_t workers : {std::size_t{2}, std::size_t{4}}) {
        AllPairsOptions options = tiled;
        options.workers = workers;
        expect_identical(all_pairs(g, options), sequential, workers);
      }
    }
  }
}

TEST(AllPairsParallel, WorkersKeepTheirOwnArenas) {
  // Every thread keeps its register arena between solves (src/ppc
  // context.hpp), keyed by backend, array side and word width. Back-to-back
  // runs on two geometries make each worker adopt, rekey and hand back its
  // own arena; under the tsan preset this covers the per-thread stores. The
  // answers and steps must still match the one-lane run.
  util::Rng rng(82);
  const auto g = graph::random_digraph(14, 16, 0.3, {1, 20}, rng);
  std::vector<AllPairsResult> sequential;
  const std::size_t sides[] = {0, 5};
  for (const std::size_t side : sides) {
    AllPairsOptions options;
    options.mcp.backend = sim::ExecBackend::BitPlane;
    options.mcp.array_side = side;
    sequential.push_back(all_pairs(g, options));  // workers = 1
  }
  for (const std::size_t workers : {std::size_t{2}, std::size_t{4}}) {
    for (std::size_t i = 0; i < sequential.size(); ++i) {
      AllPairsOptions options;
      options.mcp.backend = sim::ExecBackend::BitPlane;
      options.mcp.array_side = sides[i];
      options.workers = workers;
      expect_identical(all_pairs(g, options), sequential[i], workers);
    }
  }
}

TEST(AllPairsParallel, ThreadedMatchesFloydWarshall) {
  util::Rng rng(79);
  const auto g = graph::random_digraph(10, 16, 0.25, {1, 15}, rng);
  AllPairsOptions options;
  options.workers = 4;
  const auto threaded = all_pairs(g, options);
  const auto host = baseline::floyd_warshall(g);
  for (Vertex i = 0; i < 10; ++i) {
    for (Vertex j = 0; j < 10; ++j) {
      EXPECT_EQ(threaded.dist_at(i, j), host.dist_at(i, j)) << "pair " << i << "," << j;
    }
  }
}

}  // namespace
}  // namespace ppa::mcp
