#include "graph/generators.hpp"

#include <gtest/gtest.h>

#include "graph/properties.hpp"
#include "util/check.hpp"

namespace ppa::graph {
namespace {

class GeneratorSeeds : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  util::Rng rng{GetParam()};
};

TEST_P(GeneratorSeeds, RandomDigraphRespectsRangeAndNoSelfLoops) {
  const auto g = random_digraph(20, 8, 0.3, {2, 9}, rng);
  EXPECT_EQ(g.size(), 20u);
  for (const Edge& e : g.edges()) {
    EXPECT_NE(e.from, e.to);
    EXPECT_GE(e.weight, 2u);
    EXPECT_LE(e.weight, 9u);
  }
}

TEST_P(GeneratorSeeds, RandomDigraphDensityIsPlausible) {
  const auto g = random_digraph(40, 16, 0.25, {1, 5}, rng);
  const double pairs = 40.0 * 39.0;
  const double density = static_cast<double>(g.edge_count()) / pairs;
  EXPECT_NEAR(density, 0.25, 0.08);
}

TEST_P(GeneratorSeeds, ReachableDigraphReachesDestination) {
  for (const Vertex d : {Vertex{0}, Vertex{7}, Vertex{14}}) {
    const auto g = random_reachable_digraph(15, 10, 0.1, {1, 8}, d, rng);
    EXPECT_TRUE(all_reach(g, d)) << "destination " << d;
  }
}

TEST_P(GeneratorSeeds, DirectedRingStructure) {
  const auto g = directed_ring(9, 8, {1, 3}, rng);
  EXPECT_EQ(g.edge_count(), 9u);
  for (Vertex i = 0; i < 9; ++i) EXPECT_TRUE(g.has_edge(i, (i + 1) % 9));
  // Worst-case p: the vertex just after the destination is n-1 edges away.
  EXPECT_EQ(max_mcp_edges(g, 0), 8u);
}

TEST_P(GeneratorSeeds, DirectedPathStructure) {
  const auto g = directed_path(6, 8, {1, 3}, rng);
  EXPECT_EQ(g.edge_count(), 5u);
  EXPECT_TRUE(all_reach(g, 5));
  EXPECT_EQ(reachable_count(g, 0), 1u);  // nothing reaches vertex 0 but itself
}

TEST_P(GeneratorSeeds, LayeredDagHasExactDepth) {
  const std::size_t layers = 5;
  const auto g = layered_dag(layers, 4, 2, 12, {1, 6}, rng);
  EXPECT_EQ(g.size(), layers * 4 + 1);
  const Vertex sink = g.size() - 1;
  EXPECT_TRUE(all_reach(g, sink));
  // Every path from layer 0 to the sink has exactly `layers` edges.
  EXPECT_EQ(max_mcp_edges(g, sink), layers);
}

TEST_P(GeneratorSeeds, GridMeshIsBidirectional) {
  const auto g = grid_mesh(3, 4, 8, {1, 5}, rng);
  EXPECT_EQ(g.size(), 12u);
  for (const Edge& e : g.edges()) EXPECT_TRUE(g.has_edge(e.to, e.from));
  // Interior connectivity: everything reaches everything.
  EXPECT_TRUE(all_reach(g, 0));
  EXPECT_TRUE(all_reach(g, 11));
  // 2*rows*cols - rows - cols undirected links, two arcs each.
  EXPECT_EQ(g.edge_count(), 2u * (2 * 3 * 4 - 3 - 4));
}

TEST_P(GeneratorSeeds, TorusAddsWrapEdges) {
  const auto g = torus_mesh(4, 4, 8, {1, 5}, rng);
  EXPECT_TRUE(g.has_edge(0, 3) || g.has_edge(3, 0));  // row wrap
  EXPECT_TRUE(g.has_edge(0, 12) || g.has_edge(12, 0));  // column wrap
  EXPECT_GT(g.edge_count(), grid_mesh(4, 4, 8, {1, 5}, rng).edge_count());
}

TEST_P(GeneratorSeeds, StarStructure) {
  const auto g = star(7, 8, 2, {1, 4}, rng);
  EXPECT_EQ(g.edge_count(), 12u);
  EXPECT_TRUE(all_reach(g, 2));
  EXPECT_EQ(max_mcp_edges(g, 2), 1u);   // every spoke is one edge away
  EXPECT_EQ(max_mcp_edges(g, 3), 2u);   // spoke -> hub -> spoke
}

TEST_P(GeneratorSeeds, CompleteDigraph) {
  const auto g = complete(6, 8, {1, 9}, rng);
  EXPECT_EQ(g.edge_count(), 30u);
  EXPECT_EQ(max_mcp_edges(g, 0) <= 5u, true);
}

TEST_P(GeneratorSeeds, BandedRespectsBandwidth) {
  const auto g = banded(10, 8, 2, {1, 5}, rng);
  for (const Edge& e : g.edges()) {
    const std::size_t gap = e.from > e.to ? e.from - e.to : e.to - e.from;
    EXPECT_LE(gap, 2u);
    EXPECT_GE(gap, 1u);
  }
  EXPECT_EQ(g.edge_count(), 2u * (9 + 8));
}

TEST_P(GeneratorSeeds, GeometricEdgesScaleWithDistance) {
  const auto g = geometric(30, 12, 0.5, {10, 100}, rng);
  for (const Edge& e : g.edges()) {
    EXPECT_GE(e.weight, 10u);
    EXPECT_LE(e.weight, 100u);
    // Symmetric support: if i sees j then j sees i (identical distance).
    EXPECT_TRUE(g.has_edge(e.to, e.from));
    EXPECT_EQ(g.at(e.to, e.from), e.weight);
  }
}

TEST_P(GeneratorSeeds, RingOfCliquesStructure) {
  const std::size_t cliques = 5;
  const std::size_t size = 4;
  const auto g = ring_of_cliques(cliques, size, 8, {1, 9}, rng);
  EXPECT_EQ(g.size(), cliques * size);
  // Each clique: size*(size-1) internal arcs; plus one gateway per clique.
  EXPECT_EQ(g.edge_count(), cliques * (size * (size - 1) + 1));
  for (std::size_t k = 0; k < cliques; ++k) {
    const Vertex base = static_cast<Vertex>(k * size);
    for (Vertex a = 0; a < size; ++a) {
      for (Vertex b = 0; b < size; ++b) {
        if (a != b) {
          EXPECT_TRUE(g.has_edge(base + a, base + b)) << k;
        }
      }
    }
    // Gateway: last slot of clique k -> first slot of clique k+1 (wrap).
    EXPECT_TRUE(g.has_edge(base + size - 1,
                           static_cast<Vertex>(((k + 1) % cliques) * size)));
  }
  // The ring of gateways makes the whole graph strongly connected...
  EXPECT_TRUE(all_reach(g, 0));
  // ...but a wavefront must cross ~all gateways to get around: the worst
  // source pays one hop into its gateway vertex plus one per clique hop.
  EXPECT_GE(max_mcp_edges(g, 0), cliques - 1);
}

TEST_P(GeneratorSeeds, RingOfCliquesSingleCliqueHasNoGateway) {
  const auto g = ring_of_cliques(1, 4, 8, {1, 9}, rng);
  EXPECT_EQ(g.edge_count(), 4u * 3u);  // just the complete clique
}

TEST_P(GeneratorSeeds, PowerLawReachesVertexZeroWithFewHops) {
  const std::size_t n = 64;
  const auto g = power_law(n, 16, 2, 0.0, {1, 9}, rng);
  // back_probability = 0: pure attachment DAG, every edge points to a
  // strictly earlier vertex...
  for (const Edge& e : g.edges()) EXPECT_LT(e.to, e.from);
  // ...so every vertex reaches 0, and through hubs, in few hops.
  EXPECT_TRUE(all_reach(g, 0));
  EXPECT_LT(max_mcp_edges(g, 0), n / 4);
  // Each vertex v >= 1 contributes min(2, v) attachment edges exactly.
  EXPECT_EQ(g.edge_count(), 1u + 2u * (n - 2));
}

TEST_P(GeneratorSeeds, PowerLawBackEdgesStayWithinEdgePairs) {
  const auto g = power_law(48, 16, 3, 0.5, {2, 7}, rng);
  std::size_t forward = 0;
  std::size_t backward = 0;
  for (const Edge& e : g.edges()) {
    EXPECT_GE(e.weight, 2u);
    EXPECT_LE(e.weight, 7u);
    if (e.to < e.from) {
      ++forward;
    } else {
      ++backward;
      // A reverse edge only ever shadows a forward attachment.
      EXPECT_TRUE(g.has_edge(e.to, e.from));
    }
  }
  EXPECT_GT(backward, 0u);
  EXPECT_LE(backward, forward);
}

INSTANTIATE_TEST_SUITE_P(Seeds, GeneratorSeeds, ::testing::Values(1u, 42u, 20260704u));

TEST(Generators, Determinism) {
  util::Rng a(5);
  util::Rng b(5);
  EXPECT_EQ(random_digraph(12, 8, 0.3, {1, 9}, a), random_digraph(12, 8, 0.3, {1, 9}, b));
  util::Rng c(5);
  util::Rng d(5);
  EXPECT_EQ(ring_of_cliques(4, 5, 8, {1, 9}, c), ring_of_cliques(4, 5, 8, {1, 9}, d));
  util::Rng e(5);
  util::Rng f(5);
  EXPECT_EQ(power_law(30, 8, 2, 0.2, {1, 9}, e), power_law(30, 8, 2, 0.2, {1, 9}, f));
}

TEST(Generators, RejectsBadParameters) {
  util::Rng rng(1);
  EXPECT_THROW((void)random_digraph(5, 4, 0.5, {1, 15}, rng), util::ContractError);  // hi==inf
  EXPECT_THROW((void)random_digraph(5, 8, 0.5, {9, 3}, rng), util::ContractError);   // inverted
  EXPECT_THROW((void)layered_dag(3, 2, 5, 8, {1, 5}, rng), util::ContractError);     // fan_out>width
  EXPECT_THROW((void)star(5, 8, 9, {1, 5}, rng), util::ContractError);               // center oob
  EXPECT_THROW((void)banded(5, 8, 0, {1, 5}, rng), util::ContractError);
  EXPECT_THROW((void)geometric(5, 8, 0.0, {1, 5}, rng), util::ContractError);
  EXPECT_THROW((void)ring_of_cliques(0, 4, 8, {1, 5}, rng), util::ContractError);
  EXPECT_THROW((void)power_law(8, 8, 0, 0.1, {1, 5}, rng), util::ContractError);
}

TEST(Generators, ZeroWeightEdgesAllowed) {
  util::Rng rng(3);
  const auto g = random_digraph(10, 8, 0.5, {0, 0}, rng);
  for (const Edge& e : g.edges()) EXPECT_EQ(e.weight, 0u);
  EXPECT_GT(g.edge_count(), 0u);
}

}  // namespace
}  // namespace ppa::graph
