#include "graph/weight_matrix.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <utility>

#include "util/check.hpp"

namespace ppa::graph {
namespace {

TEST(WeightMatrix, StartsEdgeless) {
  const WeightMatrix g(5, 8);
  EXPECT_EQ(g.size(), 5u);
  EXPECT_EQ(g.edge_count(), 0u);
  for (Vertex i = 0; i < 5; ++i) {
    for (Vertex j = 0; j < 5; ++j) {
      EXPECT_EQ(g.at(i, j), g.infinity());
      EXPECT_FALSE(g.has_edge(i, j));
    }
  }
}

TEST(WeightMatrix, RejectsEmptyGraph) {
  EXPECT_THROW(WeightMatrix(0, 8), util::ContractError);
}

TEST(WeightMatrix, SetAndGet) {
  WeightMatrix g(3, 8);
  g.set(0, 1, 7);
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_FALSE(g.has_edge(1, 0));  // directed
  EXPECT_EQ(g.at(0, 1), 7u);
  EXPECT_EQ(g.edge_count(), 1u);
}

TEST(WeightMatrix, SetInfinityErases) {
  WeightMatrix g(3, 8);
  g.set(0, 1, 7);
  g.erase(0, 1);
  EXPECT_FALSE(g.has_edge(0, 1));
  EXPECT_EQ(g.edge_count(), 0u);
}

TEST(WeightMatrix, RejectsOutOfRangeAndUnrepresentable) {
  WeightMatrix g(3, 4);  // infinity = 15
  EXPECT_THROW(g.set(3, 0, 1), util::ContractError);
  EXPECT_THROW(g.set(0, 3, 1), util::ContractError);
  EXPECT_THROW(g.set(0, 1, 16), util::ContractError);
  EXPECT_THROW((void)g.at(0, 5), util::ContractError);
  EXPECT_NO_THROW(g.set(0, 1, 15));  // storing infinity erases — allowed
}

TEST(WeightMatrix, SetMinKeepsBest) {
  WeightMatrix g(3, 8);
  g.set_min(0, 1, 9);
  g.set_min(0, 1, 4);
  g.set_min(0, 1, 7);
  EXPECT_EQ(g.at(0, 1), 4u);
}

TEST(WeightMatrix, EdgesEnumeratesRowMajor) {
  WeightMatrix g(3, 8);
  g.set(2, 0, 5);
  g.set(0, 2, 3);
  g.set(0, 1, 1);
  const auto edges = g.edges();
  ASSERT_EQ(edges.size(), 3u);
  EXPECT_EQ(edges[0], (Edge{0, 1, 1}));
  EXPECT_EQ(edges[1], (Edge{0, 2, 3}));
  EXPECT_EQ(edges[2], (Edge{2, 0, 5}));
}

TEST(WeightMatrix, OutDegreeAndRowView) {
  WeightMatrix g(4, 8);
  g.set(1, 0, 2);
  g.set(1, 3, 2);
  EXPECT_EQ(g.out_degree(1), 2u);
  EXPECT_EQ(g.out_degree(0), 0u);
  const auto row = g.row(1);
  EXPECT_EQ(row.size(), 4u);
  EXPECT_EQ(row[0], 2u);
  EXPECT_EQ(row[1], g.infinity());
}

TEST(WeightMatrix, TransposeFlipsEveryEdge) {
  WeightMatrix g(3, 8);
  g.set(0, 1, 4);
  g.set(2, 1, 9);
  const WeightMatrix t = g.transposed();
  EXPECT_EQ(t.at(1, 0), 4u);
  EXPECT_EQ(t.at(1, 2), 9u);
  EXPECT_FALSE(t.has_edge(0, 1));
  EXPECT_EQ(t.transposed(), g);  // involution
}

TEST(WeightMatrix, WithBitsWidens) {
  WeightMatrix g(3, 4);
  g.set(0, 1, 14);
  const WeightMatrix wide = g.with_bits(16);
  EXPECT_EQ(wide.field().bits(), 16);
  EXPECT_EQ(wide.at(0, 1), 14u);
  // Infinity entries stay infinity in the new field.
  EXPECT_EQ(wide.at(1, 0), wide.infinity());
}

TEST(WeightMatrix, WithBitsRejectsLossyNarrowing) {
  WeightMatrix g(3, 16);
  g.set(0, 1, 200);
  EXPECT_THROW((void)g.with_bits(4), util::ContractError);
  g.erase(0, 1);
  g.set(0, 1, 3);
  EXPECT_NO_THROW((void)g.with_bits(4));
}

TEST(WeightMatrix, EqualityIsStructural) {
  WeightMatrix a(3, 8);
  WeightMatrix b(3, 8);
  EXPECT_EQ(a, b);
  a.set(0, 1, 1);
  EXPECT_NE(a, b);
  b.set(0, 1, 1);
  EXPECT_EQ(a, b);
}

TEST(WeightMatrix, EveryConstructionDrawsAFreshStamp) {
  const WeightMatrix a(3, 8);
  const WeightMatrix b(3, 8);
  EXPECT_NE(a.stamp(), 0u);
  EXPECT_NE(a.stamp(), b.stamp());
  EXPECT_EQ(a, b);  // equal cells, different stamps
  // Derived matrices are new constructions.
  EXPECT_NE(a.with_bits(8).stamp(), a.stamp());
  EXPECT_NE(a.transposed().stamp(), a.stamp());
  EXPECT_NE(a.with_bits(8).stamp(), a.with_bits(8).stamp());
}

TEST(WeightMatrix, CopiesKeepTheStampUntilChanged) {
  WeightMatrix a(3, 8);
  a.set(0, 1, 4);
  WeightMatrix copy = a;
  EXPECT_EQ(copy.stamp(), a.stamp());
  WeightMatrix assigned(5, 16);
  assigned = a;
  EXPECT_EQ(assigned.stamp(), a.stamp());
  const std::uint64_t moved_stamp = a.stamp();
  const WeightMatrix moved = std::move(assigned);
  EXPECT_EQ(moved.stamp(), moved_stamp);

  copy.set(1, 2, 3);
  EXPECT_NE(copy.stamp(), a.stamp());
  EXPECT_EQ(a.at(1, 2), a.infinity());  // the original is untouched
}

TEST(WeightMatrix, EveryWriteDrawsAFreshStamp) {
  WeightMatrix g(3, 8);
  std::uint64_t last = g.stamp();
  const auto fresh = [&] {
    const bool changed = g.stamp() != last && g.stamp() != 0;
    last = g.stamp();
    return changed;
  };
  g.set(0, 1, 7);
  EXPECT_TRUE(fresh());
  g.set(0, 1, 7);  // same value: still a write
  EXPECT_TRUE(fresh());
  g.set_min(0, 1, 9);  // no improvement: still a write
  EXPECT_TRUE(fresh());
  g.set_min(0, 1, 2);
  EXPECT_TRUE(fresh());
  g.erase(0, 1);
  EXPECT_TRUE(fresh());
  // A rejected write leaves the matrix, and so its stamp, as it was.
  EXPECT_THROW(g.set(0, 1, 300), util::ContractError);
  EXPECT_FALSE(fresh());
  // Reads never move it.
  (void)g.at(0, 1);
  (void)g.edges();
  EXPECT_FALSE(fresh());
}

}  // namespace
}  // namespace ppa::graph
