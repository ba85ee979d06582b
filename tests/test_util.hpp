// Shared helpers for the test suite.
#pragma once

#include <gtest/gtest.h>

#include <vector>

#include "baseline/sequential.hpp"
#include "graph/path.hpp"
#include "graph/weight_matrix.hpp"
#include "sim/fault_model.hpp"

namespace ppa::test {

/// Asserts that `solution` is a fully correct single-destination solution
/// of `g`: costs equal Dijkstra's and every finite-cost PTN chain traces a
/// path of exactly the claimed cost.
inline void expect_solves(const graph::WeightMatrix& g, const graph::McpSolution& solution,
                          const std::string& label) {
  const graph::McpSolution reference = baseline::dijkstra_to(g, solution.destination);
  const graph::VerifyResult verdict = graph::verify_solution(g, solution, reference.cost);
  EXPECT_TRUE(verdict.ok) << label << ": " << verdict.detail;
}

/// A 4-vertex graph with a unique shortest-path structure toward vertex 3:
///   0 -(2)-> 1 -(3)-> 3,  0 -(9)-> 3,  2 -(1)-> 3,  2 -(1)-> 0
/// costs to 3: {5, 3, 1, 0}; next hops: {1, 3, 3, 3}.
inline graph::WeightMatrix tiny_graph(int bits = 8) {
  graph::WeightMatrix g(4, bits);
  g.set(0, 1, 2);
  g.set(1, 3, 3);
  g.set(0, 3, 9);
  g.set(2, 3, 1);
  g.set(2, 0, 1);
  return g;
}

/// One transient stuck wire whose only afflicted bus cycle is 2^40 - 1: a
/// machine with this fault plans no charge-only cycle (has_faults() holds),
/// yet no run ever meets the fault, so it resolves every cycle a clean
/// machine charges from a plan, with the same results.
inline sim::FaultModel inert_fault() {
  constexpr std::size_t kPeriod = std::size_t{1} << 40;
  sim::FaultModel model;
  model.add({sim::FaultKind::StuckBit, sim::Axis::Row, 0, 0, 0, true, kPeriod, kPeriod - 1});
  return model;
}

}  // namespace ppa::test
