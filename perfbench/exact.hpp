// The benchmark's exact reference: minimum path costs in unbounded 64-bit
// arithmetic. The library's own oracles (the sequential baselines and the
// certificate checker) add in the h-bit field and saturate at 2^h - 1, so
// they cannot see a truncated cost; this one can.
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "graph/weight_matrix.hpp"

namespace perfbench {

inline constexpr std::uint64_t kUnreachable = std::numeric_limits<std::uint64_t>::max();

/// Single-destination Dijkstra over the reverse adjacency of one graph.
class ExactOracle {
 public:
  explicit ExactOracle(const ppa::graph::WeightMatrix& graph);

  struct Paths {
    std::vector<std::uint64_t> cost;  // cheapest i -> destination, kUnreachable if none
    std::vector<std::uint32_t> hops;  // fewest edges among the cheapest paths
  };

  [[nodiscard]] Paths paths_to(ppa::graph::Vertex destination) const;

  [[nodiscard]] std::vector<std::uint64_t> costs_to(ppa::graph::Vertex destination) const {
    return paths_to(destination).cost;
  }

 private:
  struct InEdge {
    ppa::graph::Vertex from;
    std::uint64_t weight;
  };
  std::vector<std::vector<InEdge>> in_edges_;
};

/// What the h-bit field can represent of an exact cost: the cost itself
/// below `infinity`, else `infinity` (the paper's MAXINT saturation).
[[nodiscard]] std::uint64_t clamp_to_field(std::uint64_t exact, std::uint64_t infinity);

/// How one returned cost row compares with the exact reference.
struct RowCheck {
  bool exact = false;  // every entry equals the unbounded cost
  bool field = false;  // every entry equals the field-clamped cost
};

[[nodiscard]] RowCheck check_row(const std::vector<ppa::graph::Weight>& row,
                                 const std::vector<std::uint64_t>& exact,
                                 std::uint64_t infinity);

}  // namespace perfbench
