#include "exact.hpp"

#include <functional>
#include <queue>
#include <utility>

namespace perfbench {

ExactOracle::ExactOracle(const ppa::graph::WeightMatrix& graph) : in_edges_(graph.size()) {
  const std::size_t n = graph.size();
  const auto cells = graph.cells();
  const ppa::graph::Weight inf = graph.infinity();
  for (std::size_t from = 0; from < n; ++from) {
    for (std::size_t to = 0; to < n; ++to) {
      const ppa::graph::Weight w = cells[from * n + to];
      if (from != to && w != inf) in_edges_[to].push_back({from, w});
    }
  }
}

ExactOracle::Paths ExactOracle::paths_to(ppa::graph::Vertex destination) const {
  const std::size_t n = in_edges_.size();
  Paths p{std::vector<std::uint64_t>(n, kUnreachable), std::vector<std::uint32_t>(n, 0)};
  // Lexicographic (cost, hops) Dijkstra: among equally cheap paths the one
  // with the fewest edges wins, which is when a Jacobi relaxation settles.
  using Key = std::pair<std::uint64_t, std::uint32_t>;
  using Entry = std::pair<Key, ppa::graph::Vertex>;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> frontier;
  p.cost[destination] = 0;
  frontier.push({{0, 0}, destination});
  while (!frontier.empty()) {
    const auto [key, v] = frontier.top();
    frontier.pop();
    if (key != Key{p.cost[v], p.hops[v]}) continue;
    for (const InEdge& e : in_edges_[v]) {
      const Key next{key.first + e.weight, key.second + 1};
      if (next < Key{p.cost[e.from], p.hops[e.from]}) {
        p.cost[e.from] = next.first;
        p.hops[e.from] = next.second;
        frontier.push({next, e.from});
      }
    }
  }
  return p;
}

std::uint64_t clamp_to_field(std::uint64_t exact, std::uint64_t infinity) {
  return exact < infinity ? exact : infinity;
}

RowCheck check_row(const std::vector<ppa::graph::Weight>& row,
                   const std::vector<std::uint64_t>& exact, std::uint64_t infinity) {
  RowCheck check{row.size() == exact.size(), row.size() == exact.size()};
  for (std::size_t i = 0; i < row.size() && (check.exact || check.field); ++i) {
    const std::uint64_t got = row[i];
    const bool unreachable = exact[i] == kUnreachable;
    if (unreachable ? got != infinity : got != exact[i]) check.exact = false;
    if (got != clamp_to_field(exact[i], infinity)) check.field = false;
  }
  return check;
}

}  // namespace perfbench
