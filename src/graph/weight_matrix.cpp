#include "graph/weight_matrix.hpp"

#include <algorithm>
#include <atomic>

namespace ppa::graph {

namespace {

std::uint64_t next_stamp() noexcept {
  static std::atomic<std::uint64_t> counter{0};
  return counter.fetch_add(1, std::memory_order_relaxed) + 1;
}

}  // namespace

WeightMatrix::WeightMatrix(std::size_t vertex_count, int bits)
    : n_(vertex_count),
      field_(bits),
      cells_(vertex_count * vertex_count, field_.infinity()),
      stamp_(next_stamp()) {
  PPA_REQUIRE(vertex_count >= 1, "a graph needs at least one vertex");
}

void WeightMatrix::set(Vertex from, Vertex to, Weight weight) {
  check_vertex(from);
  check_vertex(to);
  PPA_REQUIRE(field_.representable(weight), "weight does not fit in the h-bit field");
  cells_[from * n_ + to] = weight;
  stamp_ = next_stamp();
}

void WeightMatrix::set_min(Vertex from, Vertex to, Weight weight) {
  check_vertex(from);
  check_vertex(to);
  PPA_REQUIRE(field_.representable(weight), "weight does not fit in the h-bit field");
  Weight& cell = cells_[from * n_ + to];
  cell = std::min(cell, weight);
  stamp_ = next_stamp();
}

std::size_t WeightMatrix::edge_count() const noexcept {
  return static_cast<std::size_t>(
      std::count_if(cells_.begin(), cells_.end(),
                    [inf = infinity()](Weight w) { return w != inf; }));
}

std::vector<Edge> WeightMatrix::edges() const {
  std::vector<Edge> result;
  result.reserve(edge_count());
  for (Vertex i = 0; i < n_; ++i) {
    for (Vertex j = 0; j < n_; ++j) {
      const Weight w = cells_[i * n_ + j];
      if (w != infinity()) result.push_back(Edge{i, j, w});
    }
  }
  return result;
}

std::size_t WeightMatrix::out_degree(Vertex v) const {
  const auto r = row(v);
  return static_cast<std::size_t>(
      std::count_if(r.begin(), r.end(), [inf = infinity()](Weight w) { return w != inf; }));
}

WeightMatrix WeightMatrix::with_bits(int bits) const {
  WeightMatrix result(n_, bits);
  for (Vertex i = 0; i < n_; ++i) {
    for (Vertex j = 0; j < n_; ++j) {
      const Weight w = at(i, j);
      if (w == infinity()) continue;  // stays the new field's infinity
      PPA_REQUIRE(result.field().representable(w) && w != result.infinity(),
                  "finite weight not representable in the narrower field");
      result.set(i, j, w);
    }
  }
  return result;
}

WeightMatrix WeightMatrix::transposed() const {
  WeightMatrix result(n_, field_.bits());
  for (Vertex i = 0; i < n_; ++i) {
    for (Vertex j = 0; j < n_; ++j) {
      result.cells_[j * n_ + i] = cells_[i * n_ + j];
    }
  }
  return result;
}

}  // namespace ppa::graph
