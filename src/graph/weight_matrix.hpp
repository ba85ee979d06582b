// Dense weight-matrix graph representation.
//
// The paper maps the problem's data structure — "the matrix of the weights
// associated to each edge of a graph" — one-to-one onto the PE array:
// PE (i, j) holds w_ij, the weight of the directed edge i -> j, and a
// missing edge is MAXINT (+infinity in the h-bit field). WeightMatrix is
// that matrix plus the h-bit field it lives in; every machine model in this
// repo (PPA, GCN, hypercube, plain mesh) and every sequential baseline
// consumes it directly.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "util/check.hpp"
#include "util/saturating.hpp"

namespace ppa::graph {

/// Vertex index. The array is n x n so vertices are 0..n-1.
using Vertex = std::size_t;

/// Edge weight in the h-bit field; HField::infinity() means "no edge".
using Weight = std::uint32_t;

/// Directed edge with weight, used by builders and iteration helpers.
struct Edge {
  Vertex from = 0;
  Vertex to = 0;
  Weight weight = 0;

  friend bool operator==(const Edge&, const Edge&) = default;
};

/// n x n matrix of h-bit weights. Immutable size, mutable entries.
class WeightMatrix {
 public:
  /// Creates an edgeless graph: every entry (including the diagonal) is
  /// infinity. `bits` is the PPA word width h.
  WeightMatrix(std::size_t vertex_count, int bits);

  [[nodiscard]] std::size_t size() const noexcept { return n_; }
  [[nodiscard]] const util::HField& field() const noexcept { return field_; }
  [[nodiscard]] Weight infinity() const noexcept { return field_.infinity(); }

  [[nodiscard]] Weight at(Vertex from, Vertex to) const {
    check_vertex(from);
    check_vertex(to);
    return cells_[from * n_ + to];
  }

  /// Sets w(from, to). The weight must be representable in the field
  /// (infinity itself is allowed and erases the edge).
  void set(Vertex from, Vertex to, Weight weight);

  /// Adds the edge only if `weight` improves on the current entry; used by
  /// generators that may produce parallel edges.
  void set_min(Vertex from, Vertex to, Weight weight);

  /// Removes the edge (entry becomes infinity).
  void erase(Vertex from, Vertex to) { set(from, to, infinity()); }

  [[nodiscard]] bool has_edge(Vertex from, Vertex to) const {
    return at(from, to) != infinity();
  }

  /// Number of finite entries (directed edges).
  [[nodiscard]] std::size_t edge_count() const noexcept;

  /// All finite edges in row-major order.
  [[nodiscard]] std::vector<Edge> edges() const;

  /// Out-degree of a vertex.
  [[nodiscard]] std::size_t out_degree(Vertex v) const;

  /// Read-only row view (length n): weights of edges leaving `from`.
  [[nodiscard]] std::span<const Weight> row(Vertex from) const {
    check_vertex(from);
    return {cells_.data() + from * n_, n_};
  }

  /// Flat row-major view of all n*n cells — what gets loaded into the PEs.
  [[nodiscard]] std::span<const Weight> cells() const noexcept { return cells_; }

  /// The same graph re-encoded in a different word width. Finite weights
  /// must be representable in the new field; throws ContractError otherwise.
  [[nodiscard]] WeightMatrix with_bits(int bits) const;

  /// The reverse graph (every edge flipped): transpose of the matrix.
  [[nodiscard]] WeightMatrix transposed() const;

  /// Content stamp: every constructor and every set / set_min draws a
  /// fresh one from a single process-wide counter, and copies keep it
  /// (their cells are identical). Two matrices with the same stamp hold
  /// the same cells in the same field, so a cache of data derived from
  /// the cells (mcp's packed W panels) can key on it. Never 0.
  [[nodiscard]] std::uint64_t stamp() const noexcept { return stamp_; }

  /// Equal size, field and cells; the stamp is ignored.
  friend bool operator==(const WeightMatrix& a, const WeightMatrix& b) {
    return a.n_ == b.n_ && a.field_ == b.field_ && a.cells_ == b.cells_;
  }

 private:
  void check_vertex(Vertex v) const {
    PPA_REQUIRE(v < n_, "vertex index out of range");
  }

  std::size_t n_;
  util::HField field_;
  std::vector<Weight> cells_;
  std::uint64_t stamp_;
};

}  // namespace ppa::graph
