// All-pairs minimum cost paths, eccentricity and diameter on the PPA.
//
// The single-destination algorithm solves one column of the all-pairs
// problem per run; n runs on one (reused) machine give the full matrix in
// O(n · p̄ · h) SIMD steps. On top of it:
//
//   * in_eccentricity(d) — the largest FINITE minimum cost into d,
//     computed ON the machine with one O(h) selected_max over row d of
//     SOW (candidates: finite entries; (d,d) = 0 keeps the candidate set
//     non-empty even for isolated destinations);
//   * diameter — the largest finite minimum cost over all ordered pairs,
//     i.e. max over d of in_eccentricity(d).
#pragma once

#include <vector>

#include "graph/weight_matrix.hpp"
#include "mcp/mcp.hpp"

namespace ppa::mcp {

struct EccentricityResult {
  Result mcp;                      // the underlying MCP run
  graph::Weight eccentricity = 0;  // max finite cost into the destination
  sim::StepCounter reduction_steps;  // the extra O(h) selected_max
};

/// Runs the MCP toward `destination` on `machine` (dispatching on the
/// machine geometry — a p x p machine with p < n rides the tiled sweep),
/// then reduces row d on the machine itself to the in-eccentricity: one
/// selected_max on the full array, or — virtualized — one selected_max
/// per ceil(n/p) fragment of the host-held cost row with a controller
/// max-fold across blocks (each fragment is 1 PanelIo beat in, 1 out).
/// Eccentricities are bit-identical across geometries and backends.
[[nodiscard]] EccentricityResult eccentricity(sim::Machine& machine,
                                              const graph::WeightMatrix& graph,
                                              graph::Vertex destination,
                                              const Options& options = {});

/// Convenience one-shot with a fresh machine built from `options` like
/// solve()'s (array side, backend, checked mode, masking, faults): the MCP
/// pass runs through the same attempt/recovery loop, so
/// EccentricityResult::mcp equals solve()'s Result. The reduction then
/// runs on a fault-free machine — the retry oracle (same backend and
/// geometry) when the built machine carries faults — so the eccentricity
/// is exact for the row reported.
[[nodiscard]] EccentricityResult solve_eccentricity(const graph::WeightMatrix& graph,
                                                    graph::Vertex destination,
                                                    const Options& options = {});

struct AllPairsResult {
  std::size_t n = 0;
  std::vector<graph::Weight> dist;  // row-major; dist[i*n + j] = cost i -> j
  std::vector<graph::Vertex> next;  // next[i*n + j] = successor of i toward j
  std::size_t total_iterations = 0;
  sim::StepCounter total_steps;
  graph::Weight diameter = 0;  // max finite dist over all ordered pairs

  /// Robustness bookkeeping (see mcp::SolveOutcome): one outcome per
  /// destination — a failed destination leaves its dist column at infinity
  /// (graceful degradation) instead of aborting the whole batch.
  std::vector<SolveOutcome> outcomes;
  std::vector<std::size_t> attempts;          // per destination, 1 = no retry
  std::vector<sim::FaultEvent> fault_events;  // merged in destination order

  [[nodiscard]] graph::Weight dist_at(graph::Vertex i, graph::Vertex j) const {
    return dist[i * n + j];
  }
  [[nodiscard]] graph::Vertex next_at(graph::Vertex i, graph::Vertex j) const {
    return next[i * n + j];
  }
  /// Destinations whose final outcome is VerificationFailed, NonConverged
  /// or HardwareFault.
  [[nodiscard]] std::size_t failed_destinations() const noexcept;
};

/// n MCP runs (one per destination) on a single reused machine.
[[nodiscard]] AllPairsResult all_pairs(const graph::WeightMatrix& graph,
                                       const Options& options = {});

/// Knobs for the coarse-grained parallel all-pairs driver. The destinations
/// are independent single-destination problems, so they can run on separate
/// simulated machines concurrently — this parallelism is a HOST artifact:
/// results, step counts and iteration totals are bit-identical for every
/// `workers` value (each destination's steps are counted on its own machine
/// and merged in destination order).
struct AllPairsOptions {
  Options mcp;              // forwarded to every minimum_cost_path run
  std::size_t workers = 1;  // host threads, the caller included; 0 or 1 = sequential
};

/// All-pairs with `options.workers` destinations in flight at once, one
/// simulated Machine per worker chunk.
[[nodiscard]] AllPairsResult all_pairs(const graph::WeightMatrix& graph,
                                       const AllPairsOptions& options);

}  // namespace ppa::mcp
