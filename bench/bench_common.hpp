// Shared workload builders and run helpers for the experiment benches.
//
// Every bench binary follows the same shape:
//   1. print the experiment table(s) that reproduce the paper's claim
//      (deterministic, seeded workloads; SIMD step counts from the
//      simulator), then
//   2. hand over to google-benchmark for wall-clock measurements of the
//      same code paths.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "graph/generators.hpp"
#include "graph/properties.hpp"
#include "mcp/mcp.hpp"
#include "obs/json.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

namespace ppa::bench {

/// One measured configuration in a perf trajectory file (BENCH_e6.json).
/// The fields are the obs::field constants — the exact names the metrics
/// dump's "run" object uses — so tools/perf_gate.py reads bench baselines
/// and `ppa_mcp --metrics-out` dumps with the same matching logic.
struct PerfRecord {
  std::string workload;  // "mcp" | "all_pairs"
  std::string backend;   // "word" | "bitplane"
  std::size_t n = 0;
  std::size_t host_threads = 1;  // all-pairs worker lanes; 1 for every other workload
  std::size_t batch_width = 1;  // destinations per machine pass (docs/batching.md)
  std::size_t active_panels = 1;  // 0 = dense every-panel sweep (docs/tiling.md)
  std::uint64_t simd_steps = 0;
  double wall_seconds = 0;
  double pe_ops_per_sec = 0;
  std::string simd = "none";  // dispatched kernel variant (bitplane runs)
};

/// Writes the perf records as a JSON array through the observability
/// layer's writer (same escaping and number formatting everywhere).
inline void write_perf_records(const std::vector<PerfRecord>& records, const char* path) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "error: cannot write %s\n", path);
    return;
  }
  obs::JsonWriter w(out);
  w.begin_array();
  for (const PerfRecord& r : records) {
    w.begin_object();
    w.kv(obs::field::kWorkload, r.workload);
    w.kv(obs::field::kBackend, r.backend);
    w.kv(obs::field::kN, r.n);
    w.kv(obs::field::kHostThreads, r.host_threads);
    w.kv(obs::field::kBatchWidth, r.batch_width);
    w.kv(obs::field::kActivePanels, r.active_panels);
    w.kv(obs::field::kSimdSteps, r.simd_steps);
    w.kv(obs::field::kWallSeconds, r.wall_seconds);
    w.kv(obs::field::kPeOpsPerSec, r.pe_ops_per_sec);
    w.kv(obs::field::kSimd, r.simd);
    w.end_object();
  }
  w.end_array();
  out << "\n";
  std::printf("wrote %zu records to %s\n\n", records.size(), path);
}

/// The E2 workload: n vertices, destination 0; vertices 1..p form a chain
/// 1 -> 0, 2 -> 1, ... (unit weights), and every vertex above p has a
/// direct unit edge to 0. The maximum MCP length is exactly p, at a fixed
/// machine size n — which is what lets E2 sweep p in isolation.
inline graph::WeightMatrix chain_with_direct(std::size_t n, std::size_t p, int bits) {
  PPA_REQUIRE(p >= 1 && p < n, "need 1 <= p < n");
  graph::WeightMatrix g(n, bits);
  for (std::size_t v = 1; v <= p; ++v) g.set(v, v - 1, 1);
  for (std::size_t v = p + 1; v < n; ++v) g.set(v, 0, 1);
  return g;
}

/// Steps spent per relaxation iteration, excluding the init phase.
inline double per_iteration_steps(std::uint64_t total, std::uint64_t init,
                                  std::size_t iterations) {
  return iterations == 0 ? 0.0
                         : static_cast<double>(total - init) / static_cast<double>(iterations);
}

/// Prints the table and, when the environment variable PPA_BENCH_CSV
/// names a file, appends its CSV form there (one '# <title>' comment line
/// followed by the header + rows), so experiment sweeps are scriptable.
inline void emit(const util::Table& table) {
  table.print(std::cout);
  if (const char* path = std::getenv("PPA_BENCH_CSV"); path != nullptr && *path != '\0') {
    std::ofstream csv(path, std::ios::app);
    if (csv) csv << "# " << table.title() << '\n' << table.to_csv() << '\n';
  }
}

inline void print_header(const char* id, const char* claim) {
  std::printf("==============================================================\n");
  std::printf("%s\n", id);
  std::printf("Claim under test: %s\n", claim);
  std::printf("==============================================================\n\n");
}

}  // namespace ppa::bench
