// ppa_mcp — command-line driver for the library.
//
//   ppa_mcp gen    --family random --n 16 --seed 1 --out graph.txt [...]
//   ppa_mcp solve  --graph graph.txt --dest 0 --out solution.txt
//                  [--model ppa|gcn|mesh|hypercube] [--backend word|bitplane]
//                  [--array-side P] [--active-panels on|off] [--trace]
//                  [--faults <spec>] [--verify]
//                  [--max-retries N] [--recovery retry|tmr|ecc|tmr+retry]
//                  [--checked] [--metrics-out FILE] [--prom-out FILE]
//                  [--trace-chrome FILE] [--stats]
//                  [--snapshot-every N --snapshot-out FILE]
//   ppa_mcp verify --graph graph.txt --solution solution.txt --dest 0
//   ppa_mcp info   --graph graph.txt [--dest 0]
//   ppa_mcp closure --graph graph.txt [--backend word|bitplane]
//                  [--array-side P] [--active-panels on|off]
//   ppa_mcp allpairs --graph graph.txt [--array-side P] [--batch-width K]
//                  [--active-panels on|off]
//                  [--faults <spec>] [--verify] [--max-retries N]
//                  [--recovery retry|tmr|ecc|tmr+retry] [--checked]
//                  [--metrics-out FILE] [--prom-out FILE]
//                  [--trace-chrome FILE] [--stats]
//   ppa_mcp eccentricity --graph graph.txt [--backend word|bitplane]
//                  [--array-side P] [--active-panels on|off]
//
// --array-side P (ppa only) virtualizes the run on a P x P physical array
// (P < n sweeps the weight matrix in panels, docs/tiling.md); 0 = full
// array. Solutions are bit-identical either way; fault coordinates in
// --faults address the PHYSICAL array, so they must be < P.
// --active-panels off (tiled runs only) disables the activity-driven panel
// schedule and restores the dense every-panel sweep; results are
// bit-identical either way, only the PanelIo charge differs.
// --batch-width K (allpairs, bitplane backend) solves K destinations per
// shared machine pass (docs/batching.md); rows, iteration counts and
// outcomes are bit-identical to K=1, only the step profile changes.
//
// Observability (docs/observability.md): --metrics-out writes the
// ppa.metrics.v1 JSON dump, --prom-out a Prometheus text exposition,
// --trace-chrome a Perfetto-loadable Chrome trace, --stats a human summary
// with the per-category step/wall attribution table; --snapshot-every N
// (solve only) streams a metrics snapshot to --snapshot-out as one JSON
// line per N relaxation iterations. When any fault events were recorded
// the tool prints a one-line kind tally on stderr.
//
// The fault spec grammar is sim/fault_model.hpp's, e.g.
// "dead:2,3;stuck-bit:row,1,0,1;random:7,4" (docs/robustness.md).
//
// Everything the subcommands do is library functionality; the tool only
// parses flags and moves files, so it stays thin and fully covered by the
// library's test suite (plus the tool-level integration test). Any
// ParseError / ContractError escaping a subcommand is reported as a
// one-line stderr error with exit code 2 — never an uncaught abort.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>

#include "baseline/gcn.hpp"
#include "baseline/hypercube.hpp"
#include "baseline/mesh_mcp.hpp"
#include "baseline/sequential.hpp"
#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "graph/properties.hpp"
#include "graph/solution_io.hpp"
#include "mcp/allpairs.hpp"
#include "mcp/closure.hpp"
#include "mcp/mcp.hpp"
#include "mcp/tiled.hpp"
#include "obs/chrome_trace.hpp"
#include "obs/collector.hpp"
#include "obs/export.hpp"
#include "sim/fault_model.hpp"
#include "util/check.hpp"
#include "util/cli.hpp"
#include "util/stopwatch.hpp"

using namespace ppa;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: ppa_mcp <gen|solve|verify|info|closure|allpairs|eccentricity> [flags]\n"
               "run `ppa_mcp <subcommand> --help` for the flag list\n");
  return 2;
}

/// Parses --backend. Returns false (after printing to stderr) on an
/// unknown name; both backends produce bit-identical results and step
/// counts, so the flag only selects the host execution strategy.
bool parse_backend(const std::string& name, sim::ExecBackend& out) {
  if (name == "word") {
    out = sim::ExecBackend::Words;
    return true;
  }
  if (name == "bitplane") {
    out = sim::ExecBackend::BitPlane;
    return true;
  }
  std::fprintf(stderr, "error: unknown --backend '%s' (expected word|bitplane)\n",
               name.c_str());
  return false;
}

/// Robustness flags shared by `solve` and `allpairs`.
void add_robustness_flags(util::CliParser& cli) {
  cli.flag("faults", "fault injection spec, e.g. 'dead:1,2;stuck-bit:row,0,3,1'", "");
  cli.flag("max-retries", "solve retries on a fault-free oracle (same backend)", "0");
  cli.flag("recovery",
           "fault handling: retry (verify-then-retry), tmr (3x voted bus cycles), "
           "ecc (parity planes, bitplane backend only), tmr+retry",
           "retry");
  cli.bool_flag("verify", "check each solution against the host certificate checker");
  cli.bool_flag("checked", "record bus contention / undriven reads as fault events");
}

/// Reads --array-side into `options`. Returns false (after a one-line
/// stderr message) on a negative value; 0 keeps the full-array path.
bool read_array_side(const util::CliParser& cli, mcp::Options& options) {
  const std::int64_t side = cli.get_int("array-side");
  if (side < 0) {
    std::fprintf(stderr, "error: --array-side must be >= 0 (0 = full array)\n");
    return false;
  }
  options.array_side = static_cast<std::size_t>(side);
  return true;
}

/// Parses --active-panels ("on" | "off") into `out`. Returns false (after
/// a one-line stderr message) on anything else.
bool parse_active_panels(const std::string& value, bool& out) {
  if (value == "on") {
    out = true;
    return true;
  }
  if (value == "off") {
    out = false;
    return true;
  }
  std::fprintf(stderr, "error: --active-panels must be on or off (got '%s')\n",
               value.c_str());
  return false;
}

/// Reads the shared robustness flags back into `options`. Returns false
/// (after a one-line stderr message) on a bad retry count; a malformed
/// --faults spec throws util::ParseError, which main() turns into exit 2.
/// Fault coordinates address the machine actually built, so with
/// --array-side they validate against the PHYSICAL side, not n.
bool read_robustness_flags(const util::CliParser& cli, const graph::WeightMatrix& g,
                           mcp::Options& options) {
  const std::int64_t retries = cli.get_int("max-retries");
  if (retries < 0) {
    std::fprintf(stderr, "error: --max-retries must be >= 0\n");
    return false;
  }
  options.max_retries = static_cast<std::size_t>(retries);
  options.verify = cli.get_bool("verify");
  options.checked = cli.get_bool("checked");
  const std::string recovery = cli.get_string("recovery");
  if (recovery == "retry") {
    options.recovery = mcp::RecoveryPolicy::Retry;
  } else if (recovery == "tmr") {
    options.recovery = mcp::RecoveryPolicy::Tmr;
  } else if (recovery == "ecc") {
    options.recovery = mcp::RecoveryPolicy::Ecc;
  } else if (recovery == "tmr+retry") {
    options.recovery = mcp::RecoveryPolicy::TmrThenRetry;
  } else {
    std::fprintf(stderr,
                 "error: --recovery must be retry, tmr, ecc or tmr+retry (got '%s')\n",
                 recovery.c_str());
    return false;
  }
  if (options.recovery == mcp::RecoveryPolicy::Ecc &&
      options.backend != sim::ExecBackend::BitPlane) {
    std::fprintf(stderr,
                 "error: --recovery ecc rides the bit-plane bus engine; it requires "
                 "--backend bitplane\n");
    return false;
  }
  const std::string spec = cli.get_string("faults");
  if (!spec.empty()) {
    const std::size_t side = mcp::effective_array_side(options, g.size());
    options.faults = sim::FaultModel::parse(spec, side, g.field().bits());
  }
  return true;
}

/// Observability flags shared by `solve` and `allpairs`
/// (docs/observability.md).
void add_observability_flags(util::CliParser& cli) {
  cli.flag("metrics-out", "write the ppa.metrics.v1 JSON metrics dump to this file", "");
  cli.flag("prom-out", "write a Prometheus text exposition to this file", "");
  cli.flag("trace-chrome", "write a Chrome trace_event (Perfetto) trace to this file", "");
  cli.flag("snapshot-every",
           "stream a metrics snapshot every N relaxation iterations (solve only; "
           "0 = off)",
           "0");
  cli.flag("snapshot-out", "JSONL file the periodic snapshots append to", "");
  cli.bool_flag("stats", "print a human-readable metrics summary to stdout");
}

/// The observability state one subcommand run owns: a Collector when any
/// of the observability flags asked for one, plus the streaming Chrome
/// writer and the snapshot stream.
struct Observability {
  std::unique_ptr<obs::Collector> collector;
  std::ofstream chrome_file;
  std::unique_ptr<obs::ChromeTraceWriter> chrome;
  std::ofstream snapshot_file;
  std::string metrics_path;
  std::string prom_path;
  std::string snapshot_path;
  std::uint64_t snapshot_every = 0;
  bool stats = false;

  [[nodiscard]] bool enabled() const noexcept { return collector != nullptr; }
};

/// Builds the run's observability state from the parsed flags. `live`
/// attaches the Chrome writer to the collector so instruction/span events
/// stream as they happen (single-destination solve); without it the caller
/// exports the merged span tree post hoc (all-pairs). Returns false after
/// a stderr message when the trace file cannot be opened.
bool setup_observability(const util::CliParser& cli, bool live, Observability& out) {
  out.metrics_path = cli.get_string("metrics-out");
  out.prom_path = cli.get_string("prom-out");
  out.snapshot_path = cli.get_string("snapshot-out");
  out.stats = cli.get_bool("stats");
  const std::int64_t snapshot_every = cli.get_int("snapshot-every");
  if (snapshot_every < 0) {
    std::fprintf(stderr, "error: --snapshot-every must be >= 0 (0 = off)\n");
    return false;
  }
  out.snapshot_every = static_cast<std::uint64_t>(snapshot_every);
  if (out.snapshot_every != 0 && out.snapshot_path.empty()) {
    std::fprintf(stderr, "error: --snapshot-every requires --snapshot-out\n");
    return false;
  }
  const std::string chrome_path = cli.get_string("trace-chrome");
  if (out.metrics_path.empty() && out.prom_path.empty() && chrome_path.empty() &&
      !out.stats && out.snapshot_every == 0) {
    return true;
  }
  out.collector = std::make_unique<obs::Collector>();
  if (!chrome_path.empty()) {
    out.chrome_file.open(chrome_path);
    if (!out.chrome_file) {
      std::fprintf(stderr, "error: cannot open --trace-chrome file '%s'\n",
                   chrome_path.c_str());
      return false;
    }
    out.chrome = std::make_unique<obs::ChromeTraceWriter>(out.chrome_file);
    if (live) out.collector->set_chrome(out.chrome.get());
  }
  return true;
}

/// Installs the periodic JSONL snapshot stream on the live collector
/// (solve only: snapshots fire from the per-iteration hook, which the
/// all-pairs driver feeds into per-destination collectors instead). `run`
/// is the context known before the run; simd_steps / wall_seconds stay 0
/// in snapshots — the final dump carries the totals. Returns false after a
/// stderr message when the file cannot be opened.
bool setup_snapshots(Observability& o, const obs::RunInfo& run) {
  if (o.snapshot_every == 0) return true;
  o.snapshot_file.open(o.snapshot_path);
  if (!o.snapshot_file) {
    std::fprintf(stderr, "error: cannot open --snapshot-out file '%s'\n",
                 o.snapshot_path.c_str());
    return false;
  }
  o.collector->set_snapshot_hook(o.snapshot_every,
                                 [&o, run](const obs::Collector& collector) {
                                   obs::write_metrics_json(o.snapshot_file, collector, run);
                                   o.snapshot_file.flush();
                                 });
  return true;
}

/// Writes the requested artifacts. Returns 2 (after a stderr message) when
/// an output file cannot be written, 0 otherwise.
int finish_observability(Observability& o, const obs::RunInfo& run) {
  if (!o.enabled()) return 0;
  if (o.chrome != nullptr) {
    if (o.collector->chrome() == nullptr) o.collector->export_spans(*o.chrome);
    o.chrome->finish();
  }
  if (!o.metrics_path.empty()) {
    std::ofstream f(o.metrics_path);
    if (!f) {
      std::fprintf(stderr, "error: cannot open --metrics-out file '%s'\n",
                   o.metrics_path.c_str());
      return 2;
    }
    obs::write_metrics_json(f, *o.collector, run);
  }
  if (!o.prom_path.empty()) {
    std::ofstream f(o.prom_path);
    if (!f) {
      std::fprintf(stderr, "error: cannot open --prom-out file '%s'\n",
                   o.prom_path.c_str());
      return 2;
    }
    obs::write_prometheus(f, *o.collector, run);
  }
  if (o.stats) obs::write_stats_summary(std::cout, *o.collector, run);
  return 0;
}

/// One-line kind-by-kind tally on STDERR whenever a run recorded fault
/// events, e.g. "fault-events: bus_contention=12 undriven_read=3" —
/// machine-greppable regardless of what stdout reports (pinned by
/// tests/tool_errors.cmake).
void print_fault_tally(const std::vector<sim::FaultEvent>& events) {
  if (events.empty()) return;
  std::size_t tally[4] = {};
  for (const sim::FaultEvent& e : events) tally[static_cast<int>(e.kind)] += e.count;
  std::string line = "fault-events:";
  for (int k = 0; k < 4; ++k) {
    if (tally[k] == 0) continue;
    line += ' ';
    line += sim::name_of(static_cast<sim::FaultEventKind>(k));
    line += '=';
    line += std::to_string(tally[k]);
  }
  std::fprintf(stderr, "%s\n", line.c_str());
}

bool is_failure(mcp::SolveOutcome outcome) {
  return outcome == mcp::SolveOutcome::VerificationFailed ||
         outcome == mcp::SolveOutcome::NonConverged ||
         outcome == mcp::SolveOutcome::HardwareFault;
}

/// Prints the outcome / attempts / fault-event summary for one solve when
/// any robustness feature produced something worth reporting.
void print_outcome(const mcp::Result& r) {
  if (r.outcome == mcp::SolveOutcome::Unchecked && r.fault_events.empty() &&
      r.masking.votes == 0) {
    return;
  }
  std::printf("outcome=%s attempts=%zu fault-events=%zu\n", mcp::name_of(r.outcome),
              r.attempts, r.fault_events.size());
  if (r.masking.votes != 0) {
    std::printf("masking: votes=%llu corrections=%llu uncorrectable=%llu\n",
                static_cast<unsigned long long>(r.masking.votes),
                static_cast<unsigned long long>(r.masking.corrections),
                static_cast<unsigned long long>(r.masking.uncorrectable));
  }
  if (!r.verify_detail.empty()) std::printf("verify: %s\n", r.verify_detail.c_str());
  const std::size_t shown = std::min<std::size_t>(r.fault_events.size(), 5);
  for (std::size_t i = 0; i < shown; ++i) {
    std::printf("  fault: %s\n", sim::to_string(r.fault_events[i]).c_str());
  }
  if (shown < r.fault_events.size()) {
    std::printf("  ... %zu more fault events\n", r.fault_events.size() - shown);
  }
}

int cmd_gen(int argc, const char* const* argv) {
  util::CliParser cli("generate a workload graph");
  cli.flag("family",
           "random|reachable|ring|grid|banded|geometric|complete|"
           "ring-of-cliques|power-law",
           "random");
  cli.flag("n", "vertex count (grid: side^2)", "16");
  cli.flag("bits", "word width h", "16");
  cli.flag("seed", "RNG seed", "1");
  cli.flag("density", "edge probability (random families)", "0.25");
  cli.flag("dest", "destination guaranteed reachable (family=reachable)", "0");
  cli.flag("clique-size", "vertices per clique (family=ring-of-cliques; must divide n)",
           "8");
  cli.flag("attach", "attachment edges per vertex (family=power-law)", "2");
  cli.flag("back-prob", "reverse-edge probability (family=power-law)", "0.1");
  cli.flag("w-lo", "minimum edge weight", "1");
  cli.flag("w-hi", "maximum edge weight", "20");
  cli.flag("out", "output graph file", "graph.txt");
  if (!cli.parse(argc, argv)) return 2;

  const auto n = static_cast<std::size_t>(cli.get_int("n"));
  const auto bits = static_cast<int>(cli.get_int("bits"));
  util::Rng rng(static_cast<std::uint64_t>(cli.get_int("seed")));
  const graph::WeightRange range{static_cast<graph::Weight>(cli.get_int("w-lo")),
                                 static_cast<graph::Weight>(cli.get_int("w-hi"))};
  const std::string family = cli.get_string("family");

  graph::WeightMatrix g = [&]() -> graph::WeightMatrix {
    if (family == "reachable") {
      return graph::random_reachable_digraph(
          n, bits, cli.get_double("density"), range,
          static_cast<graph::Vertex>(cli.get_int("dest")), rng);
    }
    if (family == "ring") return graph::directed_ring(n, bits, range, rng);
    if (family == "grid") {
      const auto side = static_cast<std::size_t>(cli.get_int("n"));
      return graph::grid_mesh(side, side, bits, range, rng);
    }
    if (family == "banded") return graph::banded(n, bits, 3, range, rng);
    if (family == "geometric") return graph::geometric(n, bits, 0.4, range, rng);
    if (family == "complete") return graph::complete(n, bits, range, rng);
    if (family == "ring-of-cliques") {
      const auto clique_size = static_cast<std::size_t>(cli.get_int("clique-size"));
      PPA_REQUIRE(clique_size >= 1 && n % clique_size == 0,
                  "--clique-size must divide --n");
      return graph::ring_of_cliques(n / clique_size, clique_size, bits, range, rng);
    }
    if (family == "power-law") {
      return graph::power_law(n, bits, static_cast<std::size_t>(cli.get_int("attach")),
                              cli.get_double("back-prob"), range, rng);
    }
    return graph::random_digraph(n, bits, cli.get_double("density"), range, rng);
  }();

  graph::save_graph(cli.get_string("out"), g);
  std::printf("wrote %s: %zu vertices, %zu edges, h = %d\n", cli.get_string("out").c_str(),
              g.size(), g.edge_count(), g.field().bits());
  return 0;
}

int cmd_solve(int argc, const char* const* argv) {
  util::CliParser cli("solve MCP on a machine model");
  cli.flag("graph", "input graph file", "graph.txt");
  cli.flag("dest", "destination vertex", "0");
  cli.flag("model", "ppa|gcn|mesh|hypercube", "ppa");
  cli.flag("backend", "host execution backend, word|bitplane (ppa only)", "word");
  cli.flag("array-side", "physical array side P; 0 = full array, P < n runs tiled (ppa only)",
           "0");
  cli.flag("active-panels",
           "activity-driven panel schedule on tiled runs, on|off (ppa only)", "on");
  cli.flag("out", "output solution file", "solution.txt");
  cli.bool_flag("trace", "print per-iteration statistics (ppa only)");
  add_robustness_flags(cli);
  add_observability_flags(cli);
  if (!cli.parse(argc, argv)) return 2;

  const auto g = graph::load_graph(cli.get_string("graph"));
  const auto d = static_cast<graph::Vertex>(cli.get_int("dest"));
  const std::string model = cli.get_string("model");
  if (model != "ppa" &&
      (cli.get_bool("verify") || cli.get_bool("checked") ||
       !cli.get_string("faults").empty() || cli.get_int("max-retries") != 0 ||
       cli.get_string("recovery") != "retry" ||
       cli.get_int("array-side") != 0 || cli.get_string("active-panels") != "on" ||
       !cli.get_string("metrics-out").empty() ||
       !cli.get_string("prom-out").empty() || !cli.get_string("trace-chrome").empty() ||
       cli.get_int("snapshot-every") != 0 || !cli.get_string("snapshot-out").empty() ||
       cli.get_bool("stats"))) {
    std::fprintf(stderr,
                 "error: --faults/--verify/--max-retries/--recovery/--checked/"
                 "--array-side/--active-panels and the observability flags require "
                 "--model=ppa\n");
    return 2;
  }

  graph::McpSolution solution;
  std::size_t iterations = 0;
  sim::StepCounter steps;
  int rc = 0;
  if (model == "gcn") {
    const auto r = baseline::gcn::solve(g, d);
    solution = r.solution;
    iterations = r.iterations;
    steps = r.total_steps;
  } else if (model == "mesh") {
    const auto r = baseline::mesh_solve(g, d);
    solution = r.solution;
    iterations = r.iterations;
    steps = r.total_steps;
  } else if (model == "hypercube") {
    const auto r = baseline::hypercube::minimum_cost_path(g, d);
    solution = r.solution;
    iterations = r.iterations;
    steps = r.total_steps;
  } else if (model == "ppa") {
    mcp::Options options;
    options.record_iterations = cli.get_bool("trace");
    if (!parse_backend(cli.get_string("backend"), options.backend)) return 2;
    if (!read_array_side(cli, options)) return 2;
    if (!parse_active_panels(cli.get_string("active-panels"), options.active_panels)) {
      return 2;
    }
    if (!read_robustness_flags(cli, g, options)) return 2;
    Observability obs_state;
    if (!setup_observability(cli, /*live=*/true, obs_state)) return 2;
    options.observer = obs_state.collector.get();
    obs::RunInfo snapshot_run;
    snapshot_run.workload = "mcp";
    snapshot_run.backend = cli.get_string("backend");
    snapshot_run.n = g.size();
    snapshot_run.host_threads = 1;
    snapshot_run.active_panels = options.active_panels ? 1 : 0;
    if (obs_state.enabled() && !setup_snapshots(obs_state, snapshot_run)) return 2;
    util::Stopwatch timer;
    const auto r = mcp::solve(g, d, options);
    const double wall_seconds = timer.seconds();
    solution = r.solution;
    iterations = r.iterations;
    steps = r.total_steps;
    if (cli.get_bool("trace")) {
      for (std::size_t k = 0; k < r.iteration_trace.size(); ++k) {
        std::printf("iteration %zu: %zu improved, %llu steps\n", k + 1,
                    r.iteration_trace[k].changed,
                    static_cast<unsigned long long>(r.iteration_trace[k].steps.total()));
      }
    }
    print_outcome(r);
    print_fault_tally(r.fault_events);
    obs::RunInfo run;
    run.workload = "mcp";
    run.backend = cli.get_string("backend");
    run.n = g.size();
    run.host_threads = 1;
    run.active_panels = options.active_panels ? 1 : 0;
    run.simd_steps = r.total_steps.total();
    run.wall_seconds = wall_seconds;
    const int obs_rc = finish_observability(obs_state, run);
    if (obs_rc != 0) return obs_rc;
    if (is_failure(r.outcome)) rc = 1;
  } else {
    std::fprintf(stderr, "unknown model: %s\n", model.c_str());
    return 2;
  }

  // The (possibly degraded) solution is written even on a failure outcome
  // so it can be inspected; the exit code carries the verdict.
  graph::save_solution(cli.get_string("out"), solution, g.infinity());
  std::printf("model=%s iterations=%zu %s\n", model.c_str(), iterations,
              steps.summary().c_str());
  std::printf("wrote %s\n", cli.get_string("out").c_str());
  return rc;
}

int cmd_verify(int argc, const char* const* argv) {
  util::CliParser cli("verify a solution file against a graph");
  cli.flag("graph", "input graph file", "graph.txt");
  cli.flag("solution", "input solution file", "solution.txt");
  if (!cli.parse(argc, argv)) return 2;

  const auto g = graph::load_graph(cli.get_string("graph"));
  const auto solution = graph::load_solution(cli.get_string("solution"), g.infinity());
  const auto reference = baseline::dijkstra_to(g, solution.destination);
  const auto verdict = graph::verify_solution(g, solution, reference.cost);
  if (verdict.ok) {
    std::printf("OK: solution is exact (destination %zu)\n", solution.destination);
    return 0;
  }
  std::printf("FAIL: %s\n", verdict.detail.c_str());
  return 1;
}

int cmd_info(int argc, const char* const* argv) {
  util::CliParser cli("print structural properties of a graph");
  cli.flag("graph", "input graph file", "graph.txt");
  cli.flag("dest", "destination for p / reachability (-1 = all)", "-1");
  if (!cli.parse(argc, argv)) return 2;

  const auto g = graph::load_graph(cli.get_string("graph"));
  std::printf("vertices: %zu\nedges: %zu\nword width h: %d (infinity = %u)\n", g.size(),
              g.edge_count(), g.field().bits(), g.infinity());
  const auto report = [&](graph::Vertex d) {
    std::printf("destination %zu: reachable %zu/%zu, max MCP length p = %zu\n", d,
                graph::reachable_count(g, d), g.size(), graph::max_mcp_edges(g, d));
  };
  const std::int64_t dest = cli.get_int("dest");
  if (dest >= 0) {
    report(static_cast<graph::Vertex>(dest));
  } else {
    for (graph::Vertex d = 0; d < g.size(); ++d) report(d);
  }
  return 0;
}

int cmd_allpairs(int argc, const char* const* argv) {
  util::CliParser cli("all-pairs minimum cost paths + diameter on the PPA");
  cli.flag("graph", "input graph file", "graph.txt");
  cli.flag("workers",
           "host threads, caller included, for independent destination runs "
           "(results identical)",
           "1");
  cli.flag("backend", "host execution backend, word|bitplane", "word");
  cli.flag("array-side", "physical array side P; 0 = full array, P < n runs tiled", "0");
  cli.flag("batch-width",
           "destinations solved per machine pass (bitplane backend only; 1 = off)", "1");
  cli.flag("active-panels", "activity-driven panel schedule on tiled runs, on|off", "on");
  add_robustness_flags(cli);
  add_observability_flags(cli);
  if (!cli.parse(argc, argv)) return 2;

  const auto g = graph::load_graph(cli.get_string("graph"));
  mcp::AllPairsOptions options;
  const std::int64_t workers = cli.get_int("workers");
  if (workers < 1) {
    std::fprintf(stderr, "error: --workers must be >= 1\n");
    return 2;
  }
  options.workers = static_cast<std::size_t>(workers);
  const std::int64_t batch_width = cli.get_int("batch-width");
  if (batch_width < 1) {
    std::fprintf(stderr, "error: --batch-width must be >= 1\n");
    return 2;
  }
  options.mcp.batch_width = static_cast<std::size_t>(batch_width);
  if (!parse_backend(cli.get_string("backend"), options.mcp.backend)) return 2;
  if (!read_array_side(cli, options.mcp)) return 2;
  if (!parse_active_panels(cli.get_string("active-panels"), options.mcp.active_panels)) {
    return 2;
  }
  if (!read_robustness_flags(cli, g, options.mcp)) return 2;
  // Post-hoc Chrome export: the per-destination span trees are merged in
  // destination order after the (possibly threaded) run, so the artifacts
  // are identical for every --workers value.
  Observability obs_state;
  if (!setup_observability(cli, /*live=*/false, obs_state)) return 2;
  if (obs_state.snapshot_every != 0) {
    std::fprintf(stderr,
                 "error: --snapshot-every rides the live per-iteration hook; it "
                 "requires the solve subcommand\n");
    return 2;
  }
  options.mcp.observer = obs_state.collector.get();
  util::Stopwatch timer;
  const auto ap = mcp::all_pairs(g, options);
  const double wall_seconds = timer.seconds();
  std::printf("all-pairs over %zu vertices: %zu total iterations, %s\n", ap.n,
              ap.total_iterations, ap.total_steps.summary().c_str());
  const bool robust = options.mcp.verify || options.mcp.checked || !options.mcp.faults.empty();
  const std::size_t failed = ap.failed_destinations();
  if (robust) {
    std::size_t retried = 0;
    for (const std::size_t a : ap.attempts) {
      if (a > 1) ++retried;
    }
    std::size_t masked = 0;
    for (const mcp::SolveOutcome o : ap.outcomes) {
      if (o == mcp::SolveOutcome::MaskedFaults) ++masked;
    }
    std::printf("outcomes: %zu/%zu ok, %zu failed, %zu retried, %zu masked, "
                "%zu fault events\n",
                ap.n - failed, ap.n, failed, retried, masked, ap.fault_events.size());
    for (graph::Vertex dd = 0; dd < ap.n; ++dd) {
      if (is_failure(ap.outcomes[dd])) {
        std::printf("  destination %zu: %s (attempts %zu)\n", dd,
                    mcp::name_of(ap.outcomes[dd]), ap.attempts[dd]);
      }
    }
  }
  print_fault_tally(ap.fault_events);
  obs::RunInfo run;
  run.workload = "all_pairs";
  run.backend = cli.get_string("backend");
  run.n = g.size();
  run.host_threads = options.workers;
  run.batch_width = options.mcp.batch_width;
  run.active_panels = options.mcp.active_panels ? 1 : 0;
  run.simd_steps = ap.total_steps.total();
  run.wall_seconds = wall_seconds;
  const int obs_rc = finish_observability(obs_state, run);
  if (obs_rc != 0) return obs_rc;
  std::printf("diameter (max finite cost over ordered pairs): %u\n\n", ap.diameter);
  for (graph::Vertex i = 0; i < ap.n; ++i) {
    std::string line;
    for (graph::Vertex j = 0; j < ap.n; ++j) {
      char cell[12];
      if (ap.dist_at(i, j) == g.infinity()) {
        std::snprintf(cell, sizeof cell, "    .");
      } else {
        std::snprintf(cell, sizeof cell, "%5u", ap.dist_at(i, j));
      }
      line += cell;
    }
    std::printf("  %s\n", line.c_str());
  }
  // A failed destination keeps its infinity column above (graceful
  // degradation); the exit code still reports that the batch was partial.
  return failed == 0 ? 0 : 1;
}

int cmd_eccentricity(int argc, const char* const* argv) {
  util::CliParser cli("per-destination in-eccentricities on the PPA");
  cli.flag("graph", "input graph file", "graph.txt");
  cli.flag("backend", "host execution backend, word|bitplane", "word");
  cli.flag("array-side", "physical array side P; 0 = full array, P < n runs tiled", "0");
  cli.flag("active-panels", "activity-driven panel schedule on tiled runs, on|off", "on");
  if (!cli.parse(argc, argv)) return 2;

  const auto g = graph::load_graph(cli.get_string("graph"));
  mcp::Options options;
  if (!parse_backend(cli.get_string("backend"), options.backend)) return 2;
  if (!read_array_side(cli, options)) return 2;
  if (!parse_active_panels(cli.get_string("active-panels"), options.active_panels)) {
    return 2;
  }
  graph::Weight radius = g.infinity();
  graph::Weight diameter = 0;
  for (graph::Vertex d = 0; d < g.size(); ++d) {
    const auto r = mcp::solve_eccentricity(g, d, options);
    std::printf("destination %zu: in-eccentricity %u (%zu iterations)\n", d,
                r.eccentricity, r.mcp.iterations);
    radius = std::min(radius, r.eccentricity);
    diameter = std::max(diameter, r.eccentricity);
  }
  std::printf("in-radius %u, diameter %u\n", radius, diameter);
  return 0;
}

int cmd_closure(int argc, const char* const* argv) {
  util::CliParser cli("transitive closure on the PPA (boolean DP)");
  cli.flag("graph", "input graph file", "graph.txt");
  cli.flag("backend", "host execution backend, word|bitplane", "word");
  cli.flag("array-side", "physical array side P; 0 = full array, P < n runs tiled", "0");
  cli.flag("active-panels", "activity-driven panel schedule on tiled runs, on|off", "on");
  if (!cli.parse(argc, argv)) return 2;

  const auto g = graph::load_graph(cli.get_string("graph"));
  mcp::ClosureOptions options;
  if (!parse_backend(cli.get_string("backend"), options.backend)) return 2;
  const std::int64_t side = cli.get_int("array-side");
  if (side < 0) {
    std::fprintf(stderr, "error: --array-side must be >= 0 (0 = full array)\n");
    return 2;
  }
  options.array_side = static_cast<std::size_t>(side);
  if (!parse_active_panels(cli.get_string("active-panels"), options.active_panels)) {
    return 2;
  }
  const auto closure = mcp::transitive_closure(g, options);
  std::printf("transitive closure of %zu vertices (%zu total iterations, %s)\n", closure.n,
              closure.total_iterations, closure.total_steps.summary().c_str());
  for (graph::Vertex i = 0; i < closure.n; ++i) {
    std::string line;
    for (graph::Vertex j = 0; j < closure.n; ++j) line += closure.at(i, j) ? '1' : '.';
    std::printf("  %s\n", line.c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    if (argc < 2) return usage();
    const std::string subcommand = argv[1];
    const int sub_argc = argc - 1;
    const char* const* sub_argv = argv + 1;
    if (subcommand == "gen") return cmd_gen(sub_argc, sub_argv);
    if (subcommand == "solve") return cmd_solve(sub_argc, sub_argv);
    if (subcommand == "verify") return cmd_verify(sub_argc, sub_argv);
    if (subcommand == "info") return cmd_info(sub_argc, sub_argv);
    if (subcommand == "closure") return cmd_closure(sub_argc, sub_argv);
    if (subcommand == "allpairs") return cmd_allpairs(sub_argc, sub_argv);
    if (subcommand == "eccentricity") return cmd_eccentricity(sub_argc, sub_argv);
    return usage();
  } catch (const std::exception& e) {
    // Unreadable graph paths (util::ParseError from load_graph), malformed
    // flag values (util::ContractError from CliParser) and malformed
    // --faults specs all land here: one-line diagnostic, exit code 2.
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
}
