// Benchmark driver: seeded, fixed-work workloads over the public mcp entry
// points, one process, one thread, closed loop (each op is issued when the
// previous one returns).
//
//   perfbench_driver --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Every op is checked against the bench-local exact reference (exact.hpp)
// and followed by one calibration probe (calibration.hpp). Timings are
// reported in reference seconds: raw seconds divided by the host's slowness
// relative to the reference host, as the probes around the op measure it.
// With --trace 0
// the end-to-end metrics are printed; with --trace 1 each op also runs a
// second time under an obs::Collector and the per-layer metrics are
// printed. The last stdout line is the result object
// {"correct", "attempted", "failed", "metrics"}.
#include <sys/resource.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <optional>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "calibration.hpp"
#include "exact.hpp"
#include "graph/generators.hpp"
#include "mcp/batch.hpp"
#include "mcp/mcp.hpp"
#include "obs/collector.hpp"
#include "sim/plane_kernels.hpp"
#include "stats.hpp"
#include "util/rng.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

namespace graph = ppa::graph;
namespace mcp = ppa::mcp;
namespace obs = ppa::obs;
namespace sim = ppa::sim;
using graph::Vertex;
using graph::WeightMatrix;
using perfbench::CalibrationShape;

constexpr int kBits = 16;
constexpr graph::WeightRange kLightWeights{1, 30};
// Ring weights whose true costs pass 2^16 - 1 within ~100 hops.
constexpr graph::WeightRange kHeavyRingWeights{600, 700};
constexpr std::size_t kSetupRepeats = 7;

// ---------------------------------------------------------------------------
// Workloads

struct Spec {
  const char* name;
  double ops_per_second;  // op-list length per requested second
  std::size_t min_ops;    // keeps the tail percentile defined
};

constexpr Spec kSpecs[] = {
    {"full_single", 170.0, 64},
    {"tiled_sparse", 6.4, 32},
    {"allpairs_batched", 12.0, 32},
    {"verified_faulty", 29.0, 64},
};

// The calibration probe timed after every op: one window small enough to
// stay in L1/L2 (it follows core speed) and one over 1.5 MiB of fresh
// buffers (it follows the cache and memory side), each taken relative to
// its median time on the reference host (README.md in this directory).
constexpr CalibrationShape kCoreWindow{64, 96};
constexpr CalibrationShape kMemoryWindow{4096, 1};
constexpr double kCoreRefSeconds = 0.175e-3;
constexpr double kMemoryRefSeconds = 1.11e-3;

struct Op {
  std::size_t graph = 0;
  std::vector<Vertex> destinations;  // one for solve, a group for solve_batch
  sim::FaultModel faults;
};

struct Workload {
  std::vector<WeightMatrix> graphs;
  std::vector<Op> ops;
  mcp::Options options;  // batch_width > 1: each op is one solve_batch group
};

std::vector<Vertex> permutation(std::size_t n, ppa::util::Rng& rng) {
  std::vector<Vertex> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;
  rng.shuffle(order);
  return order;
}

// `count` destinations of `g`: the middle vertex of each of `count` equal
// strata of the vertices ordered by the size of their relaxation wavefront: the
// number of 64-vertex blocks holding a vertex first settled at each hop
// level, summed over levels (then by depth and reach). Solve cost follows
// it and spans an order of magnitude across destinations of a sparse
// graph; stratifying gives every seed the same mix of cheap and expensive
// solves. The median stratum's pick comes first (it is the set-up's warm-up
// op), the rest in seeded order.
std::vector<Vertex> stratified_destinations(const WeightMatrix& g, std::size_t count,
                                            ppa::util::Rng& rng) {
  constexpr std::size_t kBlock = 64;
  const perfbench::ExactOracle oracle(g);
  struct Rank {
    std::size_t wavefront;
    std::uint32_t depth;
    std::size_t reached_by;
    Vertex v;
  };
  std::vector<Rank> ranks;
  std::vector<std::uint64_t> level_blocks;  // bit b: block b has a vertex at this level
  for (Vertex d = 0; d < g.size(); ++d) {
    const perfbench::ExactOracle::Paths p = oracle.paths_to(d);
    Rank r{0, 0, 0, d};
    level_blocks.assign(g.size(), 0);
    for (std::size_t i = 0; i < g.size(); ++i) {
      if (p.cost[i] == perfbench::kUnreachable) continue;
      ++r.reached_by;
      r.depth = std::max(r.depth, p.hops[i]);
      level_blocks[p.hops[i]] |= std::uint64_t{1} << (i / kBlock % 64);
    }
    for (std::uint64_t blocks : level_blocks) {
      r.wavefront += static_cast<std::size_t>(std::popcount(blocks));
    }
    ranks.push_back(r);
  }
  std::sort(ranks.begin(), ranks.end(), [](const Rank& a, const Rank& b) {
    return std::tie(a.wavefront, a.depth, a.reached_by, a.v) <
           std::tie(b.wavefront, b.depth, b.reached_by, b.v);
  });
  std::vector<Vertex> rest;
  Vertex first = 0;
  for (std::size_t s = 0; s < count; ++s) {
    const std::size_t lo = s * ranks.size() / count;
    const std::size_t hi = (s + 1) * ranks.size() / count;
    const Vertex pick = ranks[(lo + hi) / 2].v;
    if (s == count / 2) {
      first = pick;
    } else {
      rest.push_back(pick);
    }
  }
  rng.shuffle(rest);
  rest.insert(rest.begin(), first);
  return rest;
}

// One op per destination; each graph serves `per_graph` stratified
// destinations.
template <typename MakeGraph>
void single_ops(Workload& w, std::size_t count, std::size_t per_graph, ppa::util::Rng& rng,
                MakeGraph make_graph) {
  while (w.ops.size() < count) {
    const std::size_t g = w.graphs.size();
    w.graphs.push_back(make_graph(rng));
    const std::vector<Vertex> order = stratified_destinations(w.graphs.back(), per_graph, rng);
    for (std::size_t i = 0; i < per_graph && w.ops.size() < count; ++i) {
      w.ops.push_back({g, {order[i]}, {}});
    }
  }
}


WeightMatrix reachable_digraph(std::size_t n, ppa::util::Rng& rng) {
  const auto toward = static_cast<Vertex>(rng.below(n));
  return graph::random_reachable_digraph(n, kBits, 2.0 / static_cast<double>(n),
                                         kLightWeights, toward, rng);
}

Workload make_workload(const std::string& name, std::uint64_t seed, std::size_t count) {
  ppa::util::Rng rng(seed);
  Workload w;
  w.options.backend = sim::ExecBackend::BitPlane;
  if (name == "full_single") {
    single_ops(w, count, 32, rng, [](ppa::util::Rng& r) { return reachable_digraph(128, r); });
  } else if (name == "tiled_sparse") {
    w.options.array_side = 64;
    w.options.active_panels = true;
    single_ops(w, count, 4, rng, [](ppa::util::Rng& r) {
      return graph::power_law(1024, kBits, 2, 0.1, kLightWeights, r);
    });
  } else if (name == "allpairs_batched") {
    w.options.array_side = 64;
    w.options.batch_width = 16;
    while (w.ops.size() < count) {
      const std::size_t g = w.graphs.size();
      w.graphs.push_back(reachable_digraph(256, rng));
      const std::vector<Vertex> order = permutation(256, rng);
      for (std::size_t i = 0; i < 256 && w.ops.size() < count; i += 16) {
        w.ops.push_back({g, {order.begin() + static_cast<std::ptrdiff_t>(i),
                             order.begin() + static_cast<std::ptrdiff_t>(i + 16)}, {}});
      }
    }
  } else if (name == "verified_faulty") {
    w.options.verify = true;
    w.options.max_retries = 1;
    w.options.recovery = mcp::RecoveryPolicy::Retry;
    // Blocks of 32 ops: every fourth op, starting with the first (the
    // set-up's warm-up op), on a fault-free heavy ring whose exact costs
    // overflow the 16-bit field; the other 24 on a random digraph with two
    // random faults per op.
    while (w.ops.size() < count) {
      const std::size_t random_graph = w.graphs.size();
      w.graphs.push_back(reachable_digraph(128, rng));
      const std::size_t ring = w.graphs.size();
      w.graphs.push_back(graph::directed_ring(128, kBits, kHeavyRingWeights, rng));
      const std::vector<Vertex> random_picks =
          stratified_destinations(w.graphs[random_graph], 24, rng);
      const std::vector<Vertex> ring_order = permutation(128, rng);
      for (std::size_t i = 0; i < 32 && w.ops.size() < count; ++i) {
        if (i % 4 == 0) {
          w.ops.push_back({ring, {ring_order[i / 4]}, {}});
        } else {
          w.ops.push_back({random_graph, {random_picks[i - i / 4 - 1]},
                           sim::FaultModel::random(128, kBits, rng.next(), 2)});
        }
      }
    }
  }
  return w;
}

std::vector<mcp::Result> run_op(const Workload& w, const Op& op, obs::Collector* observer) {
  mcp::Options options = w.options;
  options.faults = op.faults;
  options.observer = observer;
  const WeightMatrix& g = w.graphs[op.graph];
  if (options.batch_width > 1) return mcp::solve_batch(g, op.destinations, options);
  return {mcp::solve(g, op.destinations.front(), options)};
}

// ---------------------------------------------------------------------------
// Checking and counting

struct Tally {
  std::uint64_t rows = 0;
  std::uint64_t answered = 0;
  std::uint64_t exact = 0;
  std::uint64_t silent_wrong = 0;
  std::uint64_t failed = 0;  // answered rows outside the h-bit contract, or thrown ops
  std::uint64_t iterations = 0;
  std::uint64_t attempts = 0;
  std::uint64_t corrections = 0;
  std::uint64_t uncorrectable_rows = 0;
  sim::StepCounter steps;

  [[nodiscard]] std::uint64_t digest() const {
    std::uint64_t h = 0xcbf29ce484222325ULL;
    const auto mix = [&h](std::uint64_t v) {
      for (int i = 0; i < 8; ++i) {
        h ^= (v >> (8 * i)) & 0xff;
        h *= 0x100000001b3ULL;
      }
    };
    for (std::uint64_t v : {rows, answered, exact, silent_wrong, failed, iterations, attempts,
                            corrections, uncorrectable_rows}) {
      mix(v);
    }
    for (int c = 0; c < static_cast<int>(sim::StepCategory::kCount); ++c) {
      mix(steps.count(static_cast<sim::StepCategory>(c)));
    }
    return h;
  }
};

bool usable(mcp::SolveOutcome outcome, bool fault_free) {
  switch (outcome) {
    case mcp::SolveOutcome::Verified:
    case mcp::SolveOutcome::MaskedFaults:
      return true;
    case mcp::SolveOutcome::Unchecked:
      return fault_free;
    default:
      return false;
  }
}

class Checker {
 public:
  explicit Checker(const Workload& w) : w_(w), oracles_(w.graphs.size()) {}

  void count(const Op& op, const std::vector<mcp::Result>& results, Tally& tally) {
    const WeightMatrix& g = w_.graphs[op.graph];
    if (!oracles_[op.graph]) oracles_[op.graph].emplace(g);
    tally.rows += op.destinations.size();
    if (results.size() != op.destinations.size()) {
      tally.failed += op.destinations.size();
      return;
    }
    // A batch member carries its whole group's step and masking delta.
    tally.steps.merge(results.front().total_steps);
    tally.corrections += results.front().masking.corrections;
    for (std::size_t i = 0; i < results.size(); ++i) {
      const mcp::Result& r = results[i];
      const Vertex d = op.destinations[i];
      tally.iterations += r.iterations;
      tally.attempts += r.attempts;
      if (r.masking.uncorrectable > 0) ++tally.uncorrectable_rows;
      const perfbench::RowCheck check =
          perfbench::check_row(r.solution.cost, oracles_[op.graph]->costs_to(d), g.infinity());
      const bool answered = usable(r.outcome, op.faults.empty());
      const bool exact = check.exact && r.solution.destination == d;
      if (answered) ++tally.answered;
      if (exact) ++tally.exact;
      if (answered && !exact) ++tally.silent_wrong;
      if (answered && !(check.field && r.solution.destination == d)) ++tally.failed;
    }
  }

 private:
  const Workload& w_;
  std::vector<std::optional<perfbench::ExactOracle>> oracles_;
};

// ---------------------------------------------------------------------------
// Timing

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

std::uint64_t g_sink = 0;  // consumes calibration checksums

double time_window(const CalibrationShape& shape, std::uint64_t salt) {
  const Clock::time_point start = Clock::now();
  g_sink ^= perfbench::calibration_window(shape, salt);
  return seconds_since(start);
}

// Calibration windows, one probe after each op, seconds.
struct Probes {
  std::vector<double> core;
  std::vector<double> memory;

  void take(std::uint64_t salt) {
    core.push_back(time_window(kCoreWindow, salt));
    memory.push_back(time_window(kMemoryWindow, salt));
  }

  // Host slowness at each probe relative to the reference host (1 = as
  // fast): the mean of the two windows' ratios to their reference times,
  // each window first smoothed by the median of the probes within `radius`.
  [[nodiscard]] std::vector<double> slowness(std::size_t radius) const {
    const std::vector<double> c = perfbench::sliding_median(core, radius);
    const std::vector<double> m = perfbench::sliding_median(memory, radius);
    std::vector<double> s(c.size());
    for (std::size_t i = 0; i < s.size(); ++i) {
      s[i] = (c[i] / kCoreRefSeconds + m[i] / kMemoryRefSeconds) / 2;
    }
    return s;
  }
};

double sum(const std::vector<double>& v) {
  double s = 0;
  for (double x : v) s += x;
  return s;
}

// ---------------------------------------------------------------------------
// Output

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(line.find_first_not_of(' ', colon + 1));
    }
  }
  return "unknown";
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              correct ? "true" : "false", static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                metrics[i].name.c_str(), metrics[i].value, metrics[i].unit);
  }
  std::printf("}}\n");
}

double per(double numerator, double denominator) {
  return denominator == 0 ? 0 : numerator / denominator;
}

[[noreturn]] void usage_error(const std::string& message) {
  std::fprintf(stderr,
               "error: %s\nusage: perfbench_driver --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1>\n",
               message.c_str());
  std::exit(2);
}

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
};

Args parse_args(int argc, char** argv) {
  Args args;
  bool have[4] = {false, false, false, false};
  for (int i = 1; i < argc; i += 2) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage_error("missing value for " + flag);
    const std::string value = argv[i + 1];
    try {
      if (flag == "--workload") {
        args.workload = value;
        have[0] = true;
      } else if (flag == "--seed") {
        args.seed = std::stoull(value);
        have[1] = true;
      } else if (flag == "--seconds") {
        args.seconds = std::stod(value);
        have[2] = true;
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") usage_error("--trace takes 0 or 1");
        args.trace = value == "1";
        have[3] = true;
      } else {
        usage_error("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      usage_error("bad value for " + flag + ": " + value);
    }
  }
  for (bool h : have) {
    if (!h) usage_error("all four flags are required");
  }
  if (!(args.seconds > 0 && args.seconds <= 600)) usage_error("--seconds must be in (0, 600]");
  return args;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  const Spec* spec = nullptr;
  for (const Spec& s : kSpecs) {
    if (args.workload == s.name) spec = &s;
  }
  if (spec == nullptr) usage_error("unknown workload " + args.workload);
  std::size_t count = std::max<std::size_t>(
      spec->min_ops, static_cast<std::size_t>(std::llround(args.seconds * spec->ops_per_second)));
  count += (4 - count % 4) % 4;  // whole four-op cycles keep the shares exact

  std::printf("host: cpu=\"%s\" nproc=%u simd=%s build=%s seed=%llu workload=%s ops=%zu\n",
              cpu_model().c_str(), std::thread::hardware_concurrency(),
              sim::plane_kernels::variant_name(sim::plane_kernels::active_variant()),
              PERFBENCH_BUILD_TYPE, static_cast<unsigned long long>(args.seed),
              spec->name, count);

  bool correct = true;

  // Set-up: input generation plus one warm-up op, repeated; the inputs of
  // the last repeat are the ones measured.
  std::vector<double> setup_raw;
  std::vector<double> gen_raw;
  Probes probes;  // set-up probes first, then one per op
  Workload w;
  std::optional<sim::StepCounter> warmup_steps;
  for (std::size_t k = 0; k < kSetupRepeats; ++k) {
    // Free the previous repeat's inputs first: they must not count toward
    // peak RSS, and the ops then run in the heap a fresh process would give
    // them (README.md, "Calibration evidence").
    w = Workload{};
    const Clock::time_point start = Clock::now();
    w = make_workload(spec->name, args.seed, count);
    gen_raw.push_back(seconds_since(start));
    const std::vector<mcp::Result> warm = run_op(w, w.ops.front(), nullptr);
    setup_raw.push_back(seconds_since(start));
    probes.take(1000 + k);
    if (warmup_steps && !(*warmup_steps == warm.front().total_steps)) correct = false;
    warmup_steps = warm.front().total_steps;
  }
  Checker checker(w);
  Tally tally;
  std::vector<double> plain_raw;
  std::vector<double> traced_raw;
  obs::Collector collector;
  for (std::size_t i = 0; i < w.ops.size(); ++i) {
    const Op& op = w.ops[i];
    std::vector<mcp::Result> results;
    Clock::time_point start = Clock::now();
    try {
      results = run_op(w, op, nullptr);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "op %zu threw: %s\n", i, e.what());
    }
    plain_raw.push_back(seconds_since(start));
    checker.count(op, results, tally);
    if (args.trace) {
      // A fresh collector per op keeps the idle time between ops out of
      // its wall profile; the run-level collector merges them.
      obs::Collector per_op;
      std::vector<mcp::Result> observed;
      start = Clock::now();
      try {
        observed = run_op(w, op, &per_op);
      } catch (const std::exception& e) {
        std::fprintf(stderr, "traced op %zu threw: %s\n", i, e.what());
      }
      traced_raw.push_back(seconds_since(start));
      collector.merge(per_op);
      // Observation must not change what the machine does.
      if (observed.empty() || results.empty() ||
          !(observed.front().total_steps == results.front().total_steps)) {
        correct = false;
      }
    }
    probes.take(i);
  }

  // Reference seconds: raw seconds / slowness, smoothed over about a
  // quarter second of probes either side.
  const auto radius = static_cast<std::size_t>(std::max(4.0, spec->ops_per_second / 4));
  const std::vector<double> slowness = probes.slowness(radius);
  std::vector<double> setup_ref;
  std::vector<double> gen_ref;
  for (std::size_t k = 0; k < kSetupRepeats; ++k) {
    setup_ref.push_back(setup_raw[k] / slowness[k]);
    gen_ref.push_back(gen_raw[k] / slowness[k]);
  }
  std::vector<double> ref(plain_raw.size());
  for (std::size_t i = 0; i < ref.size(); ++i) {
    ref[i] = plain_raw[i] / slowness[kSetupRepeats + i];
  }
  const double cal_ratio =
      1 / perfbench::median({slowness.begin() + kSetupRepeats, slowness.end()});
  std::vector<double> probe_ms;
  for (std::size_t i = kSetupRepeats; i < probes.core.size(); ++i) {
    probe_ms.push_back((probes.core[i] + probes.memory[i]) * 1e3);
  }
  const double rows = static_cast<double>(tally.rows);
  if (tally.failed != 0) correct = false;
  std::printf("digest: %016llx\n", static_cast<unsigned long long>(tally.digest()));
  std::printf("rows=%llu answered=%llu exact=%llu silent_wrong=%llu failed=%llu\n",
              static_cast<unsigned long long>(tally.rows),
              static_cast<unsigned long long>(tally.answered),
              static_cast<unsigned long long>(tally.exact),
              static_cast<unsigned long long>(tally.silent_wrong),
              static_cast<unsigned long long>(tally.failed));

  std::printf("raw: rows_per_s=%.6g op_ms_p50=%.6g cal_ms_p50=%.6g cal_ratio=%.6g\n",
              rows / sum(plain_raw), perfbench::median(plain_raw) * 1e3,
              perfbench::median(probe_ms), cal_ratio);

  std::vector<Metric> metrics;
  if (!args.trace) {
    const auto tail = perfbench::tail_percentile(ref);
    std::printf("op_ms_tail: p%d of %zu ops (%zu beyond)\n", tail ? tail->percentile : 0,
                ref.size(), tail ? tail->beyond : 0);
    metrics = {
        {"rows_per_s", rows / sum(ref), "1/s"},
        {"op_ms_p50", perfbench::median(ref) * 1e3, "ms"},
        {"op_ms_tail", tail ? tail->value * 1e3 : 0, "ms"},
        {"sim_steps_per_row", static_cast<double>(tally.steps.total()) / rows, "steps"},
        {"setup_s", perfbench::median(setup_ref), "s"},
        {"peak_rss_mb", peak_rss_mb(), "MB"},
        {"answered_row_share", static_cast<double>(tally.answered) / rows, "share"},
        {"exact_row_share", static_cast<double>(tally.exact) / rows, "share"},
        {"honest_row_share", 1.0 - static_cast<double>(tally.silent_wrong) / rows, "share"},
    };
  } else {
    const double traced_wall = sum(traced_raw);
    const obs::WallProfile& profile = collector.profile();
    const auto share = [&](sim::StepCategory c) {
      return per(profile.seconds[static_cast<std::size_t>(c)], traced_wall);
    };
    const auto counter = [&](const char* name) {
      const auto& counters = collector.metrics().counters();
      const auto it = counters.find(name);
      return it == counters.end() ? 0.0 : static_cast<double>(it->second.value());
    };
    double root_s = 0;
    double verify_s = 0;
    double retry_s = 0;
    for (const obs::SpanRecord& s : collector.spans()) {
      if (s.parent == obs::SpanRecord::kNoParent) root_s += s.duration_seconds;
      if (s.name == "verify") verify_s += s.duration_seconds;
      if (s.name == "retry") retry_s += s.duration_seconds;
    }
    const auto steps_per_row = [&](sim::StepCategory c) {
      return static_cast<double>(tally.steps.count(c)) / rows;
    };
    const double hits = counter(obs::metric::kPlanCacheHits);
    const double misses = counter(obs::metric::kPlanCacheMisses);
    const double panels = counter(obs::metric::kSolverPanels);
    const double skipped = counter(obs::metric::kSolverPanelsSkipped);
    using C = sim::StepCategory;
    metrics = {
        {"graph.gen_s", perfbench::median(gen_ref), "s"},
        {"sim.steps.alu_per_row", steps_per_row(C::Alu), "steps"},
        {"sim.steps.shift_per_row", steps_per_row(C::Shift), "steps"},
        {"sim.steps.bus_bcast_per_row", steps_per_row(C::BusBroadcast), "steps"},
        {"sim.steps.bus_or_per_row", steps_per_row(C::BusOr), "steps"},
        {"sim.steps.global_or_per_row", steps_per_row(C::GlobalOr), "steps"},
        {"sim.steps.panel_io_per_row", steps_per_row(C::PanelIo), "steps"},
        {"sim.steps.masking_per_row", steps_per_row(C::Masking), "steps"},
        {"sim.wall_share.alu", share(C::Alu), "share"},
        {"sim.wall_share.bus_bcast", share(C::BusBroadcast), "share"},
        {"sim.wall_share.bus_or", share(C::BusOr), "share"},
        {"sim.wall_share.panel_io", share(C::PanelIo), "share"},
        {"sim.wall_share.masking", share(C::Masking), "share"},
        {"sim.plan_cache.hit_ratio", per(hits, hits + misses), "share"},
        {"sim.mask.corrections_per_row", static_cast<double>(tally.corrections) / rows, "count"},
        {"sim.mask.uncorrectable_rows", static_cast<double>(tally.uncorrectable_rows), "count"},
        {"ppc.simd.words_per_row", counter(obs::metric::kSweepWords) / rows, "words"},
        {"ppc.simd.dispatches_per_row", counter(obs::metric::kSweepDispatches) / rows, "count"},
        {"mcp.iterations_per_row", static_cast<double>(tally.iterations) / rows, "count"},
        {"mcp.panels_skipped_share", per(skipped, panels + skipped), "share"},
        {"mcp.panel_io_saved_per_row", counter(obs::metric::kSolverPanelIoSaved) / rows,
         "steps"},
        {"mcp.attempts_per_row", static_cast<double>(tally.attempts) / rows, "count"},
        {"mcp.verify_s_share", per(verify_s, traced_wall), "share"},
        {"mcp.retry_s_share", per(retry_s, traced_wall), "share"},
        {"mcp.outside_spans_share", 1.0 - per(root_s, traced_wall), "share"},
        {"mcp.silent_wrong_share", static_cast<double>(tally.silent_wrong) / rows, "share"},
        {"obs.overhead_ratio", per(traced_wall, sum(plain_raw)), "ratio"},
        {"host.raw_rows_per_s", rows / sum(plain_raw), "1/s"},
        {"host.cal_ms_per_op", perfbench::median(probe_ms), "ms"},
        {"host.cal_ratio", cal_ratio, "ratio"},
    };
  }
  std::fprintf(stderr, "calibration checksum %016llx\n", static_cast<unsigned long long>(g_sink));
  print_result(correct, tally.rows, tally.failed, metrics);
  return 0;
}
