#include "obs/export.hpp"

#include <cctype>
#include <cstdio>
#include <string_view>
#include <vector>

#include "obs/json.hpp"

namespace ppa::obs {

namespace {

void write_run(JsonWriter& w, const RunInfo& run) {
  w.begin_object();
  w.kv(field::kWorkload, run.workload);
  w.kv(field::kBackend, run.backend);
  w.kv(field::kN, run.n);
  w.kv(field::kHostThreads, run.host_threads);
  w.kv(field::kBatchWidth, run.batch_width);
  w.kv(field::kActivePanels, run.active_panels);
  w.kv(field::kSimdSteps, run.simd_steps);
  w.kv(field::kWallSeconds, run.wall_seconds);
  w.end_object();
}

void write_steps(JsonWriter& w, const sim::StepCounter& steps) {
  w.begin_object();
  w.kv("total", steps.total());
  for (int c = 0; c < static_cast<int>(sim::StepCategory::kCount); ++c) {
    const auto category = static_cast<sim::StepCategory>(c);
    w.kv(sim::name_of(category), steps.count(category));
  }
  w.end_object();
}

void write_histogram(JsonWriter& w, const Histogram& histogram) {
  w.begin_object();
  w.key("bounds");
  w.begin_array();
  for (const std::uint64_t b : histogram.bounds()) w.value(b);
  w.end_array();
  w.key("counts");
  w.begin_array();
  for (const std::uint64_t c : histogram.counts()) w.value(c);
  w.end_array();
  w.kv("count", histogram.count());
  w.kv("sum", histogram.sum());
  w.kv("min", histogram.min());
  w.kv("max", histogram.max());
  w.end_object();
}

/// "bus.plan_cache.hits" -> "ppa_bus_plan_cache_hits" (Prometheus metric
/// names allow [a-zA-Z0-9_:] only).
std::string prom_name(std::string_view name) {
  std::string out = "ppa_";
  for (const char c : name) {
    out += (std::isalnum(static_cast<unsigned char>(c)) != 0) ? c : '_';
  }
  return out;
}

void prom_double(std::ostream& out, double value) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  out << buf;
}

}  // namespace

void write_metrics_json(std::ostream& out, const Collector& collector, const RunInfo& run) {
  JsonWriter w(out);
  w.begin_object();
  w.kv("schema", kMetricsSchema);
  w.key("run");
  write_run(w, run);

  const MetricsRegistry& metrics = collector.metrics();
  w.key("counters");
  w.begin_object();
  for (const auto& [name, counter] : metrics.counters()) w.kv(name, counter.value());
  w.end_object();

  // No instrument writes a gauge; the empty object keeps ppa.metrics.v1's
  // shape (docs/observability.md).
  w.key("gauges");
  w.begin_object();
  w.end_object();

  w.key("histograms");
  w.begin_object();
  for (const auto& [name, histogram] : metrics.histograms()) {
    w.key(name);
    write_histogram(w, histogram);
  }
  w.end_object();

  // Utilization profiler: wall seconds and event counts per StepCategory
  // (timing — informational, never part of the determinism contract).
  w.key("profile");
  w.begin_object();
  const WallProfile& profile = collector.profile();
  w.key("wall_seconds");
  w.begin_object();
  for (int c = 0; c < static_cast<int>(sim::StepCategory::kCount); ++c) {
    w.kv(sim::name_of(static_cast<sim::StepCategory>(c)),
         profile.seconds[static_cast<std::size_t>(c)]);
  }
  w.end_object();
  w.key("events");
  w.begin_object();
  for (int c = 0; c < static_cast<int>(sim::StepCategory::kCount); ++c) {
    w.kv(sim::name_of(static_cast<sim::StepCategory>(c)),
         profile.events[static_cast<std::size_t>(c)]);
  }
  w.end_object();
  w.end_object();

  // Convergence series: one sample per observed relaxation iteration, with
  // per-row-block change counts on tiled runs (the sparse-panel signal).
  w.key("convergence");
  w.begin_array();
  for (const IterationSample& sample : collector.convergence()) {
    w.begin_object();
    w.kv("dest", sample.destination);
    w.kv("iter", sample.iteration);
    w.kv("active", sample.active);
    if (!sample.panel_changes.empty()) {
      w.key("panels");
      w.begin_array();
      for (const std::uint64_t p : sample.panel_changes) w.value(p);
      w.end_array();
    }
    w.end_object();
  }
  w.end_array();

  w.key("spans");
  w.begin_array();
  for (const SpanRecord& span : collector.spans()) {
    w.begin_object();
    w.kv("name", span.name);
    w.kv("parent", span.parent == SpanRecord::kNoParent
                       ? std::int64_t{-1}
                       : static_cast<std::int64_t>(span.parent));
    w.kv("start_us", span.start_seconds * 1e6);
    w.kv("dur_us", span.duration_seconds * 1e6);
    if (span.value >= 0) w.kv("value", span.value);
    w.key("steps");
    write_steps(w, span.steps);
    w.end_object();
  }
  w.end_array();

  w.end_object();
  out << "\n";
}

void write_prometheus(std::ostream& out, const Collector& collector, const RunInfo& run) {
  // Run-context labels on every sample, so expositions from several runs
  // (or the future ppa_mcpd's several machines) aggregate cleanly.
  const std::string labels = "{workload=\"" + json_escape(run.workload) +
                             "\",backend=\"" + json_escape(run.backend) +
                             "\",n=\"" + std::to_string(run.n) + "\"}";

  const MetricsRegistry& metrics = collector.metrics();
  for (const auto& [name, counter] : metrics.counters()) {
    const std::string prom = prom_name(name);
    out << "# TYPE " << prom << " counter\n";
    out << prom << labels << ' ' << counter.value() << '\n';
  }
  // Wall-time attribution rides along as a gauge family labelled by
  // category (seconds are a natural gauge: a per-run reading, not a
  // monotone counter across runs).
  out << "# TYPE ppa_profile_wall_seconds gauge\n";
  const WallProfile& profile = collector.profile();
  for (int c = 0; c < static_cast<int>(sim::StepCategory::kCount); ++c) {
    const std::string_view category = sim::name_of(static_cast<sim::StepCategory>(c));
    out << "ppa_profile_wall_seconds" << labels.substr(0, labels.size() - 1)
        << ",category=\"" << category << "\"} ";
    prom_double(out, profile.seconds[static_cast<std::size_t>(c)]);
    out << '\n';
  }
  for (const auto& [name, histogram] : metrics.histograms()) {
    const std::string prom = prom_name(name);
    out << "# TYPE " << prom << " histogram\n";
    const std::string label_prefix = labels.substr(0, labels.size() - 1);
    std::uint64_t cumulative = 0;
    const std::vector<std::uint64_t>& counts = histogram.counts();
    const std::vector<std::uint64_t>& bounds = histogram.bounds();
    for (std::size_t i = 0; i < bounds.size(); ++i) {
      cumulative += counts[i];
      out << prom << "_bucket" << label_prefix << ",le=\"" << bounds[i] << "\"} "
          << cumulative << '\n';
    }
    out << prom << "_bucket" << label_prefix << ",le=\"+Inf\"} " << histogram.count()
        << '\n';
    out << prom << "_sum" << labels << ' ' << histogram.sum() << '\n';
    out << prom << "_count" << labels << ' ' << histogram.count() << '\n';
  }
}

void write_stats_summary(std::ostream& out, const Collector& collector,
                         const RunInfo& run) {
  char line[256];
  std::snprintf(line, sizeof line,
                "run: workload=%s backend=%s n=%zu host_threads=%zu simd_steps=%llu "
                "wall=%.3fms\n",
                run.workload.c_str(), run.backend.c_str(), run.n, run.host_threads,
                static_cast<unsigned long long>(run.simd_steps), run.wall_seconds * 1e3);
  out << line;

  // Per-category attribution: the step mix next to the profiler's wall
  // split, so "where did the machine time go" is one table instead of a
  // JSON dig. Percentages are of the observed totals.
  const WallProfile& profile = collector.profile();
  std::uint64_t total_events = 0;
  double total_seconds = 0;
  for (std::size_t c = 0; c < WallProfile::kCategories; ++c) {
    total_events += profile.events[c];
    total_seconds += profile.seconds[c];
  }
  if (total_events != 0) {
    out << "  category       steps     steps%   wall_ms   wall%\n";
    for (std::size_t c = 0; c < WallProfile::kCategories; ++c) {
      if (profile.events[c] == 0 && profile.seconds[c] == 0) continue;
      const double step_pct =
          100.0 * static_cast<double>(profile.events[c]) / static_cast<double>(total_events);
      const double wall_pct =
          total_seconds > 0 ? 100.0 * profile.seconds[c] / total_seconds : 0.0;
      std::snprintf(line, sizeof line, "  %-12s %9llu %7.1f%% %9.3f %6.1f%%\n",
                    sim::name_of(static_cast<sim::StepCategory>(c)),
                    static_cast<unsigned long long>(profile.events[c]), step_pct,
                    profile.seconds[c] * 1e3, wall_pct);
      out << line;
    }
  }

  const MetricsRegistry& metrics = collector.metrics();
  for (const auto& [name, histogram] : metrics.histograms()) {
    if (histogram.count() == 0) continue;
    std::snprintf(line, sizeof line,
                  "  %-18s count=%llu min=%llu mean=%.2f max=%llu\n", name.c_str(),
                  static_cast<unsigned long long>(histogram.count()),
                  static_cast<unsigned long long>(histogram.min()), histogram.mean(),
                  static_cast<unsigned long long>(histogram.max()));
    out << line;
  }
  for (const auto& [name, counter] : metrics.counters()) {
    if (counter.value() == 0) continue;
    std::snprintf(line, sizeof line, "  %-18s %llu\n", name.c_str(),
                  static_cast<unsigned long long>(counter.value()));
    out << line;
  }
  // Top-level spans only; the full tree lives in the JSON dump.
  for (const SpanRecord& span : collector.spans()) {
    if (span.parent != SpanRecord::kNoParent) continue;
    std::snprintf(line, sizeof line, "  span %-12s %.3fms steps=%llu\n", span.name.c_str(),
                  span.duration_seconds * 1e3,
                  static_cast<unsigned long long>(span.steps.total()));
    out << line;
  }
}

}  // namespace ppa::obs
