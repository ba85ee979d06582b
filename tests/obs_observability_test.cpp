// The observability layer end to end: metrics instruments, span trees,
// the two exporters, deterministic merging — and the contract the whole
// design hangs on: observation is free. Attaching a Collector must not
// change a single result word or step count, on either backend.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "graph/generators.hpp"
#include "mcp/allpairs.hpp"
#include "mcp/mcp.hpp"
#include "obs/chrome_trace.hpp"
#include "obs/collector.hpp"
#include "obs/export.hpp"
#include "obs/json.hpp"
#include "obs/json_dom.hpp"
#include "sim/machine.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace ppa::obs {
namespace {

// ---- metrics primitives ----

TEST(Metrics, CounterAccumulatesAndMerges) {
  Counter a;
  a.add();
  a.add(4);
  EXPECT_EQ(a.value(), 5u);
  Counter b;
  b.add(7);
  a.merge(b);
  EXPECT_EQ(a.value(), 12u);
}

TEST(Metrics, HistogramBucketsWeightsAndStats) {
  Histogram h({2, 4, 8});
  EXPECT_EQ(h.min(), 0u);  // empty
  h.observe(1);
  h.observe(2);
  h.observe(3, 10);  // weighted: 10 samples of value 3
  h.observe(100);    // overflow bucket
  ASSERT_EQ(h.counts().size(), 4u);
  EXPECT_EQ(h.counts()[0], 2u);   // <= 2
  EXPECT_EQ(h.counts()[1], 10u);  // <= 4
  EXPECT_EQ(h.counts()[2], 0u);   // <= 8
  EXPECT_EQ(h.counts()[3], 1u);   // overflow
  EXPECT_EQ(h.count(), 13u);
  EXPECT_EQ(h.sum(), 1u + 2u + 30u + 100u);
  EXPECT_EQ(h.min(), 1u);
  EXPECT_EQ(h.max(), 100u);
  EXPECT_DOUBLE_EQ(h.mean(), 133.0 / 13.0);
}

TEST(Metrics, HistogramMergeIsComponentWise) {
  Histogram a({4});
  a.observe(3);
  Histogram b({4});
  b.observe(9, 2);
  a.merge(b);
  EXPECT_EQ(a.counts()[0], 1u);
  EXPECT_EQ(a.counts()[1], 2u);
  EXPECT_EQ(a.count(), 3u);
  EXPECT_EQ(a.min(), 3u);
  EXPECT_EQ(a.max(), 9u);
}

TEST(Metrics, RegistryMergeCreatesMissingAndRejectsBoundMismatch) {
  MetricsRegistry a;
  a.counter("x").add(1);
  MetricsRegistry b;
  b.counter("x").add(2);
  b.counter("y").add(5);
  b.histogram("h", {1, 2}).observe(1);
  a.merge(b);
  EXPECT_EQ(a.counters().at("x").value(), 3u);
  EXPECT_EQ(a.counters().at("y").value(), 5u);
  // An empty target histogram adopts the source wholesale, bounds included.
  EXPECT_EQ(a.histograms().at("h").bounds(), (std::vector<std::uint64_t>{1, 2}));
  EXPECT_EQ(a.histograms().at("h").count(), 1u);

  MetricsRegistry c;
  c.histogram("h", {1, 2, 3}).observe(2);
  EXPECT_THROW(a.merge(c), util::ContractError);
}

TEST(Metrics, Pow2Bounds) {
  // Powers of two up to `top`, with `top` itself as the last bound.
  EXPECT_EQ(pow2_bounds(8), (std::vector<std::uint64_t>{1, 2, 4, 8}));
  EXPECT_EQ(pow2_bounds(5), (std::vector<std::uint64_t>{1, 2, 4, 5}));
}

TEST(Metrics, Pow2BucketBoundsAreInclusive) {
  // A sample exactly AT a bound lands in that bound's own bucket
  // (observe uses value <= bound), so the pow2 histograms have no
  // off-by-one at 1, 2, 4, ..., top — pinned here because every bus-shape
  // histogram in the collector rides pow2_bounds.
  const std::vector<std::uint64_t> bounds = pow2_bounds(8);  // {1, 2, 4, 8}
  Histogram at_bounds(bounds);
  for (const std::uint64_t b : bounds) at_bounds.observe(b);
  ASSERT_EQ(at_bounds.counts().size(), bounds.size() + 1);
  for (std::size_t i = 0; i < bounds.size(); ++i) {
    EXPECT_EQ(at_bounds.counts()[i], 1u) << "bound " << bounds[i];
  }
  EXPECT_EQ(at_bounds.counts().back(), 0u);  // nothing overflows

  Histogram above_bounds(bounds);
  above_bounds.observe(3);  // one past bound 2 -> the le=4 bucket
  above_bounds.observe(9);  // one past the top bound -> overflow
  EXPECT_EQ(above_bounds.counts()[1], 0u);
  EXPECT_EQ(above_bounds.counts()[2], 1u);
  EXPECT_EQ(above_bounds.counts().back(), 1u);
}

// ---- spans ----

TEST(Spans, NestAndRecordStepDeltas) {
  sim::MachineConfig cfg;
  cfg.n = 2;
  cfg.bits = 4;
  sim::Machine machine(cfg);

  Collector collector;
  {
    auto outer = collector.span("outer", &machine, 42);
    machine.charge_alu(3);
    {
      PPA_SPAN(&collector, "inner", &machine);
      machine.charge_alu(2);
    }
    machine.charge_alu(1);
  }
  const auto& spans = collector.spans();
  // Spans are recorded in open order: outer first, inner second.
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].name, "outer");
  EXPECT_EQ(spans[0].parent, SpanRecord::kNoParent);
  EXPECT_EQ(spans[0].value, 42);
  EXPECT_EQ(spans[0].steps.total(), 6u);
  EXPECT_EQ(spans[1].name, "inner");
  EXPECT_EQ(spans[1].parent, 0u);
  EXPECT_EQ(spans[1].value, -1);
  EXPECT_EQ(spans[1].steps.total(), 2u);
  EXPECT_GE(spans[0].duration_seconds, spans[1].duration_seconds);
}

TEST(Spans, NullCollectorIsInert) {
  // Must not crash or allocate anything observable.
  PPA_SPAN(static_cast<Collector*>(nullptr), "phase");
  auto s = open_span(nullptr, "phase", nullptr, 7);
  (void)s;
}

TEST(Spans, MergeAppendsTreesWithReindexedParents) {
  Collector a;
  {
    auto root_a = a.span("dest", nullptr, 0);
  }
  Collector b;
  {
    auto root_b = b.span("dest", nullptr, 1);
    PPA_SPAN(&b, "child");
  }
  a.merge(b);
  const auto& spans = a.spans();
  ASSERT_EQ(spans.size(), 3u);
  EXPECT_EQ(spans[1].name, "dest");
  EXPECT_EQ(spans[1].value, 1);
  EXPECT_EQ(spans[1].parent, SpanRecord::kNoParent);
  EXPECT_EQ(spans[2].name, "child");
  EXPECT_EQ(spans[2].parent, 1u);  // re-indexed onto a's vector
}

// ---- collector as a trace sink ----

TEST(Collector, FeedsBusHistogramsAndStepCounters) {
  sim::MachineConfig cfg;
  cfg.n = 4;
  cfg.bits = 8;
  sim::Machine machine(cfg);
  Collector collector;
  machine.set_trace(&collector);

  std::vector<sim::Word> src(16, 3);
  std::vector<sim::Flag> open(16, 0);
  for (std::size_t r = 0; r < 4; ++r) open[r * 4 + r] = 1;
  (void)machine.broadcast(src, sim::Direction::East, open);
  machine.charge_alu(5);
  machine.set_trace(nullptr);

  const auto& m = collector.metrics();
  const Histogram& seg = m.histograms().at(metric::kBusMaxSegment);
  EXPECT_EQ(seg.count(), 1u);
  EXPECT_EQ(seg.max(), 4u);
  const Histogram& planes = m.histograms().at(metric::kBusPlaneWidth);
  EXPECT_EQ(planes.max(), 8u);  // word broadcast sweeps all 8 planes
  EXPECT_EQ(m.counters().at(std::string(metric::kStepPrefix) + "alu").value(), 5u);
  EXPECT_EQ(m.counters().at(std::string(metric::kStepPrefix) + "bus_bcast").value(), 1u);

  // Bus occupancy rode the same event: every PE port is a wire, the driven
  // subset is whatever the cycle's driven flags said, and the per-cycle
  // histogram saw exactly one sample equal to the driven counter.
  const std::uint64_t total = m.counters().at(metric::kBusTotalWires).value();
  const std::uint64_t driven = m.counters().at(metric::kBusDrivenWires).value();
  EXPECT_EQ(total, 16u);
  EXPECT_GT(driven, 0u);
  EXPECT_LE(driven, total);
  const Histogram& wires = m.histograms().at(metric::kBusDrivenHist);
  EXPECT_EQ(wires.count(), 1u);
  EXPECT_EQ(wires.sum(), driven);

  // The utilization profiler billed the same event counts per category;
  // wall seconds are timing (>= 0) and not pinned further.
  const WallProfile& profile = collector.profile();
  EXPECT_EQ(profile.events[static_cast<std::size_t>(sim::StepCategory::Alu)], 5u);
  EXPECT_EQ(profile.events[static_cast<std::size_t>(sim::StepCategory::BusBroadcast)], 1u);
  for (const double seconds : profile.seconds) EXPECT_GE(seconds, 0.0);
}

TEST(Collector, ConvergenceSeriesCountersAndChromeSamples) {
  std::ostringstream out;
  ChromeTraceWriter writer(out);
  Collector collector;
  collector.set_chrome(&writer);
  collector.record_iteration(3, 1, 10, {4, 6});
  collector.record_iteration(3, 2, 0);
  writer.finish();

  const auto& series = collector.convergence();
  ASSERT_EQ(series.size(), 2u);
  EXPECT_EQ(series[0].destination, 3);
  EXPECT_EQ(series[0].iteration, 1u);
  EXPECT_EQ(series[0].active, 10u);
  EXPECT_EQ(series[0].panel_changes, (std::vector<std::uint64_t>{4, 6}));
  EXPECT_TRUE(series[1].panel_changes.empty());
  EXPECT_EQ(collector.metrics().counters().at(metric::kActiveLanes).value(), 10u);

  // The live stream carried each sample as a Chrome counter ('C') event.
  const std::string text = out.str();
  std::string error;
  ASSERT_TRUE(json_valid(text, &error)) << error << "\n" << text;
  EXPECT_NE(text.find("\"ph\":\"C\""), std::string::npos);
  EXPECT_NE(text.find("active_lanes"), std::string::npos);
}

TEST(Collector, SnapshotHookFiresOnItsCadence) {
  Collector collector;
  std::size_t fired = 0;
  collector.set_snapshot_hook(2, [&](const Collector&) { ++fired; });
  for (std::uint64_t i = 1; i <= 5; ++i) collector.record_iteration(0, i, 1);
  EXPECT_EQ(fired, 2u);  // iterations 2 and 4; cadence 0-resets in between

  Collector disabled;
  disabled.set_snapshot_hook(0, [&](const Collector&) { ++fired; });
  disabled.record_iteration(0, 1, 1);
  EXPECT_EQ(fired, 2u);  // every = 0 disables
}

TEST(Collector, MergeAppendsConvergenceAndAddsProfiles) {
  Collector a;
  a.record_iteration(0, 1, 7);
  Collector b;
  b.record_iteration(1, 1, 3, {1, 2});
  a.merge(b);
  ASSERT_EQ(a.convergence().size(), 2u);
  EXPECT_EQ(a.convergence()[0].destination, 0);
  EXPECT_EQ(a.convergence()[1].destination, 1);
  EXPECT_EQ(a.convergence()[1].panel_changes, (std::vector<std::uint64_t>{1, 2}));
  EXPECT_EQ(a.metrics().counters().at(metric::kActiveLanes).value(), 10u);

  // Wall profiles add component-wise on merge.
  WallProfile left;
  left.seconds[0] = 0.5;
  left.events[0] = 2;
  WallProfile right;
  right.seconds[0] = 0.25;
  right.events[0] = 1;
  left.merge(right);
  EXPECT_DOUBLE_EQ(left.seconds[0], 0.75);
  EXPECT_EQ(left.events[0], 3u);
}

// ---- exporters ----

Collector& demo_collector(Collector& collector) {
  collector.metrics().counter(metric::kSolverRuns).add(1);
  collector.metrics().histogram(metric::kBusMaxSegment, pow2_bounds(8)).observe(3);
  auto root = collector.span("solve", nullptr, 0);
  PPA_SPAN(&collector, "relax");
  return collector;
}

TEST(Export, MetricsJsonIsSchemaValid) {
  Collector collector;
  demo_collector(collector);
  RunInfo run;
  run.workload = "mcp";
  run.backend = "word";
  run.n = 8;
  run.simd_steps = 123;
  run.wall_seconds = 0.25;

  std::ostringstream out;
  write_metrics_json(out, collector, run);
  const std::string text = out.str();

  std::string error;
  EXPECT_TRUE(json_valid(text, &error)) << error << "\n" << text;
  EXPECT_NE(text.find(kMetricsSchema), std::string::npos);
  EXPECT_NE(text.find("\"workload\":\"mcp\""), std::string::npos);
  EXPECT_NE(text.find("\"bus.max_segment\""), std::string::npos);
  EXPECT_NE(text.find("\"relax\""), std::string::npos);
  // No instrument writes a gauge; the object stays for the schema's shape.
  EXPECT_NE(text.find("\"gauges\":{}"), std::string::npos);
}

TEST(Export, StatsSummaryMentionsRunAndSpans) {
  Collector collector;
  demo_collector(collector);
  RunInfo run;
  run.workload = "mcp";
  run.backend = "bitplane";
  run.n = 8;
  std::ostringstream out;
  write_stats_summary(out, collector, run);
  const std::string text = out.str();
  EXPECT_NE(text.find("backend=bitplane"), std::string::npos);
  EXPECT_NE(text.find("solve"), std::string::npos);
}

TEST(Export, ChromeTraceIsAJsonArrayDocument) {
  std::ostringstream out;
  {
    ChromeTraceWriter writer(out);
    Collector collector;
    collector.set_chrome(&writer);  // live B/E streaming
    {
      auto root = collector.span("solve");
      PPA_SPAN(&collector, "relax_iter");
    }
    collector.on_fault(sim::FaultEvent{sim::FaultEventKind::UndrivenRead,
                                       sim::StepCategory::BusBroadcast,
                                       sim::Direction::East, 1, 2, 1});
    writer.finish();
  }
  const std::string text = out.str();
  std::string error;
  ASSERT_TRUE(json_valid(text, &error)) << error << "\n" << text;
  EXPECT_EQ(text.front(), '[');
  EXPECT_NE(text.find("\"ph\":\"B\""), std::string::npos);
  EXPECT_NE(text.find("\"ph\":\"E\""), std::string::npos);
  EXPECT_NE(text.find("undriven_read"), std::string::npos);
}

TEST(Export, PostHocSpanExportEmitsCompleteEvents) {
  Collector collector;
  demo_collector(collector);
  std::ostringstream out;
  {
    ChromeTraceWriter writer(out);
    collector.export_spans(writer);
    writer.finish();
  }
  std::string error;
  ASSERT_TRUE(json_valid(out.str(), &error)) << error;
  EXPECT_NE(out.str().find("\"ph\":\"X\""), std::string::npos);
}

TEST(Export, PrometheusExpositionShape) {
  Collector collector;
  demo_collector(collector);
  RunInfo run;
  run.workload = "mcp";
  run.backend = "word";
  run.n = 8;
  std::ostringstream out;
  write_prometheus(out, collector, run);
  const std::string text = out.str();

  // Counters: one `# TYPE` line, one labelled sample each.
  EXPECT_NE(text.find("# TYPE ppa_solver_runs counter\n"), std::string::npos);
  EXPECT_NE(text.find("ppa_solver_runs{workload=\"mcp\",backend=\"word\",n=\"8\"} 1\n"),
            std::string::npos);

  // Wall attribution: a gauge family labelled by StepCategory.
  EXPECT_NE(text.find("# TYPE ppa_profile_wall_seconds gauge\n"), std::string::npos);
  EXPECT_NE(text.find(",category=\"alu\"} "), std::string::npos);

  // Histograms follow the cumulative _bucket / _sum / _count convention;
  // demo_collector observed a single 3 against bounds {1, 2, 4, 8}.
  EXPECT_NE(text.find("# TYPE ppa_bus_max_segment histogram\n"), std::string::npos);
  const std::string prefix = "{workload=\"mcp\",backend=\"word\",n=\"8\"";
  EXPECT_NE(text.find("ppa_bus_max_segment_bucket" + prefix + ",le=\"2\"} 0\n"),
            std::string::npos);
  EXPECT_NE(text.find("ppa_bus_max_segment_bucket" + prefix + ",le=\"4\"} 1\n"),
            std::string::npos);
  EXPECT_NE(text.find("ppa_bus_max_segment_bucket" + prefix + ",le=\"+Inf\"} 1\n"),
            std::string::npos);
  EXPECT_NE(text.find("ppa_bus_max_segment_sum" + prefix + "} 3\n"), std::string::npos);
  EXPECT_NE(text.find("ppa_bus_max_segment_count" + prefix + "} 1\n"), std::string::npos);
}

// Object member lookup for DOM surgery in the tests below (keys are stored
// with their quotes).
JsonValue* mutable_member(JsonValue& object, std::string_view key) {
  const std::string quoted = "\"" + std::string(key) + "\"";
  for (auto& [k, v] : object.members) {
    if (k == quoted) return &v;
  }
  return nullptr;
}

std::string exported_metrics_document() {
  Collector collector;
  demo_collector(collector);
  collector.record_iteration(0, 1, 5, {2, 3});
  collector.record_iteration(0, 2, 0);
  RunInfo run;
  run.workload = "mcp";
  run.backend = "word";
  run.n = 8;
  run.simd_steps = 123;
  run.wall_seconds = 0.25;
  std::ostringstream out;
  write_metrics_json(out, collector, run);
  return out.str();
}

TEST(Export, MetricsJsonRoundTripsByteIdentical) {
  const std::string text = exported_metrics_document();

  // The new sections made it out...
  EXPECT_NE(text.find("\"profile\":"), std::string::npos);
  EXPECT_NE(text.find("\"convergence\":["), std::string::npos);
  EXPECT_NE(text.find("\"panels\":[2,3]"), std::string::npos);

  // ...the document passes the semantic validator...
  std::string error;
  EXPECT_TRUE(metrics_document_valid(text, &error)) << error << "\n" << text;

  // ...and parse -> serialize reproduces the exporter's bytes exactly
  // (plus the trailing newline the exporter appends). This is the schema
  // honesty check: any exporter drift that garbles a token breaks it.
  const std::optional<JsonValue> dom = json_parse(text, &error);
  ASSERT_TRUE(dom.has_value()) << error;
  EXPECT_EQ(json_serialize(*dom) + "\n", text);
}

TEST(Json, MetricsDocumentValidatorAcceptsAndRejects) {
  const std::string text = exported_metrics_document();
  std::string error;
  ASSERT_TRUE(metrics_document_valid(text, &error)) << error;

  // Not an object / wrong schema tag.
  EXPECT_FALSE(metrics_document_valid("[]", &error));
  EXPECT_FALSE(metrics_document_valid("{}", &error));
  std::string wrong_schema = text;
  wrong_schema.replace(wrong_schema.find("ppa.metrics.v1"), 14, "ppa.metrics.v9");
  EXPECT_FALSE(metrics_document_valid(wrong_schema, &error));

  // Every required section is load-bearing: dropping any one rejects.
  for (const char* section : {"run", "counters", "gauges", "histograms", "profile",
                              "convergence", "spans"}) {
    JsonValue dom = *json_parse(text);
    const std::string quoted = "\"" + std::string(section) + "\"";
    std::erase_if(dom.members, [&](const auto& member) { return member.first == quoted; });
    EXPECT_FALSE(metrics_document_valid(json_serialize(dom), &error)) << section;
  }

  // Histogram shape: counts must be exactly bounds.size() + 1 long.
  JsonValue dom = *json_parse(text);
  JsonValue* histograms = mutable_member(dom, "histograms");
  ASSERT_NE(histograms, nullptr);
  ASSERT_FALSE(histograms->members.empty());
  JsonValue* counts = mutable_member(histograms->members.front().second, "counts");
  ASSERT_NE(counts, nullptr);
  ASSERT_FALSE(counts->items.empty());
  counts->items.pop_back();
  EXPECT_FALSE(metrics_document_valid(json_serialize(dom), &error));
}

// ---- the zero-cost contract ----

struct SolveSnapshot {
  std::vector<graph::Weight> costs;
  std::vector<graph::Vertex> next;
  std::uint64_t total_steps = 0;
  std::size_t iterations = 0;
};

SolveSnapshot run_solve(const graph::WeightMatrix& g, sim::ExecBackend backend,
                        Collector* observer) {
  sim::MachineConfig cfg;
  cfg.n = g.size();
  cfg.bits = g.field().bits();
  cfg.backend = backend;
  sim::Machine machine(cfg);
  mcp::Options options;
  options.observer = observer;
  const auto r = mcp::minimum_cost_path(machine, g, 0, options);
  SolveSnapshot s;
  s.costs = r.solution.cost;
  s.next = r.solution.next;
  s.total_steps = r.total_steps.total();
  s.iterations = r.iterations;
  return s;
}

TEST(ZeroCost, ObservationIsBitIdenticalOnBothBackends) {
  util::Rng rng(11);
  const auto g = graph::random_reachable_digraph(17, 8, 0.3, {1, 9}, 0, rng);
  for (const sim::ExecBackend backend :
       {sim::ExecBackend::Words, sim::ExecBackend::BitPlane}) {
    const SolveSnapshot bare = run_solve(g, backend, nullptr);
    Collector collector;
    const SolveSnapshot observed = run_solve(g, backend, &collector);
    EXPECT_EQ(bare.costs, observed.costs);
    EXPECT_EQ(bare.next, observed.next);
    EXPECT_EQ(bare.total_steps, observed.total_steps);
    EXPECT_EQ(bare.iterations, observed.iterations);
    // And the collector actually observed the run.
    EXPECT_EQ(collector.metrics().counters().at(metric::kSolverRuns).value(), 1u);
    EXPECT_GT(collector.metrics().histograms().at(metric::kBusMaxSegment).count(), 0u);
    EXPECT_FALSE(collector.spans().empty());
  }
}

TEST(ZeroCost, FullTelemetryPipelineIsFreeAndBackendIdentical) {
  // The heaviest observation stack the CLI can attach — live Chrome
  // streaming, per-iteration snapshots serializing the whole document,
  // occupancy scans, the wall profiler — must still change nothing, and
  // the deterministic telemetry (occupancy, active lanes) must agree
  // across backends like every other pinned quantity.
  util::Rng rng(11);
  const auto g = graph::random_reachable_digraph(17, 8, 0.3, {1, 9}, 0, rng);
  std::vector<std::uint64_t> driven_by_backend;
  std::vector<std::vector<std::uint64_t>> active_by_backend;
  for (const sim::ExecBackend backend :
       {sim::ExecBackend::Words, sim::ExecBackend::BitPlane}) {
    const SolveSnapshot bare = run_solve(g, backend, nullptr);

    std::ostringstream trace;
    ChromeTraceWriter writer(trace);
    Collector collector;
    collector.set_chrome(&writer);
    std::size_t snapshots = 0;
    collector.set_snapshot_hook(1, [&](const Collector& live) {
      RunInfo run;
      run.workload = "mcp";
      run.backend = backend == sim::ExecBackend::Words ? "word" : "bitplane";
      run.n = g.size();
      std::ostringstream snapshot;
      write_metrics_json(snapshot, live, run);
      std::string error;
      EXPECT_TRUE(metrics_document_valid(snapshot.str(), &error)) << error;
      ++snapshots;
    });
    const SolveSnapshot observed = run_solve(g, backend, &collector);
    writer.finish();

    EXPECT_EQ(bare.costs, observed.costs);
    EXPECT_EQ(bare.next, observed.next);
    EXPECT_EQ(bare.total_steps, observed.total_steps);
    EXPECT_EQ(bare.iterations, observed.iterations);

    // The pipeline genuinely ran: one snapshot and one convergence sample
    // per iteration (the last iteration is the settled one), counter
    // samples on the live stream, occupancy on the counters.
    EXPECT_EQ(snapshots, observed.iterations);
    ASSERT_EQ(collector.convergence().size(), observed.iterations);
    EXPECT_EQ(collector.convergence().back().active, 0u);
    EXPECT_NE(trace.str().find("active_lanes"), std::string::npos);
    const auto& counters = collector.metrics().counters();
    EXPECT_GT(counters.at(metric::kBusTotalWires).value(), 0u);

    driven_by_backend.push_back(counters.at(metric::kBusDrivenWires).value());
    std::vector<std::uint64_t> active;
    for (const IterationSample& sample : collector.convergence()) {
      active.push_back(sample.active);
    }
    active_by_backend.push_back(std::move(active));
  }
  ASSERT_EQ(driven_by_backend.size(), 2u);
  EXPECT_EQ(driven_by_backend[0], driven_by_backend[1]);
  EXPECT_EQ(active_by_backend[0], active_by_backend[1]);
}

// ---- all-pairs determinism ----

void scrub_wall_times(std::vector<SpanRecord>& spans) {
  for (auto& span : spans) {
    span.start_seconds = 0;
    span.duration_seconds = 0;
  }
}

TEST(AllPairs, MergedMetricsAreWorkerCountIndependent) {
  util::Rng rng(3);
  const auto g = graph::random_reachable_digraph(12, 8, 0.3, {1, 9}, 0, rng);

  auto run = [&](std::size_t workers) {
    auto collector = std::make_unique<Collector>();
    mcp::AllPairsOptions options;
    options.workers = workers;
    options.mcp.observer = collector.get();
    (void)mcp::all_pairs(g, options);
    return collector;
  };
  const auto one = run(1);
  const auto four = run(4);

  // Counters and histograms match exactly, except the W panels' pack /
  // reuse split: each worker thread keeps its own packed panels, so only
  // their sum (the panels the passes read) is worker-count independent.
  ASSERT_EQ(one->metrics().counters().size(), four->metrics().counters().size());
  for (const auto& [name, counter] : one->metrics().counters()) {
    if (name == metric::kSolverPanelPacks || name == metric::kSolverPanelReuses) continue;
    EXPECT_EQ(counter.value(), four->metrics().counters().at(name).value()) << name;
  }
  const auto panels = [](const Collector& c) {
    return c.metrics().counters().at(metric::kSolverPanelPacks).value() +
           c.metrics().counters().at(metric::kSolverPanelReuses).value();
  };
  EXPECT_EQ(panels(*one), panels(*four));
  for (const auto& [name, hist] : one->metrics().histograms()) {
    EXPECT_EQ(hist.counts(), four->metrics().histograms().at(name).counts()) << name;
    EXPECT_EQ(hist.sum(), four->metrics().histograms().at(name).sum()) << name;
  }

  // Span trees match in structure (names, parents, steps, values) once
  // wall-clock noise is scrubbed.
  auto spans_one = one->spans();
  auto spans_four = four->spans();
  scrub_wall_times(spans_one);
  scrub_wall_times(spans_four);
  ASSERT_EQ(spans_one.size(), spans_four.size());
  for (std::size_t i = 0; i < spans_one.size(); ++i) {
    EXPECT_EQ(spans_one[i].name, spans_four[i].name) << i;
    EXPECT_EQ(spans_one[i].parent, spans_four[i].parent) << i;
    EXPECT_EQ(spans_one[i].value, spans_four[i].value) << i;
    EXPECT_EQ(spans_one[i].steps.total(), spans_four[i].steps.total()) << i;
  }
}

// ---- json_valid itself ----

TEST(Json, ValidatorAcceptsAndRejects) {
  EXPECT_TRUE(json_valid(R"({"a": [1, 2.5, -3e2, "x\n", true, null]})"));
  std::string error;
  EXPECT_FALSE(json_valid(R"({"a": )", &error));
  EXPECT_FALSE(json_valid("[1, 2,]", &error));
  EXPECT_FALSE(json_valid("{} trailing", &error));
  EXPECT_FALSE(json_valid("", &error));
  // Malformed numbers, strings, containers and literals, and a raw tab
  // inside a string.
  for (const char* bad : {"-", "1.", "1e", "+1", ".5", R"("\x")", R"("\u12")", R"("abc)",
                          R"({"a" 1})", "[1,]", R"({"a":1,})", "tru", "nan", "1 2", "{} x",
                          "\"a\tb\""}) {
    EXPECT_FALSE(json_valid(bad, &error)) << bad;
  }
  // RFC 8259 forbids leading zeros.
  EXPECT_FALSE(json_valid("01", &error));
  EXPECT_FALSE(json_valid("-01", &error));
  EXPECT_FALSE(json_valid("[00]", &error));
  EXPECT_TRUE(json_valid("[0, -0, 0.5, 10, 0e1]", &error)) << error;
}

}  // namespace
}  // namespace ppa::obs
