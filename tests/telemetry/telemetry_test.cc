// Unit tests for the telemetry subsystem: read-through counter bindings
// (rebase on zero, freeze on detach, accumulate across re-attach), handle
// stability, deterministic snapshots and merges, exporter
// escaping/ordering, and the observation-only contract on a small
// end-to-end simulation.
#include "telemetry/telemetry.h"

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/units.h"
#include "flexlevel/nunma.h"
#include "flexlevel/reduce_mapper.h"
#include "nand/level_config.h"
#include "ssd/simulator.h"
#include "support/build_simulator.h"
#include "telemetry/export.h"
#include "telemetry/metrics.h"
#include "telemetry/span.h"
#include "trace/workloads.h"

namespace flex::telemetry {
namespace {

constexpr HistogramSpec kSpec{.lo = 1.0, .hi = 1000.0, .bins = 3,
                              .log_spaced = true};

TEST(FormatDoubleTest, RoundTripsExactly) {
  for (const double v : {0.0, 1.0, 0.1, -2.5, 1e-9, 3.141592653589793,
                         6.02214076e23, 1.0 / 3.0}) {
    const std::string s = format_double(v);
    EXPECT_EQ(std::strtod(s.c_str(), nullptr), v) << s;
  }
  // Shortest representation, not 17 noise digits.
  EXPECT_EQ(format_double(0.1), "0.1");
  EXPECT_EQ(format_double(2.0), "2");
}

TEST(MetricsRegistryTest, HandlesAreStableAcrossInsertions) {
  MetricsRegistry reg;
  auto& a = reg.gauge("a");
  a.value = 1.0;
  // Insert many more entries: map nodes never move, so the old reference
  // must stay valid (the bind-once contract instrumentation relies on).
  for (int i = 0; i < 100; ++i) reg.gauge("g" + std::to_string(i));
  a.value = 2.0;
  EXPECT_EQ(&reg.gauge("a"), &a);
  EXPECT_EQ(reg.snapshot().gauges.at("a"), 2.0);
  EXPECT_EQ(reg.snapshot().gauges.size(), 101u);
}

TEST(MetricsRegistryTest, BoundCounterReportsGrowthSinceBind) {
  MetricsRegistry reg;
  std::uint64_t events = 40;  // history before the bind is not counted
  reg.bind(&events, "events", [&events] { return events; });
  EXPECT_EQ(reg.snapshot().counters.at("events"), 0u);
  events += 3;
  EXPECT_EQ(reg.snapshot().counters.at("events"), 3u);
}

TEST(MetricsRegistryTest, ZeroPreservesKeysAndHandles) {
  MetricsRegistry reg;
  std::uint64_t events = 0;
  reg.bind(&events, "events", [&events] { return events; });
  auto& g = reg.gauge("level");
  Histogram& h = reg.histogram("lat", kSpec);
  events = 7;
  g.value = 2.5;
  h.add(3.0);
  reg.zero();
  MetricsSnapshot snap = reg.snapshot();
  EXPECT_EQ(snap.counters.at("events"), 0u);
  EXPECT_EQ(snap.gauges.at("level"), 0.0);
  EXPECT_EQ(snap.histograms.at("lat").total, 0u);
  // The binding now counts from the rebased value; the old handles still
  // feed the registry.
  ++events;
  g.value = 1.0;
  h.add(50.0);
  snap = reg.snapshot();
  EXPECT_EQ(snap.counters.at("events"), 1u);
  EXPECT_EQ(snap.gauges.at("level"), 1.0);
  EXPECT_EQ(snap.histograms.at("lat").counts[1], 1u);
}

TEST(MetricsRegistryTest, UnbindFreezesCounters) {
  MetricsRegistry reg;
  const int owner = 0;
  std::uint64_t events = 0;
  reg.bind(&owner, "events", [&events] { return events; });
  events = 5;
  reg.unbind(&owner);
  events = 100;  // no longer observed
  EXPECT_EQ(reg.snapshot().counters.at("events"), 5u);
  // Unbinding an owner that bound nothing is a no-op.
  reg.unbind(&events);
  EXPECT_EQ(reg.snapshot().counters.at("events"), 5u);
  // A frozen counter still scopes to the window.
  reg.zero();
  EXPECT_EQ(reg.snapshot().counters.at("events"), 0u);
}

TEST(MetricsRegistryTest, RebindKeepsAccumulating) {
  MetricsRegistry reg;
  const int owner = 0;
  std::uint64_t events = 0;
  reg.bind(&owner, "events", [&events] { return events; });
  events = 5;
  reg.unbind(&owner);
  events = 100;  // detached: not counted
  reg.bind(&owner, "events", [&events] { return events; });
  events = 102;
  EXPECT_EQ(reg.snapshot().counters.at("events"), 7u);
}

TEST(MetricsRegistryTest, BindingsOfOneNameAdd) {
  MetricsRegistry reg;
  std::uint64_t a = 0;
  std::uint64_t b = 10;
  reg.bind(&a, "n", [&a] { return a; });
  reg.bind(&b, "n", [&b] { return b; });
  a = 2;
  b = 13;
  EXPECT_EQ(reg.snapshot().counters.at("n"), 5u);
  reg.unbind(&a);
  a = 50;
  ++b;
  EXPECT_EQ(reg.snapshot().counters.at("n"), 6u);
  EXPECT_EQ(reg.snapshot().counters.size(), 1u);
}

MetricsSnapshot make_snapshot(std::uint64_t count, double gauge,
                              double sample) {
  MetricsRegistry reg;
  std::uint64_t n = 0;
  reg.bind(&n, "n", [&n] { return n; });
  n = count;
  reg.gauge("x").value = gauge;
  reg.histogram("h", kSpec).add(sample);
  return reg.snapshot();
}

TEST(MetricsSnapshotTest, MergeIsAssociative) {
  // Dyadic-rational gauge values add exactly in binary floating point, so
  // associativity can be asserted bit-exactly.
  const auto a = make_snapshot(1, 0.5, 2.0);
  const auto b = make_snapshot(10, 0.25, 30.0);
  const auto c = make_snapshot(100, 2.75, 999.0);
  auto left = a;  // (a + b) + c
  left.merge(b);
  left.merge(c);
  auto bc = b;  // a + (b + c)
  bc.merge(c);
  auto right = a;
  right.merge(bc);
  EXPECT_EQ(left, right);
  EXPECT_EQ(left.to_jsonl(), right.to_jsonl());
  EXPECT_EQ(left.counters.at("n"), 111u);
  EXPECT_EQ(left.gauges.at("x"), 3.5);
  EXPECT_EQ(left.histograms.at("h").total, 3u);
}

TEST(MetricsSnapshotTest, MergeWithEmptyIsIdentity) {
  const auto a = make_snapshot(5, 0.5, 20.0);
  auto merged = a;
  merged.merge(MetricsSnapshot{});
  EXPECT_EQ(merged, a);
  MetricsSnapshot empty;
  empty.merge(a);
  EXPECT_EQ(empty, a);
}

TEST(MetricsSnapshotTest, MergeAddsHistogramsBinWise) {
  auto a = make_snapshot(0, 0.0, 2.0);    // bin 0
  const auto b = make_snapshot(0, 0.0, 30.0);  // bin 1
  a.merge(b);
  const auto& h = a.histograms.at("h");
  EXPECT_EQ(h.counts, (std::vector<std::uint64_t>{1, 1, 0}));
  EXPECT_EQ(h.total, 2u);
}

TEST(MetricsSnapshotTest, JsonlIsByteExactAndSorted) {
  MetricsRegistry reg;
  std::uint64_t second = 0;
  std::uint64_t first = 0;
  reg.bind(&second, "z.second", [&second] { return second; });
  reg.bind(&first, "a.first", [&first] { return first; });
  second = 2;
  first = 1;
  reg.gauge("g").value = 0.5;
  reg.histogram("h", {.lo = 1.0, .hi = 4.0, .bins = 2, .log_spaced = true})
      .add(3.0);
  // Counters then gauges then histograms, each alphabetical; numbers in
  // shortest round-trip form.
  EXPECT_EQ(reg.snapshot().to_jsonl(),
            "{\"type\":\"counter\",\"name\":\"a.first\",\"value\":1}\n"
            "{\"type\":\"counter\",\"name\":\"z.second\",\"value\":2}\n"
            "{\"type\":\"gauge\",\"name\":\"g\",\"value\":0.5}\n"
            "{\"type\":\"histogram\",\"name\":\"h\",\"lo\":1,\"hi\":4,"
            "\"log\":true,\"total\":1,\"counts\":[0,1]}\n");
}

TEST(JsonEscapeTest, EscapesControlAndQuoteCharacters) {
  EXPECT_EQ(json_escape("plain"), "plain");
  EXPECT_EQ(json_escape("a\"b"), "a\\\"b");
  EXPECT_EQ(json_escape("a\\b"), "a\\\\b");
  EXPECT_EQ(json_escape("a\nb\tc\r"), "a\\nb\\tc\\r");
  EXPECT_EQ(json_escape(std::string_view("\x01\x1f", 2)), "\\u0001\\u001f");
  // Non-ASCII bytes pass through unmodified (UTF-8 stays UTF-8).
  EXPECT_EQ(json_escape("µs"), "µs");
}

TEST(ChromeTraceTest, OrdersEventsAndFormatsMicros) {
  SpanRecorder rec;
  // Recorded out of start order; the exporter must sort by start, stably.
  rec.record({.name = "late", .cat = "c", .pid = 1, .tid = 0,
              .start = 2 * kMicrosecond, .dur = 1500});
  rec.record({.name = "parent", .cat = "c", .pid = 1, .tid = kHostTrack,
              .start = 1 * kMicrosecond, .dur = 3 * kMicrosecond});
  rec.record({.name = "child", .cat = "c", .pid = 1, .tid = kHostTrack,
              .start = 1 * kMicrosecond, .dur = 1 * kMicrosecond,
              .arg0_key = "lpn", .arg0 = 42.0});
  rec.record({.name = "mark", .cat = "c", .pid = 1, .tid = kFtlTrack,
              .start = 500, .dur = 0});
  std::ostringstream out;
  write_chrome_trace(out, rec.spans());
  const std::string json = out.str();

  // Metadata first: derived thread names for every (pid, tid) present.
  EXPECT_NE(json.find("\"ph\":\"M\""), std::string::npos);
  EXPECT_NE(json.find("\"args\":{\"name\":\"chip 0\"}"), std::string::npos);
  EXPECT_NE(json.find("\"args\":{\"name\":\"host\"}"), std::string::npos);
  EXPECT_NE(json.find("\"args\":{\"name\":\"ftl\"}"), std::string::npos);

  // Events sorted by ts; same-instant spans keep recording order.
  const auto mark = json.find("\"name\":\"mark\"");
  const auto parent = json.find("\"name\":\"parent\"");
  const auto child = json.find("\"name\":\"child\"");
  const auto late = json.find("\"name\":\"late\"");
  ASSERT_NE(mark, std::string::npos);
  EXPECT_LT(mark, parent);
  EXPECT_LT(parent, child);
  EXPECT_LT(child, late);

  // Microsecond timestamps at ns resolution; instants carry "s":"t".
  EXPECT_NE(json.find("\"ts\":0.500,\"s\":\"t\""), std::string::npos);
  EXPECT_NE(json.find("\"ts\":2.000,\"dur\":1.500"), std::string::npos);
  EXPECT_NE(json.find("\"args\":{\"lpn\":42}"), std::string::npos);
}

TEST(TelemetryContextTest, TracerGatesSpanRecording) {
  Telemetry t;
  EXPECT_EQ(t.tracer(), nullptr);
  t.trace = true;
  ASSERT_NE(t.tracer(), nullptr);
  t.tracer()->record({.name = "x"});
  EXPECT_EQ(t.spans.size(), 1u);
}

// End-to-end on a small drive: attaching telemetry must not perturb the
// simulation, the metrics must agree with SsdResults' own counters, and
// the per-request latency breakdown must sum to the read-response total.
class TelemetrySimulationTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    Rng rng(1234);
    const reliability::BerEngine::Config mc{
        .wordlines = 32, .bitlines = 128, .rounds = 2, .coupling = {}};
    static const reliability::GrayMapper gray;
    static const flexlevel::ReduceCodeMapper reduce;
    normal_ = new reliability::BerModel(nand::LevelConfig::baseline_mlc(),
                                        gray, reliability::RetentionModel{},
                                        mc, rng);
    reduced_ = new reliability::BerModel(
        flexlevel::nunma_config(flexlevel::NunmaScheme::kNunma3), reduce,
        reliability::RetentionModel{}, mc, rng);
  }
  static void TearDownTestSuite() {
    delete normal_;
    delete reduced_;
    normal_ = nullptr;
    reduced_ = nullptr;
  }

  static ssd::SsdConfig small_config(ssd::Scheme scheme) {
    ssd::SsdConfig cfg;
    cfg.scheme = scheme;
    cfg.ftl.spec.page_size_bytes = 4096;
    cfg.ftl.spec.pages_per_block = 32;
    cfg.ftl.spec.blocks_per_chip = 64;
    cfg.ftl.spec.chips = 4;
    cfg.ftl.initial_pe_cycles = 6000;
    cfg.ftl.gc_low_watermark = 4;
    cfg.min_prefill_age = kDay;
    cfg.max_prefill_age = kMonth;
    cfg.write_buffer_pages = 64;
    cfg.write_buffer_flush_batch = 8;
    cfg.access_eval.pool_capacity_pages = 1024;
    cfg.access_eval.hotness = {.filter_count = 4,
                               .bits_per_filter = 1 << 14,
                               .hashes = 2,
                               .window_accesses = 512};
    return cfg;
  }

  static std::vector<trace::Request> small_trace() {
    trace::WorkloadParams params;
    params.name = "telemetry";
    params.read_fraction = 0.7;
    params.zipf_theta = 1.0;
    params.footprint_pages = 4000;
    params.mean_request_pages = 1.2;
    params.max_request_pages = 4;
    params.iops = 1500;
    params.requests = 8'000;
    return trace::generate(params, /*seed=*/777);
  }

  static ssd::SsdResults run_config(ssd::SsdConfig cfg,
                                    Telemetry* telemetry) {
    auto sim = test::build_simulator(std::move(cfg), *normal_, *reduced_);
    sim->prefill(4000);
    sim->attach_telemetry(telemetry);
    return sim->run(small_trace());
  }
  static ssd::SsdResults run_scheme(ssd::Scheme scheme,
                                    Telemetry* telemetry) {
    return run_config(small_config(scheme), telemetry);
  }

  static reliability::BerModel* normal_;
  static reliability::BerModel* reduced_;
};

reliability::BerModel* TelemetrySimulationTest::normal_ = nullptr;
reliability::BerModel* TelemetrySimulationTest::reduced_ = nullptr;

TEST_F(TelemetrySimulationTest, AttachingIsObservationOnly) {
  const auto plain = run_scheme(ssd::Scheme::kFlexLevel, nullptr);
  Telemetry telemetry;
  telemetry.trace = true;
  const auto traced = run_scheme(ssd::Scheme::kFlexLevel, &telemetry);
  // Bit-identical simulation either way.
  EXPECT_EQ(plain.read_response.count(), traced.read_response.count());
  EXPECT_EQ(plain.read_response.mean(), traced.read_response.mean());
  EXPECT_EQ(plain.all_response.sum(), traced.all_response.sum());
  EXPECT_EQ(plain.read_breakdown, traced.read_breakdown);
  EXPECT_EQ(plain.migrations_to_reduced, traced.migrations_to_reduced);
  // The plain run carries no telemetry payload.
  EXPECT_TRUE(plain.metrics.empty());
  EXPECT_TRUE(plain.spans.empty());
  EXPECT_FALSE(traced.metrics.empty());
  EXPECT_FALSE(traced.spans.empty());
}

TEST_F(TelemetrySimulationTest, MetricsAgreeWithResultsCounters) {
  Telemetry telemetry;
  const auto r = run_scheme(ssd::Scheme::kFlexLevel, &telemetry);
  EXPECT_EQ(r.metrics.counters.at("ssd.reads"), r.read_response.count());
  EXPECT_EQ(r.metrics.counters.at("ssd.writes"), r.write_response.count());
  EXPECT_EQ(r.metrics.counters.at("ssd.requests"), r.all_response.count());
  EXPECT_EQ(r.metrics.counters.at("ssd.buffer_hits"), r.buffer_hits);
  EXPECT_EQ(r.metrics.counters.at("ftl.host_writes"), r.ftl.host_writes);
  EXPECT_EQ(r.metrics.counters.at("ftl.gc_runs"), r.ftl.gc_runs);
  EXPECT_EQ(r.metrics.counters.at("policy.migrations_to_reduced"),
            r.migrations_to_reduced);
  EXPECT_EQ(r.metrics.histograms.at("ssd.read_latency_us").total,
            r.read_response.count());
  // The simulator is gone: its counters froze at their final values.
  EXPECT_EQ(telemetry.metrics.snapshot(), r.metrics);
}

TEST_F(TelemetrySimulationTest, DetachFreezesAndReattachAccumulates) {
  Telemetry telemetry;  // outlives the simulator attached to it
  auto sim = test::build_simulator(small_config(ssd::Scheme::kFlexLevel),
                                   *normal_, *reduced_);
  sim->prefill(4000);
  const std::vector<trace::Request> requests = small_trace();
  const auto third = static_cast<std::ptrdiff_t>(requests.size() / 3);
  const std::vector<trace::Request> a(requests.begin(),
                                      requests.begin() + third);
  const std::vector<trace::Request> b(requests.begin() + third,
                                      requests.begin() + 2 * third);
  const std::vector<trace::Request> c(requests.begin() + 2 * third,
                                      requests.end());
  sim->attach_telemetry(&telemetry);
  sim->run_segment(a);
  const MetricsSnapshot after_a = telemetry.metrics.snapshot();
  EXPECT_EQ(after_a.counters.at("ssd.requests"), a.size());

  sim->attach_telemetry(nullptr);
  sim->run_segment(b);
  EXPECT_EQ(telemetry.metrics.snapshot().counters, after_a.counters);

  sim->attach_telemetry(&telemetry);
  sim->run_segment(c);
  const MetricsSnapshot after_c = telemetry.metrics.snapshot();
  EXPECT_EQ(after_c.counters.at("ssd.requests"), a.size() + c.size());
  // Every counter kept its frozen value and only grew from there; the
  // detached segment is in the results but not in the registry.
  for (const auto& [name, value] : after_a.counters) {
    EXPECT_GE(after_c.counters.at(name), value) << name;
  }
  EXPECT_EQ(sim->results().all_response.count(), requests.size());
}

TEST_F(TelemetrySimulationTest, BreakdownSumsToReadResponseTotal) {
  for (const auto scheme :
       {ssd::Scheme::kBaseline, ssd::Scheme::kLdpcInSsd,
        ssd::Scheme::kLevelAdjustOnly, ssd::Scheme::kFlexLevel}) {
    SCOPED_TRACE(ssd::scheme_name(scheme));
    const auto r = run_scheme(scheme, nullptr);
    ASSERT_GT(r.read_response.count(), 0u);
    // The breakdown components are integer ns summed per request; their
    // total must reproduce the read-response sum to within double
    // rounding of the seconds conversion (criterion: 1e-9 relative).
    const double total_s = to_seconds(r.read_breakdown.total());
    EXPECT_NEAR(total_s / r.read_response.sum(), 1.0, 1e-9);
    // Every component participates somewhere in the mix.
    EXPECT_GT(r.read_breakdown.sensing, 0);
    EXPECT_GT(r.read_breakdown.transfer, 0);
    EXPECT_GT(r.read_breakdown.decode, 0);
  }
}

TEST_F(TelemetrySimulationTest, SpansNestWithinTracks) {
  Telemetry telemetry;
  telemetry.trace = true;
  telemetry.pid = 7;
  run_scheme(ssd::Scheme::kLdpcInSsd, &telemetry);
  ASSERT_FALSE(telemetry.spans.spans().empty());
  for (const Span& span : telemetry.spans.spans()) {
    EXPECT_EQ(span.pid, 7);
    EXPECT_GE(span.start, 0);
    EXPECT_GE(span.dur, 0);
  }
  // The exported JSON keeps ts non-decreasing (the CI validator's core
  // invariant), checked here without a JSON parser via the raw spans.
  std::ostringstream out;
  write_chrome_trace(out, telemetry.spans.spans());
  EXPECT_NE(out.str().find("\"ph\":\"X\""), std::string::npos);
}

TEST_F(TelemetrySimulationTest, ReadAttemptSpansTileTheChipRead) {
  // Each chip "read" span is followed by its per-attempt sense/xfer/decode
  // children, which must partition [start, start + dur] exactly: no gap,
  // no overlap, nothing past the end. The sensing hint makes second reads
  // of a page start at the remembered depth instead of a hard read.
  ssd::SsdConfig cfg = small_config(ssd::Scheme::kLdpcInSsd);
  cfg.sensing_hint = true;
  Telemetry telemetry;
  telemetry.trace = true;
  run_config(std::move(cfg), &telemetry);
  const std::vector<Span>& spans = telemetry.spans.spans();
  std::uint64_t reads = 0;
  std::uint64_t hinted_reads = 0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& parent = spans[i];
    if (std::string(parent.name) != "read" ||
        std::string(parent.cat) != "chip") {
      continue;
    }
    ++reads;
    SimTime cursor = parent.start;
    std::size_t j = i + 1;
    for (; j < spans.size() && std::string(spans[j].cat) == "read"; ++j) {
      const Span& child = spans[j];
      EXPECT_EQ(child.tid, parent.tid);
      EXPECT_EQ(child.start, cursor) << "span " << j;
      EXPECT_GT(child.dur, 0);
      cursor += child.dur;
    }
    ASSERT_GT(j, i + 1) << "chip read without attempt spans";
    EXPECT_EQ(cursor, parent.start + parent.dur) << "span " << i;
    // arg0 of an attempt span is its sensing depth; a first attempt above
    // a hard read is the hint at work.
    if (spans[i + 1].arg0 > 0.0) ++hinted_reads;
  }
  EXPECT_GT(reads, 0u);
  EXPECT_GT(hinted_reads, 0u);
}

}  // namespace
}  // namespace flex::telemetry
