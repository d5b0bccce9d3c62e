// Causal request tracing (obs::trace): collector mechanics (sampling,
// ring eviction, late spans, cursors), scoped phase nesting, the
// critical-path analyzer's self-time decomposition and straggler
// attribution, telemetry export formats, and the end-to-end acceptance
// scenario — one async write surviving two injected transient faults
// must yield ONE trace whose span tree shows the queue wait, the
// admission, the connector's one attempt, the resilient layer's two
// backoffs and its three tries down the stack, with per-phase self
// times summing to the request's wall time.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/units.h"
#include "obs/critical_path.h"
#include "obs/metrics.h"
#include "obs/telemetry.h"
#include "obs/trace_context.h"
#include "resilience/retry.h"
#include "sched/fair_scheduler.h"
#include "storage/backend_stack.h"
#include "storage/faulty_backend.h"
#include "storage/memory_backend.h"
#include "vol/async_connector.h"

namespace apio {
namespace {

using obs::trace::CompletedTrace;
using obs::trace::CriticalPathAnalyzer;
using obs::trace::Phase;
using obs::trace::ScopedPhase;
using obs::trace::ScopedTraceContext;
using obs::trace::TraceCollector;
using obs::trace::TraceContext;
using obs::trace::TraceSpan;

std::span<const std::byte> bytes_of(const std::vector<std::uint8_t>& v) {
  return std::as_bytes(std::span<const std::uint8_t>(v));
}

/// Every test runs against the process-wide collector; reset it on both
/// sides so order doesn't matter.
class TraceCollectorTest : public testing::Test {
 protected:
  void SetUp() override {
    auto& c = TraceCollector::instance();
    c.clear();
    c.set_sampling_period(1);
    c.set_capacity(4096);
    c.set_enabled(true);
  }
  void TearDown() override {
    auto& c = TraceCollector::instance();
    c.set_enabled(false);
    c.clear();
    c.set_sampling_period(1);
    c.set_capacity(4096);
  }
};

int count_phase(const CompletedTrace& trace, Phase phase) {
  int n = 0;
  for (const auto& s : trace.spans) {
    if (s.phase == phase) ++n;
  }
  return n;
}

TEST_F(TraceCollectorTest, DisabledCollectorMintsNothing) {
  TraceCollector::instance().set_enabled(false);
  const TraceContext ctx = TraceCollector::instance().start_trace();
  EXPECT_EQ(ctx.trace_id, 0u);
  EXPECT_FALSE(ctx.recording());
}

TEST_F(TraceCollectorTest, SamplingIsDeterministicOneInN) {
  auto& c = TraceCollector::instance();
  c.set_sampling_period(3);
  int sampled = 0;
  for (int i = 0; i < 9; ++i) {
    const TraceContext ctx = c.start_trace();
    if (ctx.sampled) {
      ++sampled;
      c.complete(ctx, obs::IoOp::kWrite, "t", 1, false, 0.0, 1.0);
    }
  }
  EXPECT_EQ(sampled, 3);
  const auto wm = c.watermark();
  EXPECT_EQ(wm.started, 9u);
  EXPECT_EQ(wm.sampled, 3u);
  EXPECT_EQ(wm.completed, 3u);
}

TEST_F(TraceCollectorTest, ScopedPhasesNestViaThreadStack) {
  auto& c = TraceCollector::instance();
  const TraceContext ctx = c.start_trace();
  ASSERT_TRUE(ctx.recording());
  {
    ScopedTraceContext bind(ctx);
    ScopedPhase outer(Phase::kAttempt, 64);
    { ScopedPhase inner(Phase::kBackend, 64, "memory"); }
  }
  c.complete(ctx, obs::IoOp::kWrite, "t", 64, false, 0.0, 1.0);
  const auto traces = c.drain();
  ASSERT_EQ(traces.size(), 1u);
  const auto& spans = traces[0].spans;
  ASSERT_EQ(spans.size(), 2u);
  // The inner phase finishes (and records) first, parented to the
  // still-open outer phase; the outer phase parents to the root.
  EXPECT_EQ(spans[0].phase, Phase::kBackend);
  EXPECT_EQ(spans[0].detail, "memory");
  EXPECT_EQ(spans[1].phase, Phase::kAttempt);
  EXPECT_EQ(spans[0].parent_span_id, spans[1].span_id);
  EXPECT_EQ(spans[1].parent_span_id, traces[0].root_span_id);
}

TEST_F(TraceCollectorTest, UnboundScopedPhaseIsANoOp) {
  { ScopedPhase phase(Phase::kBackend, 64); }
  EXPECT_EQ(TraceCollector::instance().watermark().late_spans, 0u);
}

TEST_F(TraceCollectorTest, CompletedRingEvictsOldest) {
  auto& c = TraceCollector::instance();
  c.set_capacity(2);
  for (int i = 0; i < 3; ++i) {
    const TraceContext ctx = c.start_trace();
    c.complete(ctx, obs::IoOp::kWrite, "t", 1, false, 0.0, 1.0);
  }
  EXPECT_EQ(c.watermark().evicted, 1u);
  const auto traces = c.drain();
  ASSERT_EQ(traces.size(), 2u);
  EXPECT_EQ(traces[0].trace_id, 2u);
  EXPECT_EQ(traces[1].trace_id, 3u);
}

TEST_F(TraceCollectorTest, SpansAfterSealCountAsLate) {
  auto& c = TraceCollector::instance();
  const TraceContext ctx = c.start_trace();
  c.complete(ctx, obs::IoOp::kWrite, "t", 1, false, 0.0, 1.0);
  obs::trace::record_phase(ctx, Phase::kBackend, 0.5, 0.1);
  EXPECT_EQ(c.watermark().late_spans, 1u);
  const auto traces = c.drain();
  ASSERT_EQ(traces.size(), 1u);
  EXPECT_TRUE(traces[0].spans.empty());
}

TEST_F(TraceCollectorTest, CompletedSinceCursorIsNonDestructive) {
  auto& c = TraceCollector::instance();
  const TraceContext a = c.start_trace();
  c.complete(a, obs::IoOp::kWrite, "t", 1, false, 0.0, 1.0);

  auto [first, cursor1] = c.completed_since(0);
  ASSERT_EQ(first.size(), 1u);

  const TraceContext b = c.start_trace();
  c.complete(b, obs::IoOp::kRead, "t", 2, false, 1.0, 2.0);

  auto [second, cursor2] = c.completed_since(cursor1);
  ASSERT_EQ(second.size(), 1u);
  EXPECT_EQ(second[0].trace_id, b.trace_id);
  EXPECT_GT(cursor2, cursor1);

  // The cursor reads copied; a later drain still sees everything.
  EXPECT_EQ(c.drain().size(), 2u);
}

TEST_F(TraceCollectorTest, TraceMintedUnderRecordingBindingIsChained) {
  auto& c = TraceCollector::instance();
  c.set_sampling_period(1000);  // only trace 0 sampled by the counter
  const TraceContext outer = c.start_trace();
  ASSERT_TRUE(outer.recording());

  TraceContext chained;
  {
    ScopedTraceContext bind(outer);
    chained = c.start_trace();
  }
  // Chained traces bypass sampling so a sampled parent never points at
  // a hole in the ring.
  ASSERT_TRUE(chained.recording());
  c.complete(chained, obs::IoOp::kWrite, "t", 1, false, 0.0, 1.0);
  c.complete(outer, obs::IoOp::kWrite, "t", 1, false, 0.0, 2.0);

  const auto traces = c.drain();
  ASSERT_EQ(traces.size(), 2u);
  EXPECT_EQ(traces[0].trace_id, chained.trace_id);
  EXPECT_EQ(traces[0].parent_trace_id, outer.trace_id);
  EXPECT_EQ(traces[0].parent_span_id, outer.span_id);
  EXPECT_EQ(traces[1].parent_trace_id, 0u);
}

// ---------------------------------------------------------------------------
// CriticalPathAnalyzer

/// Hand-built trace: root [0, 10s); queue_wait [0, 4); attempt [4, 10)
/// with a nested backend [5, 9).  Self times: queue_wait 4, attempt 2,
/// backend 4, other (root self) 0.
CompletedTrace synthetic_trace(std::uint64_t id, double scale,
                               const std::string& tenant) {
  CompletedTrace t;
  t.trace_id = id;
  t.root_span_id = id * 100;
  t.tenant = tenant;
  t.bytes = 1024;
  t.start_seconds = 0.0;
  t.duration_seconds = 10.0 * scale;

  TraceSpan queue;
  queue.span_id = id * 100 + 1;
  queue.parent_span_id = t.root_span_id;
  queue.phase = Phase::kQueueWait;
  queue.start_seconds = 0.0;
  queue.duration_seconds = 4.0 * scale;

  TraceSpan attempt;
  attempt.span_id = id * 100 + 2;
  attempt.parent_span_id = t.root_span_id;
  attempt.phase = Phase::kAttempt;
  attempt.start_seconds = 4.0 * scale;
  attempt.duration_seconds = 6.0 * scale;

  TraceSpan backend;
  backend.span_id = id * 100 + 3;
  backend.parent_span_id = attempt.span_id;
  backend.phase = Phase::kBackend;
  backend.start_seconds = 5.0 * scale;
  backend.duration_seconds = 4.0 * scale;

  t.spans = {queue, attempt, backend};
  return t;
}

TEST(CriticalPathTest, SelfTimeDecompositionSumsToWall) {
  CriticalPathAnalyzer analyzer({synthetic_trace(1, 1.0, "a")});
  const auto breakdowns = analyzer.breakdowns();
  ASSERT_EQ(breakdowns.size(), 1u);
  const auto& b = breakdowns[0];
  EXPECT_DOUBLE_EQ(b.phase(Phase::kQueueWait), 4.0);
  EXPECT_DOUBLE_EQ(b.phase(Phase::kAttempt), 2.0);
  EXPECT_DOUBLE_EQ(b.phase(Phase::kBackend), 4.0);
  EXPECT_NEAR(b.phase_total(), b.duration_seconds, 1e-12);
}

TEST(CriticalPathTest, StragglerAttributionNamesTheBlownPhase) {
  std::vector<CompletedTrace> traces;
  for (std::uint64_t i = 1; i <= 5; ++i) {
    traces.push_back(synthetic_trace(i, 1.0, "a"));
  }
  // One request 8x slower than the median, with ALL of the excess in
  // queue_wait: root [0, 80), queue_wait [0, 74), attempt as usual.
  CompletedTrace slow = synthetic_trace(6, 1.0, "a");
  slow.duration_seconds = 80.0;
  slow.spans[0].duration_seconds = 74.0;
  slow.spans[1].start_seconds = 74.0;
  traces.push_back(slow);

  CriticalPathAnalyzer analyzer(traces);
  const auto stragglers = analyzer.stragglers(3.0);
  ASSERT_EQ(stragglers.size(), 1u);
  EXPECT_EQ(stragglers[0].trace_id, 6u);
  EXPECT_EQ(stragglers[0].dominant, Phase::kQueueWait);
  EXPECT_GT(stragglers[0].factor, 7.0);

  const std::string report = analyzer.report(3.0);
  EXPECT_NE(report.find("queue_wait"), std::string::npos);
  EXPECT_NE(report.find("straggler"), std::string::npos);

  const std::string json = analyzer.to_json(3.0);
  EXPECT_NE(json.find("\"stragglers\""), std::string::npos);
  EXPECT_NE(json.find("\"phase\":\"queue_wait\""), std::string::npos);
}

TEST(CriticalPathTest, TenantPercentilesSplitByTenant) {
  std::vector<CompletedTrace> traces;
  for (std::uint64_t i = 1; i <= 4; ++i) {
    traces.push_back(synthetic_trace(i, 1.0, i % 2 == 0 ? "even" : "odd"));
  }
  CriticalPathAnalyzer analyzer(traces);
  const auto tenants = analyzer.tenant_percentiles();
  ASSERT_EQ(tenants.size(), 2u);
  EXPECT_EQ(tenants.at("even").count, 2u);
  EXPECT_EQ(tenants.at("odd").count, 2u);
  EXPECT_DOUBLE_EQ(tenants.at("even").p50, 10.0);
}

// ---------------------------------------------------------------------------
// Telemetry export

TEST_F(TraceCollectorTest, PrometheusRenderingCoversRegistryAndWatermark) {
  obs::Registry::instance().reset();
  obs::set_enabled(true);
  obs::Registry::instance().counter("io.writes").add(7);
  const auto snapshot = obs::Registry::instance().snapshot();
  obs::set_enabled(false);

  auto& c = TraceCollector::instance();
  const TraceContext ctx = c.start_trace();
  c.complete(ctx, obs::IoOp::kWrite, "t", 1, false, 0.0, 1.0);

  const std::string prom =
      obs::trace::to_prometheus(snapshot, c.watermark());
  EXPECT_NE(prom.find("# TYPE apio_io_writes counter"), std::string::npos);
  EXPECT_NE(prom.find("apio_io_writes 7"), std::string::npos);
  EXPECT_NE(prom.find("apio_trace_completed 1"), std::string::npos);
}

TEST_F(TraceCollectorTest, ExporterWritesPromAndJsonlFiles) {
  auto& c = TraceCollector::instance();
  const TraceContext ctx = c.start_trace();
  {
    ScopedTraceContext bind(ctx);
    ScopedPhase span(Phase::kBackend, 64, "memory");
  }
  c.complete(ctx, obs::IoOp::kWrite, "vpic", 64, false, 0.0, 0.5);

  const std::string dir = testing::TempDir();
  obs::trace::TelemetryOptions options;
  options.prom_path = dir + "/apio_trace_test.prom";
  options.jsonl_path = dir + "/apio_trace_test.jsonl";
  obs::trace::TelemetryExporter exporter(options);
  exporter.flush();
  EXPECT_EQ(exporter.flush_count(), 1u);

  std::ifstream prom(options.prom_path);
  ASSERT_TRUE(prom.good());
  std::stringstream prom_text;
  prom_text << prom.rdbuf();
  EXPECT_NE(prom_text.str().find("apio_trace_completed 1"), std::string::npos);

  std::ifstream jsonl(options.jsonl_path);
  ASSERT_TRUE(jsonl.good());
  std::string line;
  ASSERT_TRUE(std::getline(jsonl, line));
  EXPECT_NE(line.find("\"kind\":\"trace\""), std::string::npos);
  EXPECT_NE(line.find("\"tenant\":\"vpic\""), std::string::npos);
  EXPECT_NE(line.find("\"phase\":\"backend\""), std::string::npos);

  // A flush after sealing exported the trace; drain still sees it.
  EXPECT_EQ(c.drain().size(), 1u);
  std::filesystem::remove(options.prom_path);
  std::filesystem::remove(options.jsonl_path);
}

// ---------------------------------------------------------------------------
// Acceptance: one async write, two injected transient faults, full
// causal trace.

TEST_F(TraceCollectorTest, AsyncWriteSurvivingTwoFaultsYieldsFullCausalTrace) {
  // Stack: qos(resilient(throttled(faulty(memory)))) — the throttle
  // makes each try's backend time dominate the request, so the
  // sub-microsecond bookkeeping overlap at submit time stays far below
  // the 1% decomposition tolerance asserted at the end.
  storage::ThrottleParams throttle;
  throttle.bandwidth = 4.0 * kMiB;
  throttle.latency = 2e-3;
  auto faulty = std::make_shared<storage::FaultyBackend>(
      std::make_shared<storage::MemoryBackend>(), storage::FaultPlan{});
  resilience::ManualClock manual;
  storage::ResilienceOptions ro;
  ro.retry.max_attempts = 3;
  ro.retry.base_backoff_seconds = 1.0;
  ro.retry.backoff_multiplier = 2.0;
  ro.retry.max_backoff_seconds = 8.0;
  ro.retry.jitter_fraction = 0.0;
  auto scheduler = std::make_shared<sched::FairScheduler>();
  auto stack = storage::BackendStack::wrap(faulty)
                   .throttled(throttle)
                   .resilient(ro, &manual, &manual)
                   .qos(scheduler)
                   .build();

  auto file = h5::File::create(stack);
  auto ds = file->root().create_dataset("d", h5::Datatype::kUInt8, {64});

  // Arm AFTER metadata creation: the write stream is clean until the
  // request under test arrives.  Two transient faults, then the outage
  // clears — the third try must succeed.
  storage::FaultPlan outage;
  outage.fail_writes_after = 0;
  outage.transient = true;
  outage.heal_after_faults = 2;
  faulty->set_plan(outage);
  auto connector = std::make_unique<vol::AsyncConnector>(file);

  const std::vector<std::uint8_t> payload(32, 0xAB);
  auto request = connector->dataset_write(
      ds, h5::Selection::offsets({0}, {32}), bytes_of(payload));
  request->wait();
  EXPECT_FALSE(request->failed());
  EXPECT_EQ(faulty->faults_injected(), 2u);
  EXPECT_EQ(manual.sleeps(), (std::vector<double>{1.0, 2.0}));
  connector->close();

  const auto traces = TraceCollector::instance().drain();
  const CompletedTrace* trace = nullptr;
  for (const auto& t : traces) {
    if (t.op == obs::IoOp::kWrite && t.bytes == payload.size()) trace = &t;
  }
  ASSERT_NE(trace, nullptr) << "the traced write is missing from the ring";
  EXPECT_FALSE(trace->failed);

  // The full causal story: submission + staging on the issuing thread,
  // the FIFO and pool handoffs, the queue wait + admission, the
  // connector's single attempt, and inside it the resilient layer's
  // two backoffs between its three tries down the stack.
  EXPECT_GE(count_phase(*trace, Phase::kSubmit), 1);
  EXPECT_GE(count_phase(*trace, Phase::kStageCopy), 1);
  EXPECT_EQ(count_phase(*trace, Phase::kFifoWait), 1);
  EXPECT_GE(count_phase(*trace, Phase::kPoolWait), 1);
  EXPECT_GE(count_phase(*trace, Phase::kQueueWait), 1);
  EXPECT_GE(count_phase(*trace, Phase::kAdmission), 1);
  EXPECT_EQ(count_phase(*trace, Phase::kAttempt), 1);
  EXPECT_EQ(count_phase(*trace, Phase::kBackoff), 2);
  EXPECT_EQ(count_phase(*trace, Phase::kComplete), 1);

  // Each layer labels its backend spans.  The resilient span wraps all
  // three tries; the throttle sees each of them; the injected faults
  // fire before the memory leaf, so only the third try reaches it.
  int resilient_spans = 0;
  int throttled_spans = 0;
  int memory_spans = 0;
  for (const auto& s : trace->spans) {
    if (s.phase != Phase::kBackend) continue;
    resilient_spans += s.detail == "resilient" ? 1 : 0;
    throttled_spans += s.detail == "throttled" ? 1 : 0;
    memory_spans += s.detail == "memory" ? 1 : 0;
  }
  EXPECT_EQ(resilient_spans, 1);
  EXPECT_EQ(throttled_spans, 3);
  EXPECT_EQ(memory_spans, 1);

  // Per-phase self times decompose the request's wall time.  The 1%
  // fidelity bound is the acceptance criterion in a plain build;
  // sanitizer instrumentation stretches the bookkeeping between clock
  // reads enough to blow it, so only the decomposition structure (not
  // its precision) is asserted there.
#if defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__)
  constexpr double kPhaseSumTolerance = 0.50;
#else
  constexpr double kPhaseSumTolerance = 0.01;
#endif
  CriticalPathAnalyzer analyzer({*trace});
  const auto breakdowns = analyzer.breakdowns();
  ASSERT_EQ(breakdowns.size(), 1u);
  EXPECT_NEAR(breakdowns[0].phase_total(), trace->duration_seconds,
              kPhaseSumTolerance * trace->duration_seconds);

  // Nothing was lost: every span the layers recorded landed in-ring.
  const auto wm = TraceCollector::instance().watermark();
  EXPECT_EQ(wm.dropped_spans, 0u);
  EXPECT_EQ(wm.late_spans, 0u);
}

}  // namespace
}  // namespace apio
