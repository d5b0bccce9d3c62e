// Resilience tests: retry/backoff policy, circuit breaker, the resilient
// backend decorator (the library's one retry loop) and async ops that
// recover through it, driven by a deterministic fault matrix.
//
// Everything runs on virtual time: resilience::ManualClock is injected
// as both Clock and Sleeper, so the exact backoff schedule is asserted
// (sleep-by-sleep) and no test ever wall-sleeps.
//
// The centerpiece is ResilienceMatrixTest: {write, read, flush} ×
// {countdown, every-N, offset-range, permanent} × {no-retry, bounded,
// deadline}, each cell running a default AsyncConnector over
// resilient(faulty(memory)) and asserting the request outcome, the
// EventSet error record (identity + category), the retry counts (the
// decorator's own and io.retries et al.), the connector's AsyncStats
// and — via File::open's checksum validation — the final bytes in the
// container.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "common/error.h"
#include "common/rng.h"
#include "h5/file.h"
#include "obs/metrics.h"
#include "pmpi/world.h"
#include "resilience/circuit_breaker.h"
#include "resilience/retry.h"
#include "storage/faulty_backend.h"
#include "storage/memory_backend.h"
#include "storage/resilient_backend.h"
#include "vol/async_connector.h"
#include "vol/event_set.h"
#include "workloads/checkpoint_app.h"

namespace apio {
namespace {

using resilience::BreakerOptions;
using resilience::BreakerState;
using resilience::CircuitBreaker;
using resilience::ManualClock;
using resilience::RetryPolicy;
using resilience::run_with_retry;
using storage::FaultPlan;
using storage::FaultyBackend;

std::span<const std::byte> bytes_of(const std::vector<std::uint8_t>& v) {
  return std::as_bytes(std::span<const std::uint8_t>(v));
}

std::span<std::byte> writable(std::vector<std::uint8_t>& v) {
  return std::as_writable_bytes(std::span<std::uint8_t>(v));
}

std::uint64_t counter_total(const obs::RegistrySnapshot& snap,
                            const std::string& name) {
  return snap.counter_total(name);
}

// ---------------------------------------------------------------------------
// RetryPolicy: backoff schedule and jitter.

TEST(ResilienceRetryPolicyTest, BackoffIsExponentialAndClamped) {
  RetryPolicy p;
  p.base_backoff_seconds = 0.5;
  p.backoff_multiplier = 2.0;
  p.max_backoff_seconds = 3.0;
  p.jitter_fraction = 0.0;
  Rng rng(1);
  EXPECT_DOUBLE_EQ(p.backoff_for(1, rng), 0.5);
  EXPECT_DOUBLE_EQ(p.backoff_for(2, rng), 1.0);
  EXPECT_DOUBLE_EQ(p.backoff_for(3, rng), 2.0);
  EXPECT_DOUBLE_EQ(p.backoff_for(4, rng), 3.0);  // clamped from 4.0
  EXPECT_DOUBLE_EQ(p.backoff_for(5, rng), 3.0);
}

TEST(ResilienceRetryPolicyTest, JitterIsSeededBoundedAndReproducible) {
  RetryPolicy p;
  p.base_backoff_seconds = 1.0;
  p.max_backoff_seconds = 10.0;
  p.jitter_fraction = 0.25;
  Rng a(7);
  Rng b(7);
  Rng c(8);
  const double x = p.backoff_for(1, a);
  const double y = p.backoff_for(1, b);
  const double z = p.backoff_for(1, c);
  EXPECT_DOUBLE_EQ(x, y);  // same seed, same schedule
  EXPECT_NE(x, z);         // different seed, different draw
  EXPECT_GE(x, 0.75);
  EXPECT_LT(x, 1.25);
}

TEST(ResilienceRetryPolicyTest, ValidateRejectsNonsense) {
  RetryPolicy p;
  p.max_attempts = 0;
  EXPECT_THROW(p.validate(), Error);
  p = RetryPolicy{};
  p.jitter_fraction = 1.5;
  EXPECT_THROW(p.validate(), Error);
  p = RetryPolicy{};
  p.backoff_multiplier = 0.5;
  EXPECT_THROW(p.validate(), Error);
}

// ---------------------------------------------------------------------------
// ManualClock: virtual time for zero-wall-sleep tests.

TEST(ResilienceManualClockTest, AdvancesVirtuallyAndLogsSleeps) {
  ManualClock clock;
  EXPECT_DOUBLE_EQ(clock.now(), 0.0);
  clock.advance(1.5);
  EXPECT_DOUBLE_EQ(clock.now(), 1.5);
  clock.sleep(0.25);
  EXPECT_DOUBLE_EQ(clock.now(), 1.75);
  EXPECT_EQ(clock.sleeps(), std::vector<double>{0.25});
  EXPECT_DOUBLE_EQ(clock.total_slept(), 0.25);
  EXPECT_EQ(clock.sleep_count(), 1u);
}

// ---------------------------------------------------------------------------
// run_with_retry: the synchronous retry loop.

TEST(ResilienceRetrySessionTest, RetriesTransientUntilSuccess) {
  ManualClock clock;
  RetryPolicy p;
  p.max_attempts = 5;
  p.base_backoff_seconds = 0.5;
  p.backoff_multiplier = 2.0;
  p.max_backoff_seconds = 8.0;
  int calls = 0;
  const auto outcome = run_with_retry(p, clock, clock, nullptr, [&] {
    if (++calls < 3) throw TransientIoError("flaky");
  });
  EXPECT_EQ(calls, 3);
  EXPECT_EQ(outcome.attempts, 3);
  EXPECT_DOUBLE_EQ(outcome.backoff_seconds, 0.5 + 1.0);
  EXPECT_EQ(clock.sleeps(), (std::vector<double>{0.5, 1.0}));
}

TEST(ResilienceRetrySessionTest, PermanentErrorFailsFast) {
  ManualClock clock;
  RetryPolicy p;
  p.max_attempts = 5;
  int calls = 0;
  EXPECT_THROW((void)run_with_retry(p, clock, clock, nullptr,
                                    [&] {
                                      ++calls;
                                      throw IoError("dead");
                                    }),
               IoError);
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(clock.sleep_count(), 0u);
}

TEST(ResilienceRetrySessionTest, RetryPermanentOptInRetriesIoError) {
  ManualClock clock;
  RetryPolicy p;
  p.max_attempts = 5;
  p.base_backoff_seconds = 0.1;
  p.retry_permanent = true;
  int calls = 0;
  const auto outcome = run_with_retry(p, clock, clock, nullptr, [&] {
    if (++calls < 3) throw IoError("flaky-but-permanent-looking");
  });
  EXPECT_EQ(calls, 3);
  EXPECT_EQ(outcome.attempts, 3);
}

TEST(ResilienceRetrySessionTest, DeadlineAbandonsInsteadOfSleeping) {
  ManualClock clock;
  RetryPolicy p;
  p.max_attempts = 100;
  p.base_backoff_seconds = 1.0;
  p.backoff_multiplier = 2.0;
  p.max_backoff_seconds = 8.0;
  p.deadline_seconds = 2.5;
  int calls = 0;
  EXPECT_THROW((void)run_with_retry(p, clock, clock, nullptr,
                                    [&] {
                                      ++calls;
                                      throw TransientIoError("down");
                                    }),
               TransientIoError);
  // Attempt 1 fails at t=0, backoff 1.0 fits the 2.5 s budget; attempt 2
  // fails at t=1, backoff 2.0 would overrun -> abandoned unslept.
  EXPECT_EQ(calls, 2);
  EXPECT_EQ(clock.sleeps(), std::vector<double>{1.0});
}

// ---------------------------------------------------------------------------
// CircuitBreaker state machine on virtual time.

TEST(ResilienceBreakerTest, TripsAfterThresholdCoolsDownAndRecovers) {
  ManualClock clock;
  BreakerOptions bo;
  bo.failure_threshold = 3;
  bo.open_seconds = 5.0;
  CircuitBreaker breaker(bo, &clock, "unit");

  EXPECT_EQ(breaker.state(), BreakerState::kClosed);
  breaker.on_failure();
  breaker.on_failure();
  EXPECT_EQ(breaker.state(), BreakerState::kClosed);
  EXPECT_EQ(breaker.consecutive_failures(), 2);
  EXPECT_TRUE(breaker.allow());

  breaker.on_failure();  // third consecutive failure trips
  EXPECT_EQ(breaker.state(), BreakerState::kOpen);
  EXPECT_EQ(breaker.trips(), 1u);
  EXPECT_FALSE(breaker.allow());

  clock.advance(4.9);
  EXPECT_FALSE(breaker.allow());  // still cooling down
  clock.advance(0.2);
  EXPECT_TRUE(breaker.allow());  // cooldown elapsed: half-open probe
  EXPECT_EQ(breaker.state(), BreakerState::kHalfOpen);

  breaker.on_failure();  // failed probe re-trips immediately
  EXPECT_EQ(breaker.state(), BreakerState::kOpen);
  EXPECT_EQ(breaker.trips(), 2u);

  clock.advance(5.1);
  EXPECT_TRUE(breaker.allow());
  breaker.on_success();
  EXPECT_EQ(breaker.state(), BreakerState::kClosed);
  EXPECT_EQ(breaker.consecutive_failures(), 0);
}

// ---------------------------------------------------------------------------
// FaultyBackend patterns and the heal/arm contract.

TEST(ResilienceFaultyBackendTest, EveryNFailsOnSchedule) {
  FaultPlan plan;
  plan.fail_every_n_writes = 3;
  FaultyBackend backend(std::make_shared<storage::MemoryBackend>(), plan);
  std::vector<std::byte> data(4, std::byte{1});
  backend.write(0, data);
  backend.write(4, data);
  EXPECT_THROW(backend.write(8, data), IoError);  // call 3
  backend.write(8, data);
  backend.write(12, data);
  EXPECT_THROW(backend.write(16, data), IoError);  // call 6
  EXPECT_EQ(backend.faults_injected(), 2u);
}

TEST(ResilienceFaultyBackendTest, OffsetRangeFaultsIntersectingAccesses) {
  FaultPlan plan;
  plan.fault_offset_begin = 8;
  plan.fault_offset_end = 16;
  FaultyBackend backend(std::make_shared<storage::MemoryBackend>(), plan);
  std::vector<std::byte> data(8, std::byte{1});
  backend.write(0, data);                          // [0, 8): clear
  EXPECT_THROW(backend.write(4, data), IoError);   // [4, 12): intersects
  backend.write(16, data);                         // [16, 24): clear
  std::vector<std::byte> out(8);
  EXPECT_THROW(backend.read(12, out), IoError);    // [12, 20): intersects
  backend.read(0, out);
  backend.flush();  // flushes carry no offset and never match
}

TEST(ResilienceFaultyBackendTest, TransientPlansThrowTransientIoError) {
  FaultPlan plan;
  plan.fail_every_n_writes = 1;
  plan.transient = true;
  FaultyBackend backend(std::make_shared<storage::MemoryBackend>(), plan);
  std::vector<std::byte> data(4, std::byte{1});
  EXPECT_THROW(backend.write(0, data), TransientIoError);
  try {
    backend.write(0, data);
    FAIL() << "expected an injected fault";
  } catch (...) {
    EXPECT_EQ(resilience::classify_error(std::current_exception()),
              resilience::ErrorClass::kTransient);
  }
}

TEST(ResilienceFaultyBackendTest, AutoHealsAfterConfiguredFaults) {
  FaultPlan plan;
  plan.fail_every_n_writes = 1;
  plan.heal_after_faults = 2;
  FaultyBackend backend(std::make_shared<storage::MemoryBackend>(), plan);
  std::vector<std::byte> data(4, std::byte{1});
  EXPECT_THROW(backend.write(0, data), IoError);
  EXPECT_THROW(backend.write(0, data), IoError);
  backend.write(0, data);  // outage cleared
  EXPECT_TRUE(backend.healed());
  EXPECT_EQ(backend.faults_injected(), 2u);
}

TEST(ResilienceFaultyBackendTest, HealResetsCountdownBeforeArm) {
  FaultPlan plan;
  plan.fail_writes_after = 1;
  FaultyBackend backend(std::make_shared<storage::MemoryBackend>(), plan);
  std::vector<std::byte> data(4, std::byte{1});
  backend.write(0, data);
  EXPECT_THROW(backend.write(4, data), IoError);
  EXPECT_THROW(backend.write(4, data), IoError);

  backend.heal();
  backend.write(4, data);
  backend.write(8, data);

  // Re-arming replays a FRESH countdown (one success, then faults),
  // not the stale exhausted one — the regression the release/acquire
  // contract in faulty_backend.h pins down.
  backend.arm();
  backend.write(12, data);
  EXPECT_THROW(backend.write(16, data), IoError);
}

// ---------------------------------------------------------------------------
// ResilientBackend: the synchronous decorator.

TEST(ResilienceResilientBackendTest, RetriesTransientWritesToCompletion) {
  FaultPlan plan;
  plan.fail_writes_after = 0;
  plan.transient = true;
  plan.heal_after_faults = 2;
  auto faulty = std::make_shared<FaultyBackend>(
      std::make_shared<storage::MemoryBackend>(), plan);

  ManualClock manual;
  storage::ResilienceOptions ro;
  ro.retry.max_attempts = 5;
  ro.retry.base_backoff_seconds = 1.0;
  ro.retry.backoff_multiplier = 2.0;
  ro.retry.max_backoff_seconds = 8.0;
  storage::ResilientBackend backend(faulty, ro, &manual, &manual);

  const std::vector<std::uint8_t> data{1, 2, 3, 4};
  backend.write(0, bytes_of(data));  // two faults, then success
  EXPECT_EQ(backend.retries(), 2u);
  EXPECT_EQ(manual.sleeps(), (std::vector<double>{1.0, 2.0}));

  std::vector<std::uint8_t> out(4);
  backend.read(0, writable(out));
  EXPECT_EQ(out, data);
  EXPECT_EQ(backend.name(), "resilient(faulty(memory))");
}

TEST(ResilienceResilientBackendTest, PermanentErrorsAreNotRetried) {
  FaultPlan plan;
  plan.fail_every_n_writes = 1;  // every write fails, classified permanent
  auto faulty = std::make_shared<FaultyBackend>(
      std::make_shared<storage::MemoryBackend>(), plan);
  ManualClock manual;
  storage::ResilienceOptions ro;
  ro.retry.max_attempts = 5;
  storage::ResilientBackend backend(faulty, ro, &manual, &manual);
  const std::vector<std::uint8_t> data{1};
  EXPECT_THROW(backend.write(0, bytes_of(data)), IoError);
  EXPECT_EQ(backend.retries(), 0u);
  EXPECT_EQ(manual.sleep_count(), 0u);
  EXPECT_EQ(faulty->faults_injected(), 1u);
}

TEST(ResilienceResilientBackendTest, BreakerShedsLoadDuringOutage) {
  FaultPlan plan;
  plan.fail_every_n_writes = 1;
  plan.transient = true;
  auto faulty = std::make_shared<FaultyBackend>(
      std::make_shared<storage::MemoryBackend>(), plan);

  ManualClock manual;
  storage::ResilienceOptions ro;
  ro.retry.max_attempts = 1;  // isolate the breaker from the retry loop
  ro.breaker.failure_threshold = 3;
  ro.breaker.open_seconds = 10.0;
  storage::ResilientBackend backend(faulty, ro, &manual, &manual);
  ASSERT_NE(backend.breaker(), nullptr);

  const std::vector<std::uint8_t> data{1};
  for (int i = 0; i < 3; ++i) {
    EXPECT_THROW(backend.write(0, bytes_of(data)), TransientIoError);
  }
  EXPECT_EQ(backend.breaker()->state(), BreakerState::kOpen);

  // While open, attempts are rejected before reaching the backend.
  EXPECT_THROW(backend.write(0, bytes_of(data)), resilience::BreakerOpenError);
  EXPECT_EQ(faulty->faults_injected(), 3u);

  manual.advance(11.0);
  faulty->heal();
  backend.write(0, bytes_of(data));  // half-open probe succeeds
  EXPECT_EQ(backend.breaker()->state(), BreakerState::kClosed);
  EXPECT_EQ(backend.breaker()->trips(), 1u);
}

// ---------------------------------------------------------------------------
// Request identity on failure.

TEST(ResilienceRequestIdentityTest, FailedRequestCarriesFullIdentity) {
  auto backend = std::make_shared<FaultyBackend>(
      std::make_shared<storage::MemoryBackend>(), FaultPlan{});
  auto file = h5::File::create(backend);
  auto ds = file->root().create_dataset("d", h5::Datatype::kUInt8, {64});

  FaultPlan plan;
  plan.fail_every_n_writes = 1;  // permanent: no retry, fails outright
  backend->set_plan(plan);

  vol::AsyncConnector connector(file);
  const std::vector<std::uint8_t> payload(16, 0xAA);
  auto req = connector.dataset_write(ds, h5::Selection::offsets({16}, {16}),
                                     bytes_of(payload));
  EXPECT_THROW(req->wait(), IoError);
  EXPECT_TRUE(req->failed());
  EXPECT_EQ(req->error_category(), "io");
  EXPECT_NE(req->error_message().find("injected write fault"),
            std::string::npos);
  EXPECT_EQ(req->info().op, obs::IoOp::kWrite);
  EXPECT_EQ(req->info().dataset_path, "d");
  EXPECT_EQ(req->info().offset, 16u);
  EXPECT_EQ(req->info().bytes, 16u);

  // The EventSet error line aggregates identity + message + taxonomy.
  vol::EventSet es;
  es.insert(req);
  es.wait();
  ASSERT_EQ(es.num_errors(), 1u);
  const std::string line = es.error_messages()[0];
  EXPECT_NE(line.find("write d"), std::string::npos);
  EXPECT_NE(line.find("injected write fault"), std::string::npos);
  EXPECT_NE(line.find("[category=io]"), std::string::npos);

  backend->heal();
  connector.close();
}

// ---------------------------------------------------------------------------
// The fault matrix.

enum class TargetOp { kWrite, kRead, kFlush };
enum class Pattern { kCountdown, kEveryN, kOffsetRange, kPermanent };
enum class PolicyKind { kNoRetry, kBounded, kDeadline };

const char* name_of(TargetOp op) {
  switch (op) {
    case TargetOp::kWrite: return "Write";
    case TargetOp::kRead: return "Read";
    case TargetOp::kFlush: return "Flush";
  }
  return "?";
}

const char* name_of(Pattern p) {
  switch (p) {
    case Pattern::kCountdown: return "Countdown";
    case Pattern::kEveryN: return "EveryN";
    case Pattern::kOffsetRange: return "OffsetRange";
    case Pattern::kPermanent: return "Permanent";
  }
  return "?";
}

const char* name_of(PolicyKind pk) {
  switch (pk) {
    case PolicyKind::kNoRetry: return "NoRetry";
    case PolicyKind::kBounded: return "Bounded";
    case PolicyKind::kDeadline: return "Deadline";
  }
  return "?";
}

obs::IoOp to_io_op(TargetOp op) {
  switch (op) {
    case TargetOp::kWrite: return obs::IoOp::kWrite;
    case TargetOp::kRead: return obs::IoOp::kRead;
    case TargetOp::kFlush: return obs::IoOp::kFlush;
  }
  return obs::IoOp::kWrite;
}

/// The fault plan that drives one matrix cell.  `data_offset` is the
/// backend offset of the target dataset's data region (for the
/// offset-range pattern).
FaultPlan make_plan(TargetOp op, Pattern pattern, std::uint64_t data_offset) {
  FaultPlan plan;
  plan.transient = true;
  switch (pattern) {
    case Pattern::kCountdown:
      // Fail from the first call; the outage clears after two faults.
      plan.heal_after_faults = 2;
      if (op == TargetOp::kWrite) plan.fail_writes_after = 0;
      if (op == TargetOp::kRead) plan.fail_reads_after = 0;
      if (op == TargetOp::kFlush) plan.fail_flushes_after = 0;
      break;
    case Pattern::kEveryN:
      // A warm-up op takes call 1; the target faults on call 2 and its
      // retry (call 3) succeeds.
      if (op == TargetOp::kWrite) plan.fail_every_n_writes = 2;
      if (op == TargetOp::kRead) plan.fail_every_n_reads = 2;
      if (op == TargetOp::kFlush) plan.fail_every_n_flushes = 2;
      break;
    case Pattern::kOffsetRange:
      // Exactly the target selection's backend range; one fault, then
      // the outage clears.  Flushes carry no offset and never match.
      plan.fault_offset_begin = data_offset + 16;
      plan.fault_offset_end = data_offset + 32;
      plan.heal_after_faults = 1;
      break;
    case Pattern::kPermanent:
      plan.transient = false;
      if (op == TargetOp::kWrite) plan.fail_every_n_writes = 1;
      if (op == TargetOp::kRead) plan.fail_every_n_reads = 1;
      if (op == TargetOp::kFlush) plan.fail_every_n_flushes = 1;
      break;
  }
  return plan;
}

/// The retry policy for one matrix cell.  All use base 1 s, x2, cap 8 s,
/// no jitter, so the virtual backoff schedule is exact.
RetryPolicy make_policy(PolicyKind pk) {
  RetryPolicy p;
  p.base_backoff_seconds = 1.0;
  p.backoff_multiplier = 2.0;
  p.max_backoff_seconds = 8.0;
  p.jitter_fraction = 0.0;
  switch (pk) {
    case PolicyKind::kNoRetry:
      p.max_attempts = 1;
      break;
    case PolicyKind::kBounded:
      p.max_attempts = 4;
      break;
    case PolicyKind::kDeadline:
      p.max_attempts = 100;
      p.deadline_seconds = 2.5;
      break;
  }
  return p;
}

struct Expected {
  bool success = true;
  bool deadline_exhausted = false;
  std::vector<double> sleeps;       // exact virtual backoff schedule
  std::uint64_t retries = 0;        // io.retries == ResilientBackend::retries()
  std::uint64_t failed = 0;         // vol.async.failed_ops
  std::string fail_category;        // "" on success
};

/// The faulty backend the test plans faults on, under the resilient
/// decorator the file sits on.  The breaker is off so each cell
/// isolates the retry loop.
struct FaultStack {
  std::shared_ptr<storage::MemoryBackend> memory =
      std::make_shared<storage::MemoryBackend>();
  std::shared_ptr<FaultyBackend> faulty =
      std::make_shared<FaultyBackend>(memory, FaultPlan{});
  std::shared_ptr<storage::ResilientBackend> resilient;

  FaultStack(const RetryPolicy& policy, ManualClock& manual) {
    storage::ResilienceOptions options;
    options.retry = policy;
    options.enable_breaker = false;
    resilient = std::make_shared<storage::ResilientBackend>(faulty, options,
                                                            &manual, &manual);
  }
};

Expected compute_expected(TargetOp op, Pattern pattern, PolicyKind pk) {
  Expected e;
  switch (pattern) {
    case Pattern::kPermanent:
      // Never retried.
      e.success = false;
      e.fail_category = "io";
      e.failed = 1;
      return e;

    case Pattern::kCountdown:
      switch (pk) {
        case PolicyKind::kNoRetry:
          e.success = false;
          e.fail_category = "transient-io";
          e.failed = 1;
          return e;
        case PolicyKind::kBounded:
          // Faults on attempts 1 and 2; the outage clears (heal_after_
          // faults = 2) and attempt 3 succeeds.
          e.sleeps = {1.0, 2.0};
          e.retries = 2;
          return e;
        case PolicyKind::kDeadline:
          // Attempt 2's 2.0 s backoff would overrun the 2.5 s budget,
          // anchored at the start of the backend call (t = 0).
          e.success = false;
          e.sleeps = {1.0};
          e.retries = 1;
          e.deadline_exhausted = true;
          e.fail_category = "transient-io";
          e.failed = 1;
          return e;
      }
      return e;

    case Pattern::kEveryN:
    case Pattern::kOffsetRange:
      if (pattern == Pattern::kOffsetRange && op == TargetOp::kFlush) {
        return e;  // flushes carry no offset: trivial success
      }
      if (pk == PolicyKind::kNoRetry) {
        e.success = false;
        e.fail_category = "transient-io";
        e.failed = 1;
        return e;
      }
      // One fault, one retry, success — under every retrying policy.
      e.sleeps = {1.0};
      e.retries = 1;
      return e;
  }
  return e;
}

/// Locates `needle` (the baseline data-region bytes) in the backend
/// image; the matrix uses it to aim the offset-range pattern.
std::uint64_t find_data_offset(storage::Backend& backend,
                               const std::vector<std::uint8_t>& needle) {
  std::vector<std::byte> image(backend.size());
  backend.read(0, image);
  const auto it = std::search(
      image.begin(), image.end(), needle.begin(), needle.end(),
      [](std::byte a, std::uint8_t b) {
        return std::to_integer<std::uint8_t>(a) == b;
      });
  EXPECT_NE(it, image.end()) << "baseline bytes not found in backend image";
  return static_cast<std::uint64_t>(it - image.begin());
}

class ResilienceMatrixTest
    : public testing::TestWithParam<std::tuple<TargetOp, Pattern, PolicyKind>> {
 protected:
  void SetUp() override {
    obs::Registry::instance().reset();
    obs::set_enabled(true);
  }
  void TearDown() override { obs::set_enabled(false); }
};

TEST_P(ResilienceMatrixTest, DrivesFaultToExpectedOutcome) {
  const auto [op, pattern, pk] = GetParam();
  const Expected expected = compute_expected(op, pattern, pk);

  ManualClock manual;
  FaultStack stack(make_policy(pk), manual);
  auto& backend = stack.faulty;
  auto file = h5::File::create(stack.resilient);
  auto ds = file->root().create_dataset("d", h5::Datatype::kUInt8, {64});

  // Baseline: 64 distinct ascending bytes, so the data region is
  // locatable in the backend image and any corruption shows up in the
  // final byte check.
  std::vector<std::uint8_t> baseline(64);
  for (std::size_t i = 0; i < baseline.size(); ++i) {
    baseline[i] = static_cast<std::uint8_t>(i);
  }
  ds.write<std::uint8_t>(h5::Selection::all(), baseline);
  const std::uint64_t data_offset = find_data_offset(*stack.memory, baseline);

  backend->set_plan(make_plan(op, pattern, data_offset));

  auto connector = std::make_unique<vol::AsyncConnector>(file);

  const std::vector<std::uint8_t> lead(16, 0xBB);
  const std::vector<std::uint8_t> payload(16, 0xAA);
  std::vector<std::uint8_t> out_lead(16, 0);
  std::vector<std::uint8_t> out(16, 0);

  vol::EventSet es;
  const bool two_ops = (pattern == Pattern::kEveryN);
  if (two_ops) {
    // Warm-up op: takes per-op call 1 so the target lands on call 2.
    switch (op) {
      case TargetOp::kWrite:
        es.insert(connector->dataset_write(
            ds, h5::Selection::offsets({0}, {16}), bytes_of(lead)));
        break;
      case TargetOp::kRead:
        es.insert(connector->dataset_read(
            ds, h5::Selection::offsets({0}, {16}), writable(out_lead)));
        break;
      case TargetOp::kFlush:
        es.insert(connector->flush());
        break;
    }
  }

  vol::RequestPtr target;
  switch (op) {
    case TargetOp::kWrite:
      target = connector->dataset_write(ds, h5::Selection::offsets({16}, {16}),
                                        bytes_of(payload));
      break;
    case TargetOp::kRead:
      target = connector->dataset_read(ds, h5::Selection::offsets({16}, {16}),
                                       writable(out));
      break;
    case TargetOp::kFlush:
      target = connector->flush();
      break;
  }
  es.insert(target);
  es.wait();

  // Request outcome.
  EXPECT_TRUE(target->test());
  EXPECT_EQ(target->failed(), !expected.success);
  EXPECT_EQ(stack.resilient->retries(), expected.retries);

  // Exact virtual backoff schedule — nothing ever wall-slept.
  EXPECT_EQ(manual.sleeps(), expected.sleeps);

  // EventSet error record with full identity.
  if (expected.success) {
    EXPECT_EQ(es.num_errors(), 0u);
  } else {
    const auto errors = es.errors();
    ASSERT_EQ(errors.size(), 1u);
    const vol::EventError& err = errors[0];
    EXPECT_EQ(err.category, expected.fail_category);
    EXPECT_NE(err.message.find("injected"), std::string::npos);
    EXPECT_EQ(err.info.op, to_io_op(op));
    if (op != TargetOp::kFlush) {
      EXPECT_EQ(err.info.dataset_path, "d");
      EXPECT_EQ(err.info.offset, 16u);
      EXPECT_EQ(err.info.bytes, 16u);
    }
  }

  // Obs counters: exact retry/deadline/failure accounting.
  const auto snap = obs::Registry::instance().snapshot();
  EXPECT_EQ(counter_total(snap, "io.retries"), expected.retries);
  EXPECT_EQ(counter_total(snap, "vol.async.failed_ops"), expected.failed);
  EXPECT_EQ(counter_total(snap, "io.deadline_exhausted"),
            expected.deadline_exhausted ? 1u : 0u);
  const auto hist = snap.histograms.find("io.retry_backoff_seconds");
  const std::uint64_t backoff_count =
      hist == snap.histograms.end() ? 0 : hist->second.count;
  double backoff_sum =
      hist == snap.histograms.end() ? 0.0 : hist->second.sum_seconds;
  EXPECT_EQ(backoff_count, expected.sleeps.size());
  double want_sum = 0.0;
  for (double s : expected.sleeps) want_sum += s;
  EXPECT_NEAR(backoff_sum, want_sum, 1e-6);

  // AsyncStats agree with the registry.
  EXPECT_EQ(connector->stats().failed_ops, expected.failed);

  // Reopen through the format-integrity path (File::open validates the
  // superblock and metadata checksums) and check the final bytes.
  backend->heal();
  connector->close();
  connector.reset();

  auto reopened = h5::File::open(backend);
  auto ds2 = reopened->root().open_dataset("d");
  std::vector<std::uint8_t> want = baseline;
  if (op == TargetOp::kWrite) {
    if (two_ops) std::fill(want.begin(), want.begin() + 16, 0xBB);
    if (expected.success) std::fill(want.begin() + 16, want.begin() + 32, 0xAA);
  }
  EXPECT_EQ(ds2.read_vector<std::uint8_t>(h5::Selection::all()), want);

  if (op == TargetOp::kRead) {
    if (expected.success) {
      EXPECT_EQ(out, std::vector<std::uint8_t>(baseline.begin() + 16,
                                               baseline.begin() + 32));
    } else {
      EXPECT_EQ(out, std::vector<std::uint8_t>(16, 0));  // untouched
    }
    if (two_ops) {
      EXPECT_EQ(out_lead, std::vector<std::uint8_t>(baseline.begin(),
                                                    baseline.begin() + 16));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    FaultMatrix, ResilienceMatrixTest,
    testing::Combine(
        testing::Values(TargetOp::kWrite, TargetOp::kRead, TargetOp::kFlush),
        testing::Values(Pattern::kCountdown, Pattern::kEveryN,
                        Pattern::kOffsetRange, Pattern::kPermanent),
        testing::Values(PolicyKind::kNoRetry, PolicyKind::kBounded,
                        PolicyKind::kDeadline)),
    [](const testing::TestParamInfo<ResilienceMatrixTest::ParamType>& info) {
      return std::string(name_of(std::get<0>(info.param))) + "_" +
             name_of(std::get<1>(info.param)) + "_" +
             name_of(std::get<2>(info.param));
    });

// ---------------------------------------------------------------------------
// Concurrency: faults mid-epoch on 8 ranks, and shutdown racing retries.

TEST(ResilienceConcurrencyTest, EightRanksRetryMidEpochFaultsToCompletion) {
  obs::Registry::instance().reset();
  obs::set_enabled(true);

  constexpr int kRanks = 8;
  constexpr int kChunksPerRank = 4;
  constexpr std::uint64_t kChunk = 16;
  constexpr std::uint64_t kTotal = kRanks * kChunksPerRank * kChunk;

  ManualClock manual;
  RetryPolicy policy;
  policy.max_attempts = 100;
  policy.base_backoff_seconds = 0.001;
  policy.max_backoff_seconds = 0.01;
  FaultStack stack(policy, manual);
  auto& backend = stack.faulty;
  auto file = h5::File::create(stack.resilient);
  auto ds = file->root().create_dataset("d", h5::Datatype::kUInt8, {kTotal});
  vol::AsyncConnector connector(file);

  FaultPlan plan;
  plan.fail_every_n_writes = 5;
  plan.transient = true;
  backend->set_plan(plan);

  pmpi::run(kRanks, [&](pmpi::Communicator& comm) {
    vol::EventSet es;
    for (int i = 0; i < kChunksPerRank; ++i) {
      const int chunk = comm.rank() * kChunksPerRank + i;
      const std::vector<std::uint8_t> chunk_data(
          kChunk, static_cast<std::uint8_t>(chunk));
      es.insert(connector.dataset_write(
          ds,
          h5::Selection::offsets({static_cast<std::uint64_t>(chunk) * kChunk},
                                 {kChunk}),
          bytes_of(chunk_data)));
    }
    es.wait();
    EXPECT_EQ(es.num_errors(), 0u);
    comm.barrier();
  });

  // Deterministic retry math: the single background stream serializes
  // all backend writes; every 5th call faults and is retried until 32
  // chunks have landed.  The 32nd success is call 39 (39 - 39/5 = 32),
  // so exactly 7 faults were injected and 7 retries re-executed.
  const auto stats = connector.stats();
  EXPECT_EQ(stats.writes_enqueued, 32u);
  EXPECT_EQ(stats.failed_ops, 0u);
  EXPECT_EQ(stack.resilient->retries(), 7u);
  EXPECT_EQ(backend->faults_injected(), 7u);

  // The registry agrees.
  const auto snap = obs::Registry::instance().snapshot();
  EXPECT_EQ(counter_total(snap, "io.retries"), 7u);
  EXPECT_EQ(counter_total(snap, "vol.async.failed_ops"), 0u);

  backend->heal();
  connector.close();
  obs::set_enabled(false);

  auto reopened = h5::File::open(backend);
  auto ds2 = reopened->root().open_dataset("d");
  const auto contents = ds2.read_vector<std::uint8_t>(h5::Selection::all());
  ASSERT_EQ(contents.size(), kTotal);
  for (std::size_t i = 0; i < contents.size(); ++i) {
    EXPECT_EQ(contents[i], static_cast<std::uint8_t>(i / kChunk))
        << "byte " << i;
  }
}

TEST(ResilienceConcurrencyTest, CloseDrainsFailingRetriesWithoutDeadlock) {
  ManualClock manual;
  RetryPolicy policy;
  policy.max_attempts = 5;
  policy.base_backoff_seconds = 0.001;
  FaultStack stack(policy, manual);
  auto& backend = stack.faulty;
  auto file = h5::File::create(stack.resilient);
  auto ds = file->root().create_dataset("d", h5::Datatype::kUInt8, {64});

  std::vector<std::uint8_t> baseline(64);
  for (std::size_t i = 0; i < baseline.size(); ++i) {
    baseline[i] = static_cast<std::uint8_t>(i);
  }
  ds.write<std::uint8_t>(h5::Selection::all(), baseline);
  const std::uint64_t data_offset = find_data_offset(*stack.memory, baseline);

  // The whole data region faults transiently and never heals: every
  // data write retries to exhaustion while metadata traffic (other
  // offsets) stays healthy, so close() can still flush the container.
  FaultPlan plan;
  plan.fault_offset_begin = data_offset;
  plan.fault_offset_end = data_offset + 64;
  plan.transient = true;
  backend->set_plan(plan);
  vol::AsyncConnector connector(file);

  const std::vector<std::uint8_t> payload(16, 0xAA);
  std::vector<vol::RequestPtr> requests;
  for (int i = 0; i < 4; ++i) {
    requests.push_back(connector.dataset_write(
        ds, h5::Selection::offsets({static_cast<std::uint64_t>(i) * 16}, {16}),
        bytes_of(payload)));
  }

  // Close while the ops are retrying: the drain must wait out every
  // op's full retry sequence without deadlocking or wedging the pool.
  connector.close();

  for (const auto& req : requests) {
    EXPECT_TRUE(req->test());
    EXPECT_TRUE(req->failed());
    EXPECT_EQ(req->error_category(), "transient-io");
  }
  EXPECT_EQ(connector.stats().failed_ops, 4u);
  EXPECT_EQ(stack.resilient->retries(), 16u);  // 4 ops x 4 re-executions each
  EXPECT_EQ(backend->faults_injected(), 20u);  // 4 ops x 5 attempts each

  // The container survived: baseline intact under checksum validation.
  backend->heal();
  auto reopened = h5::File::open(backend);
  auto ds2 = reopened->root().open_dataset("d");
  EXPECT_EQ(ds2.read_vector<std::uint8_t>(h5::Selection::all()), baseline);
}

// ---------------------------------------------------------------------------
// Checkpoint workload: storage faults degrade the run instead of
// aborting it, and failures are counted collectively.

TEST(ResilienceCheckpointTest, FaultsDegradeRunInsteadOfAborting) {
  auto backend = std::make_shared<FaultyBackend>(
      std::make_shared<storage::MemoryBackend>(), FaultPlan{});
  auto file = h5::File::create(backend);
  vol::AsyncConnector connector(file);  // no resilient layer: no retries

  // 3 checkpoints x 2 ranks = 6 data writes (metadata stays in memory
  // until flush); every 3rd faults permanently -> exactly 2 failures.
  FaultPlan plan;
  plan.fail_every_n_writes = 3;
  backend->set_plan(plan);

  workloads::CheckpointSchedule schedule;
  schedule.checkpoints = 3;
  schedule.steps_per_checkpoint = 1;
  schedule.seconds_per_step = 0.0;

  constexpr int kRanks = 2;
  std::array<workloads::CheckpointRunResult, kRanks> results;
  pmpi::run(kRanks, [&](pmpi::Communicator& comm) {
    results[static_cast<std::size_t>(comm.rank())] =
        workloads::run_checkpoint_app(
            connector, comm, schedule, 16,
            [&](int c) {
              file->root().create_dataset("ckpt" + std::to_string(c),
                                          h5::Datatype::kUInt8, {32});
            },
            [&](int c, std::vector<vol::RequestPtr>& outstanding) {
              auto ds =
                  file->root().open_dataset("ckpt" + std::to_string(c));
              const std::vector<std::uint8_t> chunk(
                  16, static_cast<std::uint8_t>(c));
              outstanding.push_back(connector.dataset_write(
                  ds,
                  h5::Selection::offsets(
                      {static_cast<std::uint64_t>(comm.rank()) * 16}, {16}),
                  bytes_of(chunk)));
              return 0.0;
            });
  });

  // The aggregated count is identical on every rank; the run completed
  // instead of aborting on the first failure.
  EXPECT_EQ(results[0].failed_requests, 2u);
  EXPECT_EQ(results[1].failed_requests, 2u);
  EXPECT_EQ(results[0].checkpoint_io_seconds.size(), 3u);

  std::size_t local_error_lines = 0;
  for (const auto& result : results) {
    for (const auto& line : result.local_errors) {
      ++local_error_lines;
      EXPECT_NE(line.find("injected write fault"), std::string::npos);
      EXPECT_NE(line.find("ckpt"), std::string::npos);
    }
  }
  EXPECT_EQ(local_error_lines, 2u);

  backend->heal();  // close() must flush metadata successfully
  connector.close();
}

}  // namespace
}  // namespace apio
