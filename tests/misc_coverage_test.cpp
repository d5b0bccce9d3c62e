// Remaining coverage: replay timing reproduction, non-shared throttle
// channels, split() composition, connector/advisor interactions not
// covered elsewhere, and log-level plumbing.
#include <gtest/gtest.h>

#include <chrono>

#include "common/log.h"
#include "pmpi/world.h"
#include "storage/memory_backend.h"
#include "storage/throttled_backend.h"
#include "vol/adaptive_connector.h"
#include "vol/native_connector.h"
#include "vol/trace.h"

namespace apio {
namespace {

TEST(ReplayTimingTest, TimeScaleReproducesComputeGaps) {
  // A trace with a 100 ms gap between two writes; replay at scale 0.5
  // must take >= 50 ms, replay at scale 0 should be near-instant.
  vol::Trace trace;
  for (int i = 0; i < 2; ++i) {
    vol::TraceEvent e;
    e.kind = vol::TraceEvent::Kind::kWrite;
    e.dataset_path = "d";
    e.selection = h5::Selection::offsets({static_cast<std::uint64_t>(i) * 8}, {8});
    e.bytes = 8;
    e.issue_time = 0.1 * i;
    trace.append(e);
  }

  auto run_with_scale = [&](double scale) {
    auto file = h5::File::create(std::make_shared<storage::MemoryBackend>());
    file->root().create_dataset("d", h5::Datatype::kUInt8, {16});
    vol::NativeConnector connector(file);
    vol::ReplayOptions options;
    options.time_scale = scale;
    const auto t0 = std::chrono::steady_clock::now();
    vol::replay_trace(trace, connector, options);
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
        .count();
  };

  EXPECT_LT(run_with_scale(0.0), 0.05);
  EXPECT_GE(run_with_scale(0.5), 0.045);
}

TEST(ThrottledBackendTest, IndependentChannelDoesNotQueue) {
  storage::ThrottleParams params;
  params.bandwidth = 1000.0;
  params.latency = 0.0;
  params.time_scale = 0.0;
  params.shared_channel = false;
  auto leaf = std::make_shared<storage::MemoryBackend>();
  storage::ThrottledBackend backend(leaf, params);
  std::vector<std::byte> data(500, std::byte{1});
  backend.write(0, data);
  backend.write(500, data);
  // Independent delays accumulate in the model either way; the contract
  // here is just that both ops complete and are accounted (at the leaf,
  // which performed them).
  EXPECT_NEAR(backend.modelled_delay_seconds(), 1.0, 1e-9);
  EXPECT_EQ(leaf->stats().write_ops, 2u);
}

TEST(PmpiSplitTest, SubCommunicatorCanSplitAgain) {
  pmpi::run(8, [](pmpi::Communicator& comm) {
    pmpi::Communicator half = comm.split(comm.rank() / 4, comm.rank());
    EXPECT_EQ(half.size(), 4);
    pmpi::Communicator quarter = half.split(half.rank() / 2, half.rank());
    EXPECT_EQ(quarter.size(), 2);
    const std::uint64_t n = quarter.allreduce_sum(std::uint64_t{1});
    EXPECT_EQ(n, 2u);
    comm.barrier();
  });
}

TEST(PmpiSplitTest, SingletonColors) {
  pmpi::run(4, [](pmpi::Communicator& comm) {
    // Every rank its own colour: size-1 communicators.
    pmpi::Communicator solo = comm.split(comm.rank(), 0);
    EXPECT_EQ(solo.size(), 1);
    EXPECT_EQ(solo.rank(), 0);
    EXPECT_DOUBLE_EQ(solo.allreduce_sum(2.5), 2.5);
    comm.barrier();
  });
}

TEST(AdaptiveConnectorTest2, ReportedRanksFlowToAdvisorSamples) {
  auto file = h5::File::create(std::make_shared<storage::MemoryBackend>());
  vol::AdaptiveConnector connector(file);
  connector.set_reported_ranks(48);
  auto ds = file->root().create_dataset("d", h5::Datatype::kUInt8, {4096});
  std::vector<std::uint8_t> payload(1024, 1);
  connector.on_compute_phase(0.001);
  connector
      .dataset_write(ds, h5::Selection::offsets({0}, {1024}),
                     std::as_bytes(std::span<const std::uint8_t>(payload)))
      ->wait();
  connector.wait_all();
  const auto samples = connector.advisor()->history().all();
  ASSERT_FALSE(samples.empty());
  EXPECT_EQ(samples.front().ranks, 48);
  connector.close();
}

TEST(LogTest, LevelsGateOutput) {
  const LogLevel before = log_level();
  set_log_level(LogLevel::kError);
  EXPECT_EQ(log_level(), LogLevel::kError);
  // Macro below the threshold must not evaluate its stream expression.
  int evaluations = 0;
  APIO_LOG_DEBUG("side effect " << ++evaluations);
  EXPECT_EQ(evaluations, 0);
  set_log_level(LogLevel::kDebug);
  APIO_LOG_DEBUG("side effect " << ++evaluations);
  EXPECT_EQ(evaluations, 1);
  set_log_level(before);
}

TEST(TraceProfileTest, FlushOnlyTraceProfiles) {
  vol::Trace trace;
  vol::TraceEvent e;
  e.kind = vol::TraceEvent::Kind::kFlush;
  trace.append(e);
  vol::IoProfile profile(trace);
  EXPECT_EQ(profile.total_operations(), 1u);
  EXPECT_EQ(profile.total_bytes(), 0u);
  EXPECT_TRUE(profile.per_dataset().empty());
}

}  // namespace
}  // namespace apio
