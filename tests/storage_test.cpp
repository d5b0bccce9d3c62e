// Unit tests for storage backends and the PFS bandwidth models.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <thread>

#include "common/error.h"
#include "common/units.h"
#include "resilience/retry.h"
#include "sched/fair_scheduler.h"
#include "storage/backend_stack.h"
#include "storage/faulty_backend.h"
#include "storage/memory_backend.h"
#include "storage/pfs_model.h"
#include "storage/posix_backend.h"
#include "storage/throttled_backend.h"

namespace apio::storage {
namespace {

std::vector<std::byte> make_bytes(std::initializer_list<int> values) {
  std::vector<std::byte> out;
  for (int v : values) out.push_back(std::byte{static_cast<unsigned char>(v)});
  return out;
}

std::string temp_path(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

// ---------------------------------------------------------------------------
// Backend behaviours shared by memory and posix: exercised via a
// parameterized suite.

enum class BackendKind { kMemory, kPosix };

class BackendContractTest : public ::testing::TestWithParam<BackendKind> {
 protected:
  BackendPtr make_backend() {
    if (GetParam() == BackendKind::kMemory) return std::make_shared<MemoryBackend>();
    path_ = temp_path("apio_backend_contract_test.bin");
    return std::make_shared<PosixBackend>(path_, PosixBackend::Mode::kCreateTruncate);
  }

  void TearDown() override {
    if (!path_.empty()) std::filesystem::remove(path_);
  }

  std::string path_;
};

TEST_P(BackendContractTest, StartsEmpty) {
  auto b = make_backend();
  EXPECT_EQ(b->size(), 0u);
}

TEST_P(BackendContractTest, WriteThenReadRoundTrip) {
  auto b = make_backend();
  auto data = make_bytes({1, 2, 3, 4, 5});
  b->write(0, data);
  EXPECT_EQ(b->size(), 5u);
  std::vector<std::byte> out(5);
  b->read(0, out);
  EXPECT_EQ(out, data);
}

TEST_P(BackendContractTest, WriteAtOffsetGrowsObject) {
  auto b = make_backend();
  auto data = make_bytes({9});
  b->write(100, data);
  EXPECT_EQ(b->size(), 101u);
  std::vector<std::byte> out(1);
  b->read(100, out);
  EXPECT_EQ(std::to_integer<int>(out[0]), 9);
}

TEST_P(BackendContractTest, GapReadsBackZero) {
  auto b = make_backend();
  b->write(10, make_bytes({7}));
  std::vector<std::byte> out(10);
  b->read(0, out);
  for (auto v : out) EXPECT_EQ(std::to_integer<int>(v), 0);
}

TEST_P(BackendContractTest, ReadPastEndThrows) {
  auto b = make_backend();
  b->write(0, make_bytes({1, 2}));
  std::vector<std::byte> out(5);
  EXPECT_THROW(b->read(0, out), IoError);
  EXPECT_THROW(b->read(100, out), IoError);
}

TEST_P(BackendContractTest, OverwriteInPlace) {
  auto b = make_backend();
  b->write(0, make_bytes({1, 2, 3}));
  b->write(1, make_bytes({9}));
  std::vector<std::byte> out(3);
  b->read(0, out);
  EXPECT_EQ(std::to_integer<int>(out[0]), 1);
  EXPECT_EQ(std::to_integer<int>(out[1]), 9);
  EXPECT_EQ(std::to_integer<int>(out[2]), 3);
}

TEST_P(BackendContractTest, TruncateShrinksAndGrows) {
  auto b = make_backend();
  b->write(0, make_bytes({1, 2, 3, 4}));
  b->truncate(2);
  EXPECT_EQ(b->size(), 2u);
  b->truncate(6);
  EXPECT_EQ(b->size(), 6u);
  std::vector<std::byte> out(6);
  b->read(0, out);
  EXPECT_EQ(std::to_integer<int>(out[1]), 2);
  EXPECT_EQ(std::to_integer<int>(out[5]), 0);  // zero fill on growth
}

TEST_P(BackendContractTest, StatsCountTransfers) {
  auto b = make_backend();
  b->write(0, make_bytes({1, 2, 3}));
  std::vector<std::byte> out(3);
  b->read(0, out);
  b->flush();
  const auto stats = b->stats();
  EXPECT_EQ(stats.bytes_written, 3u);
  EXPECT_EQ(stats.bytes_read, 3u);
  EXPECT_EQ(stats.write_ops, 1u);
  EXPECT_EQ(stats.read_ops, 1u);
  EXPECT_EQ(stats.flushes, 1u);
}

TEST_P(BackendContractTest, ConcurrentDisjointWrites) {
  auto b = make_backend();
  constexpr int kThreads = 8;
  constexpr std::size_t kChunk = 1024;
  b->truncate(kThreads * kChunk);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      std::vector<std::byte> chunk(kChunk, std::byte{static_cast<unsigned char>(t + 1)});
      b->write(static_cast<std::uint64_t>(t) * kChunk, chunk);
    });
  }
  for (auto& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) {
    std::vector<std::byte> out(kChunk);
    b->read(static_cast<std::uint64_t>(t) * kChunk, out);
    for (auto v : out) EXPECT_EQ(std::to_integer<int>(v), t + 1);
  }
}

INSTANTIATE_TEST_SUITE_P(AllBackends, BackendContractTest,
                         ::testing::Values(BackendKind::kMemory, BackendKind::kPosix),
                         [](const auto& info) {
                           return info.param == BackendKind::kMemory ? "Memory"
                                                                     : "Posix";
                         });

// ---------------------------------------------------------------------------
// PosixBackend specifics

TEST(PosixBackendTest, PersistsAcrossReopen) {
  const std::string path = temp_path("apio_posix_persist.bin");
  {
    PosixBackend b(path, PosixBackend::Mode::kCreateTruncate);
    b.write(0, make_bytes({42}));
    b.flush();
  }
  {
    PosixBackend b(path, PosixBackend::Mode::kOpenExisting);
    std::vector<std::byte> out(1);
    b.read(0, out);
    EXPECT_EQ(std::to_integer<int>(out[0]), 42);
  }
  std::filesystem::remove(path);
}

TEST(PosixBackendTest, OpenMissingFileThrows) {
  EXPECT_THROW(PosixBackend("/nonexistent-dir-xyz/file.bin",
                            PosixBackend::Mode::kOpenExisting),
               IoError);
}

TEST(PosixBackendTest, CreateTruncateClearsOldContent) {
  const std::string path = temp_path("apio_posix_trunc.bin");
  {
    PosixBackend b(path, PosixBackend::Mode::kCreateTruncate);
    b.write(0, make_bytes({1, 2, 3}));
  }
  {
    PosixBackend b(path, PosixBackend::Mode::kCreateTruncate);
    EXPECT_EQ(b.size(), 0u);
  }
  std::filesystem::remove(path);
}

// ---------------------------------------------------------------------------
// BackendStats: one count per physical transfer, at the leaf.

void expect_stats(const BackendStats& got, const BackendStats& want,
                  const std::string& layer) {
  EXPECT_EQ(got.bytes_read, want.bytes_read) << layer;
  EXPECT_EQ(got.bytes_written, want.bytes_written) << layer;
  EXPECT_EQ(got.read_ops, want.read_ops) << layer;
  EXPECT_EQ(got.write_ops, want.write_ops) << layer;
  EXPECT_EQ(got.flushes, want.flushes) << layer;
}

TEST(BackendStatsTest, OnlyTheLeafCountsThroughTheFullStack) {
  auto leaf = std::make_shared<MemoryBackend>();
  const std::vector<std::byte> base(4096, std::byte{7});
  leaf->write(0, base);  // pre-existing PFS data: one leaf write

  FaultPlan plan;
  plan.fail_every_n_writes = 3;  // every third write reaching the PFS...
  plan.transient = true;         // ...fails transiently (and is retried)
  auto faulty = std::make_shared<FaultyBackend>(leaf, plan);

  ThrottleParams throttle;
  throttle.bandwidth = 1e12;
  throttle.time_scale = 0.0;
  resilience::ManualClock clock;
  ResilienceOptions resilience;
  resilience.retry.max_attempts = 3;
  CacheOptions cache;
  cache.consistency = CacheConsistency::kAfterClose;
  cache.block_bytes = 4096;

  BackendStack stack = BackendStack::wrap(faulty);
  const BackendPtr throttled = stack.throttled(throttle).build();
  const BackendPtr resilient =
      stack.resilient(resilience, &clock, &clock).build();
  const BackendPtr qos =
      stack.qos(std::make_shared<sched::FairScheduler>()).build();
  const BackendPtr cached = stack.cached(cache).build();
  ASSERT_EQ(cached->name(),
            "cached[after-close](qos(resilient(throttled(faulty(memory)))))");

  // Four disjoint staged writes (drained as four extents at close).
  const std::uint64_t offsets[] = {8192, 12288, 20480, 24576};
  const std::size_t sizes[] = {1000, 2000, 500, 300};
  std::uint64_t staged = 0;
  for (int i = 0; i < 4; ++i) {
    cached->write(offsets[i], std::vector<std::byte>(sizes[i], std::byte{1}));
    staged += sizes[i];
  }
  std::vector<std::byte> out(1024);
  cached->read(0, out);  // miss: one leaf read fills staging
  cached->read(0, out);  // hit: served from staging
  cached->close();       // drain: four leaf writes (one retried) + a flush

  auto* retry = dynamic_cast<ResilientBackend*>(resilient.get());
  auto* cache_tier = dynamic_cast<CachedBackend*>(cached.get());
  ASSERT_NE(retry, nullptr);
  ASSERT_NE(cache_tier, nullptr);
  EXPECT_EQ(faulty->faults_injected(), 1u);  // the third drained extent
  EXPECT_EQ(retry->retries(), 1u);

  // A faulted attempt never reaches the leaf, so the leaf saw exactly
  // one transfer per extent, the miss fill and the drain's flush.
  BackendStats physical;
  physical.write_ops = 1 + 4;
  physical.bytes_written = base.size() + staged;
  physical.read_ops = 1;
  physical.bytes_read = out.size();
  physical.flushes = 1;
  expect_stats(leaf->stats(), physical, "memory leaf");
  const CacheSnapshot snap = cache_tier->cache_snapshot();
  EXPECT_EQ(snap.flushed_bytes, leaf->stats().bytes_written - base.size());
  EXPECT_EQ(snap.miss_bytes, leaf->stats().bytes_read);
  EXPECT_EQ(snap.hits, 1u);

  const std::pair<const char*, BackendPtr> decorators[] = {
      {"faulty", faulty},       {"throttled", throttled}, {"resilient", resilient},
      {"qos", qos},             {"cached", cached}};
  for (const auto& [layer, backend] : decorators) {
    expect_stats(backend->stats(), BackendStats{}, layer);
  }
}

// ---------------------------------------------------------------------------
// ThrottledBackend

TEST(ThrottledBackendTest, DelegatesData) {
  auto inner = std::make_shared<MemoryBackend>();
  ThrottleParams params;
  params.bandwidth = 1e12;
  params.time_scale = 0.0;  // no real sleeping in unit tests
  ThrottledBackend throttled(inner, params);
  throttled.write(0, make_bytes({5, 6}));
  std::vector<std::byte> out(2);
  throttled.read(0, out);
  EXPECT_EQ(std::to_integer<int>(out[1]), 6);
}

TEST(ThrottledBackendTest, AccountsModelledDelay) {
  auto inner = std::make_shared<MemoryBackend>();
  ThrottleParams params;
  params.bandwidth = 1000.0;  // 1000 B/s
  params.latency = 0.5;
  params.time_scale = 0.0;
  ThrottledBackend throttled(inner, params);
  std::vector<std::byte> data(2000, std::byte{1});
  throttled.write(0, data);
  // 0.5 s latency + 2000/1000 s transfer = 2.5 s modelled.
  EXPECT_NEAR(throttled.modelled_delay_seconds(), 2.5, 1e-9);
}

TEST(ThrottledBackendTest, SharedChannelSerializesDelays) {
  auto inner = std::make_shared<MemoryBackend>();
  ThrottleParams params;
  params.bandwidth = 1000.0;
  params.time_scale = 0.0;
  params.shared_channel = true;
  ThrottledBackend throttled(inner, params);
  std::vector<std::byte> data(500, std::byte{1});
  throttled.write(0, data);
  throttled.write(500, data);
  EXPECT_NEAR(throttled.modelled_delay_seconds(), 1.0, 1e-9);
}

TEST(ThrottledBackendTest, ActuallySleepsWhenScaled) {
  auto inner = std::make_shared<MemoryBackend>();
  ThrottleParams params;
  params.bandwidth = 1.0 * kMB;
  params.latency = 0.02;
  params.time_scale = 1.0;
  ThrottledBackend throttled(inner, params);
  const auto t0 = std::chrono::steady_clock::now();
  throttled.write(0, make_bytes({1}));
  const auto dt = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0);
  EXPECT_GE(dt.count(), 0.015);
}

TEST(ThrottledBackendTest, RejectsBadParams) {
  auto inner = std::make_shared<MemoryBackend>();
  ThrottleParams params;
  params.bandwidth = 0.0;
  EXPECT_THROW(ThrottledBackend(inner, params), InvalidArgumentError);
  EXPECT_THROW(ThrottledBackend(nullptr, ThrottleParams{}), InvalidArgumentError);
}

// ---------------------------------------------------------------------------
// PfsModel — the figure-shaping physics.

TEST(PfsModelTest, SummitFactoryParameters) {
  auto pfs = PfsModel::summit_gpfs();
  EXPECT_EQ(pfs.params().name, "summit-gpfs");
  EXPECT_GT(pfs.params().aggregate_cap, 100.0 * kGB);
}

TEST(PfsModelTest, CoriCapScalesWithStripeCount) {
  auto narrow = PfsModel::cori_lustre(8);
  auto wide = PfsModel::cori_lustre(72);
  EXPECT_LT(narrow.params().aggregate_cap, wide.params().aggregate_cap);
  EXPECT_NEAR(wide.params().aggregate_cap / narrow.params().aggregate_cap, 9.0, 1e-9);
}

TEST(PfsModelTest, MoreNodesNeverSlower) {
  auto pfs = PfsModel::cori_lustre();
  const std::uint64_t bytes = 32ull * kMiB * 1024;  // 32 GiB aggregate
  double prev = 0.0;
  for (int nodes = 1; nodes <= 256; nodes *= 2) {
    const double bw = pfs.effective_bandwidth(bytes, nodes * 32, nodes,
                                              IoKind::kWrite);
    EXPECT_GE(bw, prev);
    prev = bw;
  }
}

TEST(PfsModelTest, WeakScalingSaturatesAtCap) {
  auto pfs = PfsModel::cori_lustre(72);
  // Weak scaling: 32 MiB per rank, 32 ranks/node.
  const double cap = pfs.params().aggregate_cap;
  const int nodes = 512;
  const int ranks = nodes * 32;
  const std::uint64_t bytes = static_cast<std::uint64_t>(ranks) * 32 * kMiB;
  const double bw = pfs.effective_bandwidth(bytes, ranks, nodes, IoKind::kWrite);
  EXPECT_LE(bw, cap + 1.0);
  EXPECT_GT(bw, 0.9 * cap);
}

TEST(PfsModelTest, SmallPerRankRequestsLoseEfficiency) {
  auto pfs = PfsModel::summit_gpfs();
  const int nodes = 16;
  const int ranks = nodes * 6;
  const std::uint64_t big = static_cast<std::uint64_t>(ranks) * 32 * kMiB;
  const std::uint64_t small = static_cast<std::uint64_t>(ranks) * 16 * kKiB;
  const double bw_big = pfs.effective_bandwidth(big, ranks, nodes, IoKind::kWrite);
  const double bw_small = pfs.effective_bandwidth(small, ranks, nodes, IoKind::kWrite);
  EXPECT_GT(bw_big, 5.0 * bw_small);
}

TEST(PfsModelTest, StrongScalingAggregateDeclinesOnGpfs) {
  // The Castro/EQSIM regime: fixed ~100 MB dataset, growing rank count
  // => observed aggregate bandwidth must fall (Fig. 4c / Fig. 6).
  auto pfs = PfsModel::summit_gpfs();
  const std::uint64_t bytes = 100ull * 1000 * 1000;
  double prev = 1e30;
  for (int nodes = 32; nodes <= 1024; nodes *= 2) {
    const double bw = pfs.aggregate_bandwidth(bytes, nodes * 6, nodes, IoKind::kWrite);
    EXPECT_LT(bw, prev);
    prev = bw;
  }
}

TEST(PfsModelTest, ReadsFasterThanWrites) {
  auto pfs = PfsModel::summit_gpfs();
  const std::uint64_t bytes = 1ull * kGiB;
  const double w = pfs.effective_bandwidth(bytes, 96, 16, IoKind::kWrite);
  const double r = pfs.effective_bandwidth(bytes, 96, 16, IoKind::kRead);
  EXPECT_GT(r, w);
}

TEST(PfsModelTest, ContentionScalesBandwidth) {
  auto pfs = PfsModel::cori_lustre();
  const std::uint64_t bytes = 8ull * kGiB;
  const double full = pfs.effective_bandwidth(bytes, 128, 4, IoKind::kWrite, 1.0);
  const double half = pfs.effective_bandwidth(bytes, 128, 4, IoKind::kWrite, 0.5);
  EXPECT_NEAR(half, 0.5 * full, 1e-6);
}

TEST(PfsModelTest, IoSecondsIncludesLatencyAndMetadata) {
  PfsParams p;
  p.name = "toy";
  p.node_bandwidth = 1.0 * kGB;
  p.aggregate_cap = 10.0 * kGB;
  p.per_rank_half_size = 0.0;  // no efficiency knee
  p.open_latency = 1.0;
  p.meta_per_rank = 0.5;
  PfsModel pfs(p);
  // 1 GB over 1 node / 2 ranks: 1 (open) + 1 (meta) + 1 (data) = 3 s.
  const double t = pfs.io_seconds(static_cast<std::uint64_t>(1.0 * kGB), 2, 1,
                                  IoKind::kWrite);
  EXPECT_NEAR(t, 3.0, 1e-9);
}

TEST(PfsModelTest, InvalidInputsRejected) {
  auto pfs = PfsModel::summit_gpfs();
  EXPECT_THROW(pfs.io_seconds(1, 0, 1, IoKind::kWrite), InvalidArgumentError);
  EXPECT_THROW(pfs.io_seconds(1, 1, 1, IoKind::kWrite, 0.0), InvalidArgumentError);
  EXPECT_THROW(pfs.io_seconds(1, 1, 1, IoKind::kWrite, 1.5), InvalidArgumentError);
  EXPECT_THROW(PfsModel::cori_lustre(0), InvalidArgumentError);
}

// ---------------------------------------------------------------------------
// MemcpyModel — transactional-overhead physics (Sec. III-B1).

TEST(MemcpyModelTest, BandwidthConstantAbove32MiB) {
  auto m = MemcpyModel::summit_dram();
  const int ranks = 6;
  const int nodes = 1;
  const double bw32 = m.aggregate_bandwidth(32ull * kMiB * ranks, ranks, nodes);
  const double bw256 = m.aggregate_bandwidth(256ull * kMiB * ranks, ranks, nodes);
  // Above the knee the achieved bandwidth varies by < 10 %.
  EXPECT_NEAR(bw256 / bw32, 1.0, 0.10);
}

TEST(MemcpyModelTest, SmallCopiesLoseBandwidth) {
  auto m = MemcpyModel::cori_dram();
  const double big = m.aggregate_bandwidth(64ull * kMiB * 32, 32, 1);
  const double small = m.aggregate_bandwidth(64ull * kKiB * 32, 32, 1);
  EXPECT_GT(big, 5.0 * small);
}

TEST(MemcpyModelTest, AggregateBandwidthScalesWithNodes) {
  auto m = MemcpyModel::summit_dram();
  const std::uint64_t per_node = 256ull * kMiB;
  const double bw1 = m.aggregate_bandwidth(per_node * 1, 6, 1);
  const double bw64 = m.aggregate_bandwidth(per_node * 64, 6 * 64, 64);
  EXPECT_NEAR(bw64 / bw1, 64.0, 1.0);
}

TEST(MemcpyModelTest, RejectsBadConfig) {
  EXPECT_THROW(MemcpyModel(0.0, 1.0, 0.0), InvalidArgumentError);
}

}  // namespace
}  // namespace apio::storage
