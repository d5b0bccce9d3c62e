// Tests for the I/O aggregation layer: Backend::write_v/read_v (leaf
// implementations and decorator fallbacks), the h5::IoVector coalescing
// builder, the vectored dataset paths, and the two-phase collective
// writer.  Includes the acceptance gate: a chunked strided-hyperslab
// write must reach the backend in >= 5x fewer calls than the scalar
// path, with byte-identical read-back.
#include <gtest/gtest.h>

#include <algorithm>
#include <cerrno>
#include <climits>
#include <cstring>
#include <filesystem>
#include <functional>
#include <random>
#include <vector>

#include "common/error.h"
#include "h5/file.h"
#include "h5/io_vector.h"
#include "obs/metrics.h"
#include "pmpi/world.h"
#include "storage/faulty_backend.h"
#include "storage/memory_backend.h"
#include "storage/posix_backend.h"
#include "storage/throttled_backend.h"
#include "vol/async_connector.h"
#include "vol/collective_writer.h"
#include "vol/native_connector.h"

namespace apio {
namespace {

using storage::ReadExtent;
using storage::WriteExtent;

std::string temp_path(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

std::vector<std::byte> pattern_bytes(std::size_t n, unsigned seed) {
  std::vector<std::byte> out(n);
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = static_cast<std::byte>((i * 131 + seed) & 0xff);
  }
  return out;
}

// ---------------------------------------------------------------------------
// Backend write_v/read_v

TEST(VectoredBackendTest, MemoryRoundTripCountsOneOp) {
  storage::MemoryBackend backend;
  const auto a = pattern_bytes(100, 1);
  const auto b = pattern_bytes(50, 2);
  const std::vector<WriteExtent> writes{{0, a}, {200, b}};
  EXPECT_EQ(backend.write_v(writes), 150u);

  auto stats = backend.stats();
  EXPECT_EQ(stats.write_ops, 1u);
  EXPECT_EQ(stats.bytes_written, 150u);
  EXPECT_EQ(backend.size(), 250u);

  std::vector<std::byte> ra(100), rb(50);
  const std::vector<ReadExtent> reads{{0, ra}, {200, rb}};
  EXPECT_EQ(backend.read_v(reads), 150u);
  EXPECT_EQ(ra, a);
  EXPECT_EQ(rb, b);
  stats = backend.stats();
  EXPECT_EQ(stats.read_ops, 1u);
  EXPECT_EQ(stats.bytes_read, 150u);
}

TEST(VectoredBackendTest, MemoryReadPastEndThrows) {
  storage::MemoryBackend backend;
  backend.write(0, pattern_bytes(10, 3));
  std::vector<std::byte> out(8);
  const std::vector<ReadExtent> reads{{5, out}};
  EXPECT_THROW((void)backend.read_v(reads), IoError);
}

TEST(VectoredBackendTest, PosixRoundTripWithGapsAndAdjacency) {
  const std::string path = temp_path("apio_vectored_posix.bin");
  storage::PosixBackend backend(path, storage::PosixBackend::Mode::kCreateTruncate);
  const auto a = pattern_bytes(64, 4);
  const auto b = pattern_bytes(32, 5);
  const auto c = pattern_bytes(16, 6);
  // a and b are file-adjacent (one pwritev batch); c sits past a gap.
  const std::vector<WriteExtent> writes{{0, a}, {64, b}, {256, c}};
  EXPECT_EQ(backend.write_v(writes), 112u);
  auto stats = backend.stats();
  EXPECT_EQ(stats.write_ops, 1u);
  EXPECT_EQ(stats.bytes_written, 112u);

  std::vector<std::byte> ra(64), rb(32), rc(16);
  const std::vector<ReadExtent> reads{{0, ra}, {64, rb}, {256, rc}};
  EXPECT_EQ(backend.read_v(reads), 112u);
  EXPECT_EQ(ra, a);
  EXPECT_EQ(rb, b);
  EXPECT_EQ(rc, c);
  std::filesystem::remove(path);
}

TEST(VectoredBackendTest, PosixSplitsBatchesAtIovLimit) {
  const std::string path = temp_path("apio_vectored_iovmax.bin");
  storage::PosixBackend backend(path, storage::PosixBackend::Mode::kCreateTruncate);
  // Lower the batch limit so > limit adjacent extents exercise the
  // splitting loop without building an IOV_MAX-sized vector.
  backend.set_iov_batch_limit(3);
  EXPECT_EQ(backend.iov_batch_limit(), 3u);
  EXPECT_THROW(backend.set_iov_batch_limit(0), InvalidArgumentError);

  constexpr std::size_t kExtents = 10;
  constexpr std::size_t kBytes = 7;
  std::vector<std::vector<std::byte>> payloads;
  std::vector<WriteExtent> writes;
  for (std::size_t i = 0; i < kExtents; ++i) {
    payloads.push_back(pattern_bytes(kBytes, static_cast<unsigned>(i)));
    writes.push_back({i * kBytes, payloads.back()});
  }
  EXPECT_EQ(backend.write_v(writes), kExtents * kBytes);
  EXPECT_EQ(backend.stats().write_ops, 1u);

  std::vector<std::byte> all(kExtents * kBytes);
  backend.read(0, all);
  for (std::size_t i = 0; i < kExtents; ++i) {
    EXPECT_EQ(0, std::memcmp(all.data() + i * kBytes, payloads[i].data(), kBytes))
        << "extent " << i;
  }

  // Scatter-read through the same limited batches.
  std::vector<std::vector<std::byte>> outs(kExtents, std::vector<std::byte>(kBytes));
  std::vector<ReadExtent> reads;
  for (std::size_t i = 0; i < kExtents; ++i) reads.push_back({i * kBytes, outs[i]});
  EXPECT_EQ(backend.read_v(reads), kExtents * kBytes);
  for (std::size_t i = 0; i < kExtents; ++i) EXPECT_EQ(outs[i], payloads[i]);
  std::filesystem::remove(path);
}

TEST(VectoredBackendTest, WriteFullyTreatsZeroProgressAsError) {
  // Regression: the old pwrite loop treated a 0 return as retryable and
  // spun forever.  The seam injects a pwrite that makes no progress.
  int calls = 0;
  const auto stuck = [&](const std::byte*, std::size_t, std::uint64_t) -> long {
    ++calls;
    return 0;
  };
  const auto data = pattern_bytes(16, 7);
  EXPECT_THROW(storage::detail::write_fully(stuck, 0, data, "test-path"), IoError);
  EXPECT_EQ(calls, 1);  // must not loop

  // EINTR is retried, then progress completes the write.
  calls = 0;
  const auto flaky = [&](const std::byte*, std::size_t len, std::uint64_t) -> long {
    if (++calls == 1) {
      errno = EINTR;
      return -1;
    }
    return static_cast<long>(len);
  };
  storage::detail::write_fully(flaky, 0, data, "test-path");
  EXPECT_EQ(calls, 2);
}

// Drives detail::transfer_vectored with a fake pwritev that lands at
// most `budget` bytes per call into `file`, scripted per call: a value
// >= 0 caps that call, kEintr fails it with EINTR.
struct FakePwritev {
  static constexpr long kEintr = -1;
  std::vector<long> script;  // per-call caps; past the end: unlimited
  std::vector<std::byte> file = std::vector<std::byte>(64);
  std::vector<int> iov_counts;

  long operator()(const struct iovec* iov, int count, std::uint64_t offset) {
    const std::size_t call = iov_counts.size();
    iov_counts.push_back(count);
    long budget = call < script.size() ? script[call] : LONG_MAX;
    if (budget == kEintr) {
      errno = EINTR;
      return -1;
    }
    long moved = 0;
    for (int i = 0; i < count && budget > 0; ++i) {
      const auto n = std::min<long>(budget, static_cast<long>(iov[i].iov_len));
      std::memcpy(file.data() + offset + moved, iov[i].iov_base,
                  static_cast<std::size_t>(n));
      moved += n;
      budget -= n;
    }
    return moved;
  }
};

TEST(VectoredBackendTest, TransferVectoredAdvancesThroughShortCountsAndEintr) {
  const auto a = pattern_bytes(10, 1);
  const auto b = pattern_bytes(6, 2);
  const auto c = pattern_bytes(8, 3);
  // a and b are file-adjacent (one batch); c sits past a gap.
  const std::vector<WriteExtent> writes{{0, a}, {10, b}, {32, c}};
  const auto expect_landed = [&](const FakePwritev& fake) {
    EXPECT_EQ(0, std::memcmp(fake.file.data(), a.data(), a.size()));
    EXPECT_EQ(0, std::memcmp(fake.file.data() + 10, b.data(), b.size()));
    EXPECT_EQ(0, std::memcmp(fake.file.data() + 32, c.data(), c.size()));
  };
  const auto run = [&](FakePwritev& fake) {
    storage::detail::transfer_vectored(
        std::ref(fake), std::span<const WriteExtent>(writes), 16, "pwritev",
        "zero-progress vectored write to", "test-path");
  };

  // Short counts: 4 bytes (inside a), 9 (rest of a + part of b), 3 (rest
  // of b) finish the first batch; c goes in 2 + the remainder.
  FakePwritev shorts;
  shorts.script = {4, 9, 3, 2};
  run(shorts);
  expect_landed(shorts);
  EXPECT_EQ(shorts.iov_counts, (std::vector<int>{2, 2, 1, 1, 1}));

  // EINTR is retried with the same batch, then progress completes it.
  FakePwritev eintr;
  eintr.script = {FakePwritev::kEintr, 5, FakePwritev::kEintr};
  run(eintr);
  expect_landed(eintr);
  EXPECT_EQ(eintr.iov_counts, (std::vector<int>{2, 2, 2, 2, 1}));

  // A return of 0 is no progress: IoError, not a spin.
  FakePwritev stuck;
  stuck.script = {4, 0};
  try {
    run(stuck);
    ADD_FAILURE() << "zero progress must throw";
  } catch (const IoError& e) {
    EXPECT_NE(std::string(e.what()).find(
                  "posix backend: zero-progress vectored write to 'test-path'"),
              std::string::npos)
        << e.what();
  }
  EXPECT_EQ(stuck.iov_counts.size(), 2u);  // must not loop

  // The iovec limit splits a contiguous run into several calls.
  FakePwritev split;
  storage::detail::transfer_vectored(
      std::ref(split), std::span<const WriteExtent>(writes), 1, "pwritev",
      "zero-progress vectored write to", "test-path");
  expect_landed(split);
  EXPECT_EQ(split.iov_counts, (std::vector<int>{1, 1, 1}));
}

TEST(VectoredBackendTest, FaultyBackendFaultsMidBatchLeavingPrefix) {
  auto inner = std::make_shared<storage::MemoryBackend>();
  storage::FaultPlan plan;
  plan.fail_writes_after = 2;  // extents 1 and 2 land, extent 3 faults
  storage::FaultyBackend faulty(inner, plan);

  const auto a = pattern_bytes(8, 8);
  const auto b = pattern_bytes(8, 9);
  const auto c = pattern_bytes(8, 10);
  const std::vector<WriteExtent> writes{{0, a}, {100, b}, {200, c}};
  EXPECT_THROW((void)faulty.write_v(writes), IoError);
  EXPECT_EQ(faulty.faults_injected(), 1u);

  // The decorator's per-extent fallback forwarded the prefix.
  std::vector<std::byte> ra(8), rb(8);
  inner->read(0, ra);
  inner->read(100, rb);
  EXPECT_EQ(ra, a);
  EXPECT_EQ(rb, b);
  EXPECT_EQ(inner->size(), 108u);  // extent c never reached the leaf
  EXPECT_EQ(inner->stats().write_ops, 2u);
}

TEST(VectoredBackendTest, ThrottledChargesOneLatencyPerVectoredCall) {
  storage::ThrottleParams params;
  params.bandwidth = 1e6;
  params.latency = 0.5;
  params.time_scale = 0.0;  // model time only, no wall sleeping
  auto inner = std::make_shared<storage::MemoryBackend>();
  storage::ThrottledBackend throttled(inner, params);

  const auto a = pattern_bytes(1000, 11);
  const auto b = pattern_bytes(1000, 12);
  const std::vector<WriteExtent> writes{{0, a}, {5000, b}};
  EXPECT_EQ(throttled.write_v(writes), 2000u);
  // One aggregated request: latency once + 2000 bytes / 1e6 B/s.
  EXPECT_NEAR(throttled.modelled_delay_seconds(), 0.5 + 0.002, 1e-9);
  EXPECT_EQ(inner->stats().write_ops, 1u);  // forwarded as one vectored call

  // The scalar path charges latency per extent.
  throttled.write(0, a);
  throttled.write(5000, b);
  EXPECT_NEAR(throttled.modelled_delay_seconds(), 3 * 0.5 + 2 * 0.002, 1e-9);
}

// ---------------------------------------------------------------------------
// IoVector

TEST(IoVectorTest, MergesFileAndMemoryAdjacentSegments) {
  storage::MemoryBackend backend;
  const auto buf = pattern_bytes(300, 13);
  const std::span<const std::byte> view(buf);

  h5::IoVector iov;
  // Adjacent in both file and memory: merge into one extent.
  iov.add_write(0, view.subspan(0, 100));
  iov.add_write(100, view.subspan(100, 100));
  // File-adjacent but from a different memory region: stays separate.
  iov.add_write(200, view.subspan(250, 50));
  EXPECT_EQ(iov.bytes(), 250u);
  iov.write_to(backend);
  EXPECT_EQ(iov.extents_merged(), 1u);
  EXPECT_EQ(iov.extent_count(), 2u);
  EXPECT_EQ(backend.stats().write_ops, 1u);

  std::vector<std::byte> out(250);
  backend.read(0, out);
  EXPECT_EQ(0, std::memcmp(out.data(), buf.data(), 200));
  EXPECT_EQ(0, std::memcmp(out.data() + 200, buf.data() + 250, 50));
}

TEST(IoVectorTest, SortsOutOfOrderSegments) {
  storage::MemoryBackend backend;
  const auto buf = pattern_bytes(64, 14);
  const std::span<const std::byte> view(buf);

  h5::IoVector iov;
  iov.add_write(32, view.subspan(32, 32));
  iov.add_write(0, view.subspan(0, 32));
  iov.write_to(backend);

  std::vector<std::byte> out(64);
  backend.read(0, out);
  EXPECT_EQ(out, buf);
}

TEST(IoVectorTest, RejectsMixedDirections) {
  h5::IoVector iov;
  const auto buf = pattern_bytes(8, 15);
  std::vector<std::byte> out(8);
  iov.add_write(0, buf);
  EXPECT_THROW(iov.add_read(8, out), InvalidArgumentError);
  storage::MemoryBackend backend;
  EXPECT_THROW(iov.read_from(backend), InvalidArgumentError);
}

TEST(IoVectorTest, CountsVectoredOpsInRegistry) {
  obs::Registry::instance().reset();
  obs::set_enabled(true);
  storage::MemoryBackend backend;
  const auto buf = pattern_bytes(20, 16);
  const std::span<const std::byte> view(buf);
  h5::IoVector iov;
  iov.add_write(0, view.subspan(0, 10));
  iov.add_write(10, view.subspan(10, 10));
  iov.write_to(backend);
  obs::set_enabled(false);

  const auto snap = obs::Registry::instance().snapshot();
  EXPECT_EQ(snap.counter_total("io.vectored_ops"), 1u);
  EXPECT_EQ(snap.counter_total("io.extents_merged"), 1u);
}

// ---------------------------------------------------------------------------
// Dataset paths: vectored vs scalar

h5::FilePtr make_file(storage::BackendPtr backend, bool vectored) {
  h5::FileProps props;
  props.vectored_io = vectored;
  return h5::File::create(std::move(backend), props);
}

TEST(VectoredDatasetTest, RandomHyperslabsMatchScalarPathExactly) {
  // Property test: for random chunked datasets and random strided
  // hyperslabs, the vectored path and the scalar path must produce
  // byte-identical containers and read-backs.
  std::mt19937 rng(20260806);
  for (int iter = 0; iter < 25; ++iter) {
    const std::uint64_t rows = 1 + rng() % 40;
    const std::uint64_t cols = 1 + rng() % 40;
    const std::uint64_t crow = 1 + rng() % 8;
    const std::uint64_t ccol = 1 + rng() % 8;

    auto mem_vec = std::make_shared<storage::MemoryBackend>();
    auto mem_sca = std::make_shared<storage::MemoryBackend>();
    auto fv = make_file(mem_vec, true);
    auto fs = make_file(mem_sca, false);
    auto props = h5::DatasetCreateProps::chunked({crow, ccol});
    auto dv = fv->root().create_dataset("d", h5::Datatype::kInt32, {rows, cols}, props);
    auto ds = fs->root().create_dataset("d", h5::Datatype::kInt32, {rows, cols}, props);

    for (int w = 0; w < 4; ++w) {
      h5::Hyperslab slab;
      const std::uint64_t sr = rng() % rows;
      const std::uint64_t sc = rng() % cols;
      const std::uint64_t str_r = 1 + rng() % 4;
      const std::uint64_t str_c = 1 + rng() % 4;
      const std::uint64_t max_cr = (rows - sr + str_r - 1) / str_r;
      const std::uint64_t max_cc = (cols - sc + str_c - 1) / str_c;
      slab.start = {sr, sc};
      slab.stride = {str_r, str_c};
      slab.count = {1 + rng() % max_cr, 1 + rng() % max_cc};
      const auto selection = h5::Selection::hyperslab(slab);
      const std::uint64_t n = selection.npoints({rows, cols});

      std::vector<std::int32_t> values(n);
      for (auto& v : values) v = static_cast<std::int32_t>(rng());
      dv.write(selection, std::span<const std::int32_t>(values));
      ds.write(selection, std::span<const std::int32_t>(values));

      const auto rv = dv.read_vector<std::int32_t>(selection);
      const auto rs = ds.read_vector<std::int32_t>(selection);
      ASSERT_EQ(rv, values) << "vectored read-back diverged, iter " << iter;
      ASSERT_EQ(rs, values) << "scalar read-back diverged, iter " << iter;
    }

    // Whole-dataset read-back (covering unwritten fill regions too).
    const auto full_v = dv.read_vector<std::int32_t>(h5::Selection::all());
    const auto full_s = ds.read_vector<std::int32_t>(h5::Selection::all());
    ASSERT_EQ(full_v, full_s) << "containers diverged, iter " << iter;
  }
}

TEST(VectoredDatasetTest, AggregationCutsBackendCallsAtLeast5x) {
  // Acceptance gate: a strided hyperslab over a chunked dataset —
  // the request-per-fragment pattern — must reach the backend in at
  // least 5x fewer write and read calls on the vectored path.
  const h5::Dims dims{64, 64};
  const h5::Dims chunk{8, 8};
  h5::Hyperslab slab;
  slab.start = {0, 0};
  slab.stride = {2, 2};
  slab.count = {32, 32};
  const auto selection = h5::Selection::hyperslab(slab);
  const std::uint64_t n = selection.npoints(dims);
  std::vector<std::int32_t> values(n);
  for (std::size_t i = 0; i < values.size(); ++i) {
    values[i] = static_cast<std::int32_t>(i);
  }

  obs::Registry::instance().reset();
  obs::set_enabled(true);

  std::uint64_t ops[2][2] = {};  // [vectored][write/read]
  std::vector<std::int32_t> out[2];
  for (int vectored = 0; vectored < 2; ++vectored) {
    auto mem = std::make_shared<storage::MemoryBackend>();
    auto file = make_file(mem, vectored == 1);
    auto ds = file->root().create_dataset("d", h5::Datatype::kInt32, dims,
                                          h5::DatasetCreateProps::chunked(chunk));
    const auto before = mem->stats();
    ds.write(selection, std::span<const std::int32_t>(values));
    const auto mid = mem->stats();
    out[vectored] = ds.read_vector<std::int32_t>(selection);
    const auto after = mem->stats();
    ops[vectored][0] = mid.write_ops - before.write_ops;
    ops[vectored][1] = after.read_ops - mid.read_ops;
  }
  obs::set_enabled(false);

  EXPECT_EQ(out[0], values);
  EXPECT_EQ(out[1], values);
  EXPECT_GE(ops[0][0], 5 * ops[1][0])
      << "scalar writes " << ops[0][0] << " vs vectored " << ops[1][0];
  EXPECT_GE(ops[0][1], 5 * ops[1][1])
      << "scalar reads " << ops[0][1] << " vs vectored " << ops[1][1];
  EXPECT_EQ(ops[1][0], 1u);  // whole selection in one vectored write
  EXPECT_EQ(ops[1][1], 1u);

  // The obs counters saw the vectored issues (write + read).
  const auto snap = obs::Registry::instance().snapshot();
  EXPECT_GE(snap.counter_total("io.vectored_ops"), 2u);
}

TEST(VectoredDatasetTest, ContiguousLayoutAggregatesRuns) {
  auto mem = std::make_shared<storage::MemoryBackend>();
  auto file = make_file(mem, true);
  auto ds = file->root().create_dataset("d", h5::Datatype::kFloat64, {16, 16});
  h5::Hyperslab slab;
  slab.start = {0, 0};
  slab.stride = {2, 1};
  slab.count = {8, 16};
  const auto selection = h5::Selection::hyperslab(slab);
  std::vector<double> values(8 * 16);
  for (std::size_t i = 0; i < values.size(); ++i) values[i] = 0.5 * static_cast<double>(i);

  const auto before = mem->stats();
  ds.write(selection, std::span<const double>(values));
  EXPECT_EQ(mem->stats().write_ops - before.write_ops, 1u);
  EXPECT_EQ(ds.read_vector<double>(selection), values);
}

// ---------------------------------------------------------------------------
// Pre-validation ordering (S2 regression)

TEST(VectoredDatasetTest, MalformedSelectionRejectedBeforeSizing) {
  auto file = make_file(std::make_shared<storage::MemoryBackend>(), true);
  auto ds = file->root().create_dataset("d", h5::Datatype::kInt32, {8, 8});

  // block has rank 1 while count has rank 2: npoints() used to index
  // block[1] out of bounds before validate() ever ran.
  h5::Hyperslab slab;
  slab.start = {0, 0};
  slab.count = {2, 2};
  slab.block = {2};
  std::vector<std::int32_t> buf(64);
  EXPECT_THROW(ds.write(h5::Selection::hyperslab(slab),
                        std::span<const std::int32_t>(buf)),
               InvalidArgumentError);
  EXPECT_THROW(ds.read(h5::Selection::hyperslab(slab), std::span<std::int32_t>(buf)),
               InvalidArgumentError);
}

// ---------------------------------------------------------------------------
// Collective write

TEST(CollectiveWriteTest, EightRankRoundTripThroughNativeConnector) {
  constexpr int kRanks = 8;
  constexpr std::uint64_t kPerRank = 512;
  constexpr std::uint64_t kTotal = kRanks * kPerRank;

  obs::Registry::instance().reset();
  obs::set_enabled(true);
  auto file = h5::File::create(std::make_shared<storage::MemoryBackend>());
  auto connector = std::make_shared<vol::NativeConnector>(file);
  auto ds = file->root().create_dataset("d", h5::Datatype::kFloat32, {kTotal});

  std::vector<vol::CollectiveWriteResult> results(kRanks);
  pmpi::run(kRanks, [&](pmpi::Communicator& comm) {
    const auto rank = static_cast<std::uint64_t>(comm.rank());
    std::vector<float> mine(kPerRank);
    for (std::uint64_t i = 0; i < kPerRank; ++i) {
      mine[i] = static_cast<float>(rank * kPerRank + i);
    }
    // Two extents per rank, interleaved across ranks so regions see
    // fragments from many sources.
    const std::span<const float> view(mine);
    const vol::CollectiveExtent extents[2] = {
        {rank * kPerRank, std::as_bytes(view.subspan(0, kPerRank / 2))},
        {rank * kPerRank + kPerRank / 2, std::as_bytes(view.subspan(kPerRank / 2))},
    };
    vol::CollectiveWriteOptions options;
    options.stripe_bytes = 1024;  // small stripes: several aggregators
    results[comm.rank()] = vol::collective_write(*connector, comm, ds, extents, options);
  });
  obs::set_enabled(false);

  // Identical result on every rank.
  for (int r = 1; r < kRanks; ++r) {
    EXPECT_EQ(results[r].requests_issued, results[0].requests_issued);
    EXPECT_EQ(results[r].total_bytes, results[0].total_bytes);
  }
  EXPECT_EQ(results[0].total_bytes, kTotal * sizeof(float));
  EXPECT_EQ(results[0].extents_received, 2u * kRanks);
  EXPECT_GE(results[0].requests_issued, 1u);
  // Aggregation means far fewer writes than the 16 extents contributed.
  EXPECT_LT(results[0].requests_issued, 2u * kRanks);

  const auto all = ds.read_vector<float>(h5::Selection::all());
  for (std::uint64_t i = 0; i < kTotal; ++i) {
    ASSERT_EQ(all[i], static_cast<float>(i)) << "element " << i;
  }
  const auto snap = obs::Registry::instance().snapshot();
  EXPECT_EQ(snap.counter_total("io.aggregated_bytes"), kTotal * sizeof(float));
}

TEST(CollectiveWriteTest, OverlapsEpochsThroughAsyncConnector) {
  constexpr int kRanks = 4;
  constexpr std::uint64_t kPerRank = 256;
  constexpr std::uint64_t kTotal = kRanks * kPerRank;

  auto file = h5::File::create(std::make_shared<storage::MemoryBackend>());
  auto connector = std::make_shared<vol::AsyncConnector>(file);
  auto ds = file->root().create_dataset("d", h5::Datatype::kInt32, {kTotal});

  pmpi::run(kRanks, [&](pmpi::Communicator& comm) {
    const auto rank = static_cast<std::uint64_t>(comm.rank());
    std::vector<std::int32_t> mine(kPerRank);
    for (std::uint64_t i = 0; i < kPerRank; ++i) {
      mine[i] = static_cast<std::int32_t>(rank * kPerRank + i);
    }
    const vol::CollectiveExtent extent{rank * kPerRank,
                                       std::as_bytes(std::span<const std::int32_t>(mine))};
    std::vector<vol::RequestPtr> outstanding;
    vol::collective_write(*connector, comm, ds, {&extent, 1}, {}, &outstanding);
    // Requests drain after the collective returned (epoch overlap);
    // the payload buffer is already safe to reuse.
    for (auto& req : outstanding) req->wait();
    comm.barrier();
  });

  const auto all = ds.read_vector<std::int32_t>(h5::Selection::all());
  for (std::uint64_t i = 0; i < kTotal; ++i) {
    ASSERT_EQ(all[i], static_cast<std::int32_t>(i)) << "element " << i;
  }
  connector->close();
}

TEST(CollectiveWriteTest, EmptyContributionsAreSafe) {
  auto file = h5::File::create(std::make_shared<storage::MemoryBackend>());
  auto connector = std::make_shared<vol::NativeConnector>(file);
  auto ds = file->root().create_dataset("d", h5::Datatype::kInt32, {128});

  pmpi::run(4, [&](pmpi::Communicator& comm) {
    // Only rank 2 contributes anything.
    std::vector<std::int32_t> mine(32, comm.rank());
    std::vector<vol::CollectiveExtent> extents;
    if (comm.rank() == 2) {
      extents.push_back({40, std::as_bytes(std::span<const std::int32_t>(mine))});
    }
    const auto result = vol::collective_write(*connector, comm, ds, extents);
    EXPECT_EQ(result.total_bytes, 32u * sizeof(std::int32_t));
  });

  const auto all = ds.read_vector<std::int32_t>(h5::Selection::all());
  for (int i = 0; i < 128; ++i) {
    EXPECT_EQ(all[static_cast<std::size_t>(i)], (i >= 40 && i < 72) ? 2 : 0);
  }
}

TEST(CollectiveWriteTest, AllEmptyReturnsZeroResult) {
  auto file = h5::File::create(std::make_shared<storage::MemoryBackend>());
  auto connector = std::make_shared<vol::NativeConnector>(file);
  auto ds = file->root().create_dataset("d", h5::Datatype::kInt32, {16});
  pmpi::run(2, [&](pmpi::Communicator& comm) {
    const auto result = vol::collective_write(*connector, comm, ds, {});
    EXPECT_EQ(result.total_bytes, 0u);
    EXPECT_EQ(result.requests_issued, 0u);
  });
}

}  // namespace
}  // namespace apio
