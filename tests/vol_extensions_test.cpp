// Tests for the VOL extensions: event sets (H5ES semantics) and the
// passthrough/stacking connector.
#include <gtest/gtest.h>

#include <numeric>

#include "common/error.h"
#include "storage/memory_backend.h"
#include "storage/backend_stack.h"
#include "vol/async_connector.h"
#include "vol/event_set.h"
#include "vol/native_connector.h"
#include "vol/passthrough_connector.h"

namespace apio::vol {
namespace {

std::shared_ptr<AsyncConnector> make_async() {
  return std::make_shared<AsyncConnector>(
      h5::File::create(std::make_shared<storage::MemoryBackend>()));
}

// ---------------------------------------------------------------------------
// EventSet

TEST(EventSetTest, EmptySetIsComplete) {
  EventSet es;
  EXPECT_EQ(es.size(), 0u);
  EXPECT_TRUE(es.test());
  EXPECT_NO_THROW(es.wait());
  EXPECT_EQ(es.num_errors(), 0u);
}

TEST(EventSetTest, TracksBatchOfWrites) {
  auto conn = make_async();
  auto ds = conn->file()->root().create_dataset("d", h5::Datatype::kInt32, {80});
  EventSet es;
  for (int i = 0; i < 10; ++i) {
    std::vector<std::int32_t> v(8, i);
    es.insert(conn->dataset_write(
        ds, h5::Selection::offsets({static_cast<std::uint64_t>(i) * 8}, {8}),
        std::as_bytes(std::span<const std::int32_t>(v))));
  }
  EXPECT_EQ(es.size(), 10u);
  es.wait();
  EXPECT_EQ(es.size(), 0u);
  EXPECT_EQ(es.num_errors(), 0u);
  auto all = ds.read_vector<std::int32_t>(h5::Selection::all());
  EXPECT_EQ(all[79], 9);
  conn->close();
}

TEST(EventSetTest, CollectsErrorsWithoutThrowing) {
  auto conn = make_async();
  auto ds = conn->file()->root().create_dataset("d", h5::Datatype::kInt32, {4});
  EventSet es;
  const std::vector<std::int32_t> good{1, 2, 3, 4};
  const std::vector<std::int32_t> bad{1};
  es.insert(conn->dataset_write(ds, h5::Selection::all(),
                                std::as_bytes(std::span<const std::int32_t>(good))));
  es.insert(conn->dataset_write(ds, h5::Selection::all(),
                                std::as_bytes(std::span<const std::int32_t>(bad))));
  EXPECT_NO_THROW(es.wait());  // H5ESwait does not throw
  EXPECT_EQ(es.num_errors(), 1u);
  const auto messages = es.error_messages();
  ASSERT_EQ(messages.size(), 1u);
  EXPECT_NE(messages[0].find("selection bytes"), std::string::npos);
  EXPECT_THROW(es.rethrow_first_error(), InvalidArgumentError);
  es.clear();
  EXPECT_EQ(es.num_errors(), 0u);
  conn->close();
}

TEST(EventSetTest, TestReflectsInFlightWork) {
  storage::ThrottleParams throttle;
  throttle.bandwidth = 2.0 * 1024 * 1024;
  throttle.time_scale = 1.0;
  auto backend = storage::BackendStack::memory().throttled(throttle).build();
  auto conn = std::make_shared<AsyncConnector>(h5::File::create(backend));
  auto ds = conn->file()->root().create_dataset("d", h5::Datatype::kUInt8,
                                                {512 * 1024});
  std::vector<std::uint8_t> data(512 * 1024, 1);
  EventSet es;
  es.insert(conn->dataset_write(ds, h5::Selection::all(),
                                std::as_bytes(std::span<const std::uint8_t>(data))));
  EXPECT_FALSE(es.test());  // ~0.25 s transfer still in flight
  es.wait();
  EXPECT_TRUE(es.test());
  conn->close();
}

TEST(EventSetTest, RejectsNullRequest) {
  EventSet es;
  EXPECT_THROW(es.insert(nullptr), InvalidArgumentError);
}

// ---------------------------------------------------------------------------
// PassthroughConnector

TEST(PassthroughTest, ForwardsAndCounts) {
  auto inner = make_async();
  PassthroughConnector stack(inner);
  auto ds = stack.file()->root().create_dataset("d", h5::Datatype::kFloat64, {16});
  std::vector<double> values(16);
  std::iota(values.begin(), values.end(), 0.0);
  auto w = stack.dataset_write(ds, h5::Selection::all(),
                               std::as_bytes(std::span<const double>(values)));
  w->wait();
  std::vector<double> out(16);
  stack.dataset_read(ds, h5::Selection::all(),
                     std::as_writable_bytes(std::span<double>(out)))
      ->wait();
  stack.prefetch(ds, h5::Selection::all());
  stack.flush()->wait();
  stack.wait_all();

  const auto stats = stack.stats();
  EXPECT_EQ(stats.writes, 1u);
  EXPECT_EQ(stats.reads, 1u);
  EXPECT_EQ(stats.prefetches, 1u);
  EXPECT_EQ(stats.flushes, 1u);
  EXPECT_EQ(stats.bytes_written, 128u);
  EXPECT_EQ(stats.bytes_read, 128u);
  EXPECT_EQ(out, values);
  stack.close();
}

TEST(PassthroughTest, StacksOverNativeToo) {
  auto file = h5::File::create(std::make_shared<storage::MemoryBackend>());
  PassthroughConnector stack(std::make_shared<NativeConnector>(file));
  auto ds = stack.file()->root().create_dataset("d", h5::Datatype::kInt8, {4});
  const std::vector<std::int8_t> v{1, 2, 3, 4};
  stack.dataset_write(ds, h5::Selection::all(),
                      std::as_bytes(std::span<const std::int8_t>(v)));
  EXPECT_EQ(stack.stats().writes, 1u);
  EXPECT_GT(stack.stats().write_blocking_seconds, 0.0);
}

TEST(PassthroughTest, DoubleStackingComposes) {
  auto inner = make_async();
  auto mid = std::make_shared<PassthroughConnector>(inner);
  PassthroughConnector outer(mid);
  auto ds = outer.file()->root().create_dataset("d", h5::Datatype::kInt8, {2});
  const std::vector<std::int8_t> v{9, 9};
  outer.dataset_write(ds, h5::Selection::all(),
                      std::as_bytes(std::span<const std::int8_t>(v)));
  outer.wait_all();
  EXPECT_EQ(outer.stats().writes, 1u);
  EXPECT_EQ(mid->stats().writes, 1u);
  outer.close();
}

TEST(PassthroughTest, RequiresInner) {
  EXPECT_THROW(PassthroughConnector(nullptr), InvalidArgumentError);
}

}  // namespace
}  // namespace apio::vol
