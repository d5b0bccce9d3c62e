// Tests for the native (synchronous) VOL connector.
#include <gtest/gtest.h>

#include <numeric>

#include "common/error.h"
#include "obs/trace_context.h"
#include "storage/memory_backend.h"
#include "vol/native_connector.h"

namespace apio::vol {
namespace {

/// Observer that stores every record it sees.
class RecordingObserver : public IoObserver {
 public:
  void on_io(const IoRecord& record) override {
    std::lock_guard<std::mutex> lock(mutex_);
    records_.push_back(record);
  }
  std::vector<IoRecord> records() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return records_;
  }

 private:
  mutable std::mutex mutex_;
  std::vector<IoRecord> records_;
};

std::shared_ptr<NativeConnector> make_connector() {
  auto file = h5::File::create(std::make_shared<storage::MemoryBackend>());
  return std::make_shared<NativeConnector>(std::move(file));
}

TEST(NativeConnectorTest, RequiresFile) {
  EXPECT_THROW(NativeConnector(nullptr), InvalidArgumentError);
}

TEST(NativeConnectorTest, WriteCompletesImmediately) {
  auto conn = make_connector();
  auto ds = conn->file()->root().create_dataset("d", h5::Datatype::kInt32, {4});
  const std::vector<std::int32_t> values{1, 2, 3, 4};
  auto req = conn->dataset_write(ds, h5::Selection::all(),
                                 std::as_bytes(std::span<const std::int32_t>(values)));
  EXPECT_TRUE(req->test());
  EXPECT_FALSE(req->failed());
  req->wait();
  EXPECT_EQ(ds.read_vector<std::int32_t>(h5::Selection::all()), values);
}

TEST(NativeConnectorTest, ReadCompletesImmediately) {
  auto conn = make_connector();
  auto ds = conn->file()->root().create_dataset("d", h5::Datatype::kInt32, {4});
  const std::vector<std::int32_t> values{5, 6, 7, 8};
  conn->dataset_write(ds, h5::Selection::all(),
                      std::as_bytes(std::span<const std::int32_t>(values)));
  std::vector<std::int32_t> out(4);
  auto req = conn->dataset_read(ds, h5::Selection::all(),
                                std::as_writable_bytes(std::span<std::int32_t>(out)));
  EXPECT_TRUE(req->test());
  EXPECT_EQ(out, values);
}

TEST(NativeConnectorTest, PrefetchIsHarmlessNoOp) {
  auto conn = make_connector();
  auto ds = conn->file()->root().create_dataset("d", h5::Datatype::kInt32, {4});
  EXPECT_NO_THROW(conn->prefetch(ds, h5::Selection::all()));
}

TEST(NativeConnectorTest, ObserverSeesSyncRecords) {
  auto conn = make_connector();
  auto observer = std::make_shared<RecordingObserver>();
  conn->add_observer(observer);
  conn->set_reported_ranks(12);
  auto ds = conn->file()->root().create_dataset("d", h5::Datatype::kFloat64, {8});
  const std::vector<double> values(8, 1.0);
  conn->dataset_write(ds, h5::Selection::all(),
                      std::as_bytes(std::span<const double>(values)));
  std::vector<double> out(8);
  conn->dataset_read(ds, h5::Selection::all(),
                     std::as_writable_bytes(std::span<double>(out)));

  auto records = observer->records();
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].op, IoOp::kWrite);
  EXPECT_EQ(records[0].bytes, 64u);
  EXPECT_EQ(records[0].ranks, 12);
  EXPECT_FALSE(records[0].async);
  EXPECT_DOUBLE_EQ(records[0].blocking_seconds, records[0].completion_seconds);
  EXPECT_EQ(records[1].op, IoOp::kRead);
}

TEST(NativeConnectorTest, SyncWriteYieldsOneTraceWithBackendSpan) {
  auto conn = make_connector();
  auto ds = conn->file()->root().create_dataset("d", h5::Datatype::kInt32, {4});
  auto& collector = obs::trace::TraceCollector::instance();
  collector.clear();
  collector.set_sampling_period(1);
  collector.set_enabled(true);
  const std::vector<std::int32_t> values{1, 2, 3, 4};
  conn->dataset_write(ds, h5::Selection::all(),
                      std::as_bytes(std::span<const std::int32_t>(values)));
  collector.set_enabled(false);
  const auto traces = collector.drain();
  collector.clear();

  ASSERT_EQ(traces.size(), 1u);
  EXPECT_EQ(traces[0].op, IoOp::kWrite);
  EXPECT_EQ(traces[0].bytes, sizeof(values[0]) * values.size());
  EXPECT_EQ(traces[0].tenant, "default");
  EXPECT_FALSE(traces[0].failed);
  int backend_spans = 0;
  for (const auto& span : traces[0].spans) {
    if (span.phase == obs::trace::Phase::kBackend) ++backend_spans;
  }
  EXPECT_GE(backend_spans, 1);
}

TEST(NativeConnectorTest, FlushAndCloseWork) {
  auto conn = make_connector();
  conn->file()->root().create_dataset("d", h5::Datatype::kInt8, {1});
  auto req = conn->flush();
  EXPECT_TRUE(req->test());
  conn->close();
  EXPECT_FALSE(conn->file()->is_open());
}

TEST(NativeConnectorTest, WriteErrorSurfacesSynchronously) {
  auto conn = make_connector();
  auto ds = conn->file()->root().create_dataset("d", h5::Datatype::kInt32, {4});
  const std::vector<std::int32_t> tiny{1};
  EXPECT_THROW(conn->dataset_write(ds, h5::Selection::all(),
                                   std::as_bytes(std::span<const std::int32_t>(tiny))),
               InvalidArgumentError);
}

}  // namespace
}  // namespace apio::vol
