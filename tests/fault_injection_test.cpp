// Fault-injection tests: storage failures must surface as IoError
// through every layer — direct container access, the sync connector,
// the async connector's requests and event sets — without wedging the
// background machinery.
#include <gtest/gtest.h>

#include "common/error.h"
#include "storage/faulty_backend.h"
#include "storage/memory_backend.h"
#include "vol/async_connector.h"
#include "vol/event_set.h"
#include "vol/native_connector.h"

namespace apio {
namespace {

using storage::FaultPlan;
using storage::FaultyBackend;

TEST(FaultyBackendTest, PassesThroughUntilCountdown) {
  FaultPlan plan;
  plan.fail_writes_after = 2;
  auto backend = std::make_shared<FaultyBackend>(
      std::make_shared<storage::MemoryBackend>(), plan);
  std::vector<std::byte> data(4, std::byte{1});
  backend->write(0, data);
  backend->write(4, data);
  EXPECT_THROW(backend->write(8, data), IoError);
  EXPECT_EQ(backend->faults_injected(), 1u);
}

TEST(FaultyBackendTest, ReadFaultsAndHealing) {
  FaultPlan plan;
  plan.fail_reads_after = 0;
  auto backend = std::make_shared<FaultyBackend>(
      std::make_shared<storage::MemoryBackend>(), plan);
  std::vector<std::byte> data(4, std::byte{1});
  backend->write(0, data);
  std::vector<std::byte> out(4);
  EXPECT_THROW(backend->read(0, out), IoError);
  backend->heal();
  EXPECT_NO_THROW(backend->read(0, out));
}

TEST(FaultyBackendTest, FlushFaults) {
  FaultPlan plan;
  plan.fail_flushes_after = 0;
  FaultyBackend backend(std::make_shared<storage::MemoryBackend>(), plan);
  EXPECT_THROW(backend.flush(), IoError);
}

TEST(FaultInjectionTest, ContiguousWriteFailureSurfacesFromDataset) {
  FaultPlan plan;
  plan.fail_writes_after = 1;  // superblock write succeeds, data write fails
  auto backend = std::make_shared<FaultyBackend>(
      std::make_shared<storage::MemoryBackend>(), plan);
  auto file = h5::File::create(backend);
  auto ds = file->root().create_dataset("d", h5::Datatype::kInt32, {4});
  const std::vector<std::int32_t> values{1, 2, 3, 4};
  EXPECT_THROW(ds.write<std::int32_t>(h5::Selection::all(), values), IoError);
  backend->heal();
  EXPECT_NO_THROW(ds.write<std::int32_t>(h5::Selection::all(), values));
}

TEST(FaultInjectionTest, AsyncWriteFaultReportsThroughRequestAndKeepsQueueAlive) {
  FaultPlan plan;
  plan.fail_writes_after = 1;
  auto backend = std::make_shared<FaultyBackend>(
      std::make_shared<storage::MemoryBackend>(), plan);
  auto file = h5::File::create(backend);
  vol::AsyncConnector connector(file);
  auto ds = file->root().create_dataset("d", h5::Datatype::kInt32, {4});
  const std::vector<std::int32_t> values{1, 2, 3, 4};

  auto failing = connector.dataset_write(
      ds, h5::Selection::all(), std::as_bytes(std::span<const std::int32_t>(values)));
  EXPECT_THROW(failing->wait(), IoError);

  backend->heal();
  auto ok = connector.dataset_write(
      ds, h5::Selection::all(), std::as_bytes(std::span<const std::int32_t>(values)));
  ok->wait();
  EXPECT_EQ(ds.read_vector<std::int32_t>(h5::Selection::all()), values);
  connector.close();
}

TEST(FaultInjectionTest, EventSetCollectsStorageFaults) {
  FaultPlan plan;
  plan.fail_writes_after = 1;
  auto backend = std::make_shared<FaultyBackend>(
      std::make_shared<storage::MemoryBackend>(), plan);
  auto file = h5::File::create(backend);
  vol::AsyncConnector connector(file);
  auto ds = file->root().create_dataset("d", h5::Datatype::kUInt8, {64});
  std::vector<std::uint8_t> chunk(16, 9);

  vol::EventSet es;
  for (int i = 0; i < 4; ++i) {
    es.insert(connector.dataset_write(
        ds, h5::Selection::offsets({static_cast<std::uint64_t>(i) * 16}, {16}),
        std::as_bytes(std::span<const std::uint8_t>(chunk))));
  }
  es.wait();
  // All four background writes hit the dead backend.
  EXPECT_EQ(es.num_errors(), 4u);
  for (const auto& msg : es.error_messages()) {
    EXPECT_NE(msg.find("injected write fault"), std::string::npos);
  }
  backend->heal();  // close() must flush metadata successfully
  connector.close();
}

TEST(FaultInjectionTest, PrefetchFaultSurfacesOnConsumingRead) {
  FaultPlan plan;
  plan.fail_reads_after = 0;
  auto inner = std::make_shared<storage::MemoryBackend>();
  auto backend = std::make_shared<FaultyBackend>(inner, plan);
  auto file = h5::File::create(backend);
  vol::AsyncConnector connector(file);
  auto ds = file->root().create_dataset("d", h5::Datatype::kInt32, {4});
  const std::vector<std::int32_t> values{1, 2, 3, 4};
  connector.dataset_write(ds, h5::Selection::all(),
                          std::as_bytes(std::span<const std::int32_t>(values)));
  connector.wait_all();

  connector.prefetch(ds, h5::Selection::all());
  connector.wait_all();
  std::vector<std::int32_t> out(4);
  // The cache entry's eventual carries the prefetch failure.
  EXPECT_THROW(connector
                   .dataset_read(ds, h5::Selection::all(),
                                 std::as_writable_bytes(std::span<std::int32_t>(out)))
                   ->wait(),
               IoError);
  connector.close();
}

TEST(FaultInjectionTest, FlushFaultPropagatesThroughConnector) {
  FaultPlan plan;
  plan.fail_flushes_after = 0;
  auto backend = std::make_shared<FaultyBackend>(
      std::make_shared<storage::MemoryBackend>(), plan);
  auto file = h5::File::create(backend);
  vol::NativeConnector connector(file);
  EXPECT_THROW(connector.flush(), IoError);
}

}  // namespace
}  // namespace apio
