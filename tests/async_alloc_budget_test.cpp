// Allocation budget of the async submit path, and the lifetime of the
// requests it hands out.
//
// This binary replaces the global operator new with a per-thread
// counter, so it measures exactly the heap blocks the submitting thread
// allocates.  After warm-up a steady stream of 4 KiB async writes must
// cost at most two blocks per write on that thread: the caller-visible
// request, plus the pool's amortized queue growth.  Op records and
// staging are recycled by the connector.
#include <gtest/gtest.h>

#include <condition_variable>
#include <cstdlib>
#include <mutex>
#include <new>

#include "resilience/retry.h"
#include "storage/faulty_backend.h"
#include "storage/memory_backend.h"
#include "storage/resilient_backend.h"
#include "vol/async_connector.h"

namespace {

thread_local std::uint64_t t_allocs = 0;

void* counted_alloc(std::size_t size) {
  ++t_allocs;
  if (size == 0) size = 1;
  void* p = std::malloc(size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

// Every unaligned form is replaced, nothrow included: a sanitizer
// runtime supplies its own nothrow new, whose blocks the replaced
// delete would otherwise free with a mismatched allocator.  Aligned
// forms keep the runtime's defaults, which pair with each other.
void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return counted_alloc(size);
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, const std::nothrow_t& tag) noexcept {
  return operator new(size, tag);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }

namespace apio::vol {
namespace {

constexpr std::uint64_t kWriteBytes = 4096;
constexpr int kWrites = 1000;

/// Memory backend whose writes can be held back, so a warm-up pass can
/// put every write in flight at once and size the connector's recycled
/// records and staging for the worst case the measured pass can reach.
class GatedBackend final : public storage::Backend {
 public:
  explicit GatedBackend(storage::BackendPtr inner) : inner_(std::move(inner)) {}

  void hold() {
    std::lock_guard lock(mutex_);
    held_ = true;
  }
  void release() {
    {
      std::lock_guard lock(mutex_);
      held_ = false;
    }
    cv_.notify_all();
  }

  std::uint64_t size() const override { return inner_->size(); }
  void read(std::uint64_t offset, std::span<std::byte> out) override {
    inner_->read(offset, out);
  }
  void write(std::uint64_t offset, std::span<const std::byte> data) override {
    {
      std::unique_lock lock(mutex_);
      cv_.wait(lock, [&] { return !held_; });
    }
    inner_->write(offset, data);
  }
  void flush() override { inner_->flush(); }
  void truncate(std::uint64_t new_size) override { inner_->truncate(new_size); }
  std::string name() const override { return "gated(" + inner_->name() + ")"; }

 private:
  storage::BackendPtr inner_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool held_ = false;
};

enum class Keep { kRequests, kNothing };

/// Heap blocks the submitting thread allocates for kWrites steady-state
/// writes, after a warm-up pass that had all kWrites in flight.
std::uint64_t steady_state_allocs(Keep keep) {
  auto gate = std::make_shared<GatedBackend>(std::make_shared<storage::MemoryBackend>());
  auto file = h5::File::create(gate);
  auto ds = file->root().create_dataset("d", h5::Datatype::kUInt8,
                                        {kWriteBytes * kWrites});
  AsyncConnector conn(file);
  const std::vector<std::byte> payload(kWriteBytes, std::byte{7});
  std::vector<h5::Selection> selections;
  for (std::uint64_t i = 0; i < kWrites; ++i) {
    selections.push_back(h5::Selection::offsets({i * kWriteBytes}, {kWriteBytes}));
  }
  std::vector<RequestPtr> kept;
  kept.reserve(kWrites);
  auto pass = [&] {
    for (int i = 0; i < kWrites; ++i) {
      RequestPtr request = conn.dataset_write(ds, selections[i], payload);
      if (keep == Keep::kRequests) kept.push_back(std::move(request));
    }
  };

  gate->hold();
  pass();
  gate->release();
  conn.wait_all();
  kept.clear();

  const std::uint64_t before = t_allocs;
  pass();
  const std::uint64_t allocs = t_allocs - before;

  conn.wait_all();
  for (const auto& request : kept) {
    EXPECT_TRUE(request->test());
    EXPECT_FALSE(request->failed());
  }
  conn.close();
  return allocs;
}

TEST(AsyncAllocBudgetTest, KeptRequestsCostAtMostTwoBlocksPerWrite) {
  EXPECT_LE(steady_state_allocs(Keep::kRequests), 2u * kWrites);
}

TEST(AsyncAllocBudgetTest, DroppedRequestsCostAtMostTwoBlocksPerWrite) {
  EXPECT_LE(steady_state_allocs(Keep::kNothing), 2u * kWrites);
}

TEST(AsyncRequestLifetimeTest, RequestsOutliveCloseAndConnector) {
  auto backend = std::make_shared<storage::FaultyBackend>(
      std::make_shared<storage::MemoryBackend>(), storage::FaultPlan{});
  resilience::ManualClock manual;
  storage::ResilienceOptions ro;
  ro.retry.max_attempts = 2;
  auto resilient =
      std::make_shared<storage::ResilientBackend>(backend, ro, &manual, &manual);
  auto file = h5::File::create(resilient);
  auto good = file->root().create_dataset("good", h5::Datatype::kUInt8, {16});
  auto bad = file->ensure_path("g").create_dataset("bad", h5::Datatype::kUInt8, {16});
  // The first data write lands; every later one fails transiently.
  storage::FaultPlan plan;
  plan.fail_writes_after = 1;
  plan.transient = true;
  backend->set_plan(plan);

  auto conn = std::make_unique<AsyncConnector>(file);
  const std::vector<std::byte> data(16, std::byte{5});
  RequestPtr ok = conn->dataset_write(good, h5::Selection::all(), data);
  RequestPtr failed = conn->dataset_write(bad, h5::Selection::offsets({4}, {8}),
                                          std::span(data).first(8));
  conn->wait_all();
  backend->heal();
  conn->close();
  conn.reset();

  EXPECT_TRUE(ok->test());
  EXPECT_FALSE(ok->failed());
  EXPECT_EQ(ok->info().dataset_path, "good");
  EXPECT_EQ(ok->info().bytes, 16u);
  EXPECT_NO_THROW(ok->wait());

  EXPECT_TRUE(failed->test());
  EXPECT_TRUE(failed->failed());
  EXPECT_EQ(resilient->retries(), 1u);  // the failed write's one retry
  EXPECT_EQ(failed->error_category(), "transient-io");
  EXPECT_EQ(failed->info().dataset_path, "g/bad");
  EXPECT_EQ(failed->info().offset, 4u);
  EXPECT_EQ(failed->info().bytes, 8u);
  EXPECT_THROW(failed->wait(), TransientIoError);
}

}  // namespace
}  // namespace apio::vol
