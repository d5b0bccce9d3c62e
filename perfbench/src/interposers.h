// The benchmark's own interposers.
//
// TimedBackend sits between two BackendStack stages and records one
// span per forwarded call.  It overrides every Backend virtual and
// forwards 1:1 (write_v stays write_v, close() reaches the inner tiers,
// size/truncate/flush pass through), so a traced stack performs the
// same calls on every stage as an untraced one.
//
// TracingConnector wraps a vol::Connector.  It always records the
// caller-blocked time of each dataset_write (the end-to-end latency
// samples) and keeps the returned requests for failure accounting;
// when span recording is on it also opens a span per forwarded call.
//
// CorruptingBackend flips one byte of the first data read after
// arm(): the benchmark's self-test uses it to prove that a corrupted
// read-back fails the run.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "sched/fair_scheduler.h"
#include "span_trace.h"
#include "storage/backend.h"
#include "storage/cached_backend.h"
#include "storage/qos_backend.h"
#include "vol/connector.h"

namespace perfbench {

class TimedBackend final : public apio::storage::Backend {
 public:
  TimedBackend(apio::storage::BackendPtr inner, trace::Layer layer,
               std::uint8_t tag)
      : inner_(std::move(inner)), layer_(layer), tag_(tag) {}

  std::uint64_t size() const override { return inner_->size(); }
  void read(std::uint64_t offset, std::span<std::byte> out) override;
  void write(std::uint64_t offset, std::span<const std::byte> data) override;
  [[nodiscard]] std::uint64_t write_v(
      std::span<const apio::storage::WriteExtent> extents) override;
  [[nodiscard]] std::uint64_t read_v(
      std::span<const apio::storage::ReadExtent> extents) override;
  void flush() override;
  void close() override;
  void truncate(std::uint64_t new_size) override;
  std::string name() const override { return inner_->name(); }

 private:
  apio::storage::BackendPtr inner_;
  trace::Layer layer_;
  std::uint8_t tag_;
};

class CorruptingBackend final : public apio::storage::Backend {
 public:
  explicit CorruptingBackend(apio::storage::BackendPtr inner)
      : inner_(std::move(inner)) {}

  /// The next read of at least 64 bytes gets one byte flipped.
  void arm() { armed_.store(true); }

  std::uint64_t size() const override { return inner_->size(); }
  void read(std::uint64_t offset, std::span<std::byte> out) override;
  void write(std::uint64_t offset, std::span<const std::byte> data) override {
    inner_->write(offset, data);
  }
  [[nodiscard]] std::uint64_t write_v(
      std::span<const apio::storage::WriteExtent> extents) override {
    return inner_->write_v(extents);
  }
  [[nodiscard]] std::uint64_t read_v(
      std::span<const apio::storage::ReadExtent> extents) override;
  void flush() override { inner_->flush(); }
  void close() override { inner_->close(); }
  void truncate(std::uint64_t new_size) override { inner_->truncate(new_size); }
  std::string name() const override { return inner_->name(); }

 private:
  void maybe_flip(std::span<std::byte> out);

  apio::storage::BackendPtr inner_;
  std::atomic<bool> armed_{false};
};

/// What to stack on a leaf, in BackendStack order.
struct StackSpec {
  bool throttled = false;
  bool resilient = false;
  bool qos = false;
  bool cached = false;
  apio::storage::CacheOptions cache;
};

struct BuiltStack {
  apio::storage::BackendPtr top;
  apio::storage::BackendPtr leaf;
  std::shared_ptr<apio::storage::CachedBackend> cache;
  apio::sched::FairSchedulerPtr scheduler;
};

/// Builds `spec` over `leaf` through BackendStack.  With `timed`, a
/// TimedBackend tagged `tag` wraps the leaf and every stage
/// (BackendStack::wrap(timed(inner)).<next stage>()), keeping the
/// stage order of the untimed stack.
BuiltStack build_stack(apio::storage::BackendPtr leaf, const StackSpec& spec,
                       bool timed, std::uint8_t tag);

/// One caller-blocked dataset_write sample.
struct WriteSample {
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::uint64_t bytes = 0;
  int rank = -1;
};

class TracingConnector final : public apio::vol::Connector {
 public:
  TracingConnector(apio::vol::ConnectorPtr inner, trace::Layer layer,
                   std::uint8_t tag)
      : inner_(std::move(inner)), layer_(layer), tag_(tag) {}

  const apio::h5::FilePtr& file() const override { return inner_->file(); }
  apio::vol::RequestPtr dataset_write(apio::h5::Dataset ds,
                                      const apio::h5::Selection& selection,
                                      std::span<const std::byte> data) override;
  apio::vol::RequestPtr dataset_read(apio::h5::Dataset ds,
                                     const apio::h5::Selection& selection,
                                     std::span<std::byte> out) override;
  void prefetch(apio::h5::Dataset ds,
                const apio::h5::Selection& selection) override;
  apio::vol::RequestPtr flush() override;
  void wait_all() override;
  void close() override;
  void add_observer(apio::vol::IoObserverPtr observer) override {
    inner_->add_observer(std::move(observer));
  }
  void remove_observer(const apio::vol::IoObserverPtr& observer) override {
    inner_->remove_observer(observer);
  }

  /// Read once the connector's users are done.
  const std::vector<WriteSample>& write_samples() const { return writes_; }
  double close_seconds() const { return close_seconds_; }
  /// Requests issued, and of those the ones that did not complete
  /// successfully (call after wait_all/close).
  std::uint64_t issued() const { return requests_.size(); }
  std::uint64_t failed() const;

 private:
  void keep(const apio::vol::RequestPtr& request);

  apio::vol::ConnectorPtr inner_;
  trace::Layer layer_;
  std::uint8_t tag_;

  std::mutex mutex_;
  std::vector<WriteSample> writes_;
  std::vector<apio::vol::RequestPtr> requests_;
  double close_seconds_ = 0.0;
};

}  // namespace perfbench
