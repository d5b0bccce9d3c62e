// ResilientBackend: retry/backoff decorator for flaky storage.
//
// Wraps another backend and re-executes failed reads/writes/flushes
// under a resilience::RetryPolicy, with an optional per-backend circuit
// breaker that sheds load during a sustained outage.  Truncate is a
// rare metadata operation and passes through unretried.  This is the
// library's only retry loop: the async connector executes each op once
// and leaves recovery to the stack under the file.
//
// A retry deadline is anchored at the start of each backend call.
// Retry cost is recorded through the shared io.* resilience metrics
// (io.retries, io.retry_backoff_seconds, io.deadline_exhausted,
// io.breaker_*); retries() keeps a per-instance count.
#pragma once

#include <atomic>
#include <memory>

#include "common/clock.h"
#include "resilience/circuit_breaker.h"
#include "resilience/retry.h"
#include "storage/backend.h"

namespace apio::storage {

struct ResilienceOptions {
  resilience::RetryPolicy retry;
  resilience::BreakerOptions breaker;
  /// When false, no breaker is constructed and retries run unguarded.
  bool enable_breaker = true;
};

class ResilientBackend final : public Backend {
 public:
  /// `clock` defaults to the wall clock and `sleeper` to the blocking
  /// wall sleeper; tests inject a resilience::ManualClock as both so
  /// backoff never wall-sleeps.
  ResilientBackend(BackendPtr inner, ResilienceOptions options,
                   const Clock* clock = nullptr,
                   resilience::Sleeper* sleeper = nullptr);

  std::uint64_t size() const override { return inner_->size(); }
  void read(std::uint64_t offset, std::span<std::byte> out) override;
  void write(std::uint64_t offset, std::span<const std::byte> data) override;
  // write_v/read_v deliberately inherit the base per-extent fallback so
  // each extent is retried under the policy independently — a transient
  // fault mid-batch re-runs only the failed extent, not the whole list.
  void flush() override;
  void close() override { inner_->close(); }
  void truncate(std::uint64_t new_size) override { inner_->truncate(new_size); }
  std::string name() const override {
    return "resilient(" + inner_->name() + ")";
  }

  /// Re-executed attempts across all operations so far, including those
  /// of calls that finally failed: this backend's share of io.retries.
  std::uint64_t retries() const {
    return retries_.load(std::memory_order_relaxed);
  }

  /// Null when the breaker is disabled.
  resilience::CircuitBreaker* breaker() const { return breaker_.get(); }

  const ResilienceOptions& options() const { return options_; }

 private:
  template <typename Fn>
  void run(Fn&& fn);

  BackendPtr inner_;
  ResilienceOptions options_;
  const Clock* clock_;
  resilience::Sleeper* sleeper_;
  std::unique_ptr<resilience::CircuitBreaker> breaker_;
  std::atomic<std::uint64_t> retries_{0};
};

}  // namespace apio::storage
