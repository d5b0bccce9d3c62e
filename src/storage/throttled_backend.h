// ThrottledBackend: wraps another backend and delays each transfer
// according to a bandwidth/latency budget, so that laptop-scale runs of
// the real library exhibit PFS-like timing (a slow shared file system
// under a fast local one).  The throttle blocks the *calling* thread,
// exactly as a blocking write to a congested PFS does — which is what
// makes sync-vs-async differences observable in real executions.
#pragma once

#include "common/debug/lock_rank.h"
#include "storage/backend.h"

namespace apio::storage {

/// Timing budget for the throttle.
struct ThrottleParams {
  /// Modelled bandwidth in bytes/s for reads and writes.
  double bandwidth = 1e9;
  /// Fixed per-operation latency in seconds.
  double latency = 0.0;
  /// Wall-time scale: modelled_delay * time_scale is actually slept.
  /// 1.0 reproduces modelled time; tests use small scales to run fast.
  double time_scale = 1.0;
  /// When true, concurrent operations share the bandwidth budget
  /// (serialised token bucket); when false each op is delayed
  /// independently.
  bool shared_channel = true;
};

class ThrottledBackend final : public Backend {
 public:
  ThrottledBackend(BackendPtr inner, ThrottleParams params);

  std::uint64_t size() const override { return inner_->size(); }
  void read(std::uint64_t offset, std::span<std::byte> out) override;
  void write(std::uint64_t offset, std::span<const std::byte> data) override;
  /// A vectored call is one aggregated request on the modelled PFS: the
  /// budget is charged once (latency + total/bandwidth) rather than
  /// per-extent, which is exactly the cost reduction aggregation buys
  /// on a latency-bound file system.
  [[nodiscard]] std::uint64_t write_v(
      std::span<const WriteExtent> extents) override;
  [[nodiscard]] std::uint64_t read_v(
      std::span<const ReadExtent> extents) override;
  void flush() override { inner_->flush(); }
  void close() override { inner_->close(); }
  void truncate(std::uint64_t new_size) override { inner_->truncate(new_size); }
  std::string name() const override { return "throttled(" + inner_->name() + ")"; }

  /// Total modelled delay injected so far, in modelled seconds.
  double modelled_delay_seconds() const;

  const ThrottleParams& params() const { return params_; }

 private:
  BackendPtr inner_;
  ThrottleParams params_;

  mutable debug::RankedMutex<debug::LockRank::kStorageWrapper> channel_mutex_;
  /// Wall-clock time (steady seconds) at which the shared channel frees up.
  double channel_free_at_ = 0.0;
  double modelled_delay_ = 0.0;

  void throttle(std::uint64_t bytes);
};

}  // namespace apio::storage
