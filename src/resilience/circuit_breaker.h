// Per-backend circuit breaker: stops hammering a storage target that is
// failing consistently, the standard production pattern for shared PFS
// deployments where a sick OST punishes every rank that keeps retrying
// against it.
//
// States (exported through the obs gauge `io.breaker_state`):
//   kClosed   (0)  normal operation; consecutive failures are counted.
//   kOpen     (1)  tripped: allow() rejects until `open_seconds` of the
//                  injected clock have elapsed.
//   kHalfOpen (2)  cooldown elapsed: probe operations are allowed; the
//                  first success closes the breaker, the first failure
//                  re-trips it (and restarts the cooldown).
//
// The half-open state is permissive — every caller that observes it may
// probe, not just one.  With the single background execution stream of
// the async VOL that is at most one probe in flight anyway, and it
// keeps the breaker free of probe-ownership bookkeeping.
//
// Time comes from an injected apio::Clock so tests (and the virtual-
// time bench harness) drive cooldowns deterministically.
#pragma once

#include <cstdint>
#include <string>

#include "common/clock.h"
#include "common/debug/lock_rank.h"
#include "common/error.h"

namespace apio::resilience {

enum class BreakerState : int { kClosed = 0, kOpen = 1, kHalfOpen = 2 };

const char* to_string(BreakerState state);

/// Thrown by the retry machinery when the breaker rejects an attempt.
/// Derives TransientIoError: an open breaker is by definition a
/// condition that clears with time, so policies retry through it.
class BreakerOpenError : public TransientIoError {
 public:
  using TransientIoError::TransientIoError;
};

struct BreakerOptions {
  /// Consecutive failures that trip the breaker; <= 0 disables tripping
  /// (the breaker then only counts).
  int failure_threshold = 5;
  /// Cooldown before an open breaker admits a half-open probe, in
  /// seconds on the injected clock.
  double open_seconds = 1.0;
};

class CircuitBreaker {
 public:
  /// `clock` defaults to the wall clock; tests inject a manual clock so
  /// cooldown expiry is deterministic.  `name` labels diagnostics.
  explicit CircuitBreaker(BreakerOptions options, const Clock* clock = nullptr,
                          std::string name = "");

  /// True when an attempt may proceed.  An open breaker whose cooldown
  /// has elapsed transitions to half-open and admits the caller.
  bool allow();

  /// Records a successful attempt: resets the failure run and closes.
  void on_success();

  /// Records a failed attempt: trips from closed once the threshold of
  /// consecutive failures is reached, and re-trips from half-open
  /// immediately (a failed probe restarts the cooldown).
  void on_failure();

  BreakerState state() const;

  /// Times the breaker has transitioned into kOpen.
  std::uint64_t trips() const;

  /// Current run of consecutive failures.
  int consecutive_failures() const;

  const std::string& name() const { return name_; }
  const BreakerOptions& options() const { return options_; }

 private:
  mutable debug::RankedMutex<debug::LockRank::kResilienceBreaker> mutex_;
  BreakerOptions options_;
  WallClock wall_clock_;
  const Clock* clock_;
  std::string name_;

  BreakerState state_ = BreakerState::kClosed;
  int failures_ = 0;
  double opened_at_ = 0.0;
  std::uint64_t trips_ = 0;

  void transition_locked(BreakerState next);
};

}  // namespace apio::resilience
