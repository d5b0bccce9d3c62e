// CachedBackend: a write-back burst-buffer tier in front of a PFS
// backend, with bbThemis-style selectable visibility (ROADMAP item:
// after-write / after-close / after-epoch / after-job).
//
// The cache interposes a node-local staging area (an in-memory backend
// by default, a local-POSIX file for real burst buffers) between the
// application and the parallel file system.  Writes land in staging and
// are absorbed off the critical path; the consistency mode decides when
// the dirty extents become visible on the PFS tier:
//
//   kAfterWrite  write-through: every write is forwarded immediately
//                (the staging copy only accelerates re-reads).
//   kAfterClose  dirty extents drain when the container announces
//                close() — the POSIX-like default.
//   kAfterEpoch  dirty extents drain at every epoch boundary: the
//                cache subscribes to the obs::EpochSink marker stream
//                and flushes on each kEnd event, so a consumer
//                (BD-CATS) can read step k while the producer (VPIC)
//                is still writing step k+1.
//   kAfterJob    nothing drains until drain() is called explicitly
//                (or the cache is destroyed) — job-end visibility.
//
// Reads are served read-through: missing ranges are fetched from the
// PFS into staging, and staged bytes are evicted least-recently-used
// when the configured capacity is exceeded (dirty victims are written
// back first — the cache never silently drops unflushed data).  Dirty
// extents are kept byte-granular and coalesced, and every drain goes
// to the PFS as vectored write_v batches, preserving the aggregation
// fast path.  The lowest-offset dirty extent is always written last so
// a container's shadow-update discipline (header block at offset 0
// points at data written before it) survives a mid-drain crash.
//
// Failure semantics: a drain that fails (e.g. the resilience breaker
// is open on the PFS tier) surfaces the inner error — TransientIoError
// stays TransientIoError — and RETAINS the dirty set, so the next
// drain retries the same extents.  Epoch-driven drains run inside the
// EpochScope destructor and therefore swallow the error (counted in
// io.cache.flush_failures) instead of throwing through a destructor;
// the retained dirty set drains at the next boundary or at close().
//
// Composition: always the OUTERMOST decorator (BackendStack stage
// order leaf < throttled < resilient < qos < cached), so cache hits
// bypass QoS admission and the PFS throttle entirely, and drains pass
// through retry/admission like any other PFS traffic.  Construct it
// through BackendStack::cached() — apio_lint flags direct make_shared
// nesting (rule `cached-backend`).
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <list>
#include <map>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/debug/lock_rank.h"
#include "obs/epoch_analyzer.h"
#include "storage/backend.h"

namespace apio::storage {

/// When staged writes become visible on the inner (PFS) backend.
enum class CacheConsistency : int {
  kAfterWrite = 0,
  kAfterClose = 1,
  kAfterEpoch = 2,
  kAfterJob = 3,
};

const char* to_string(CacheConsistency mode);

/// Parses "after-write" / "after-close" / "after-epoch" / "after-job"
/// (CLI spelling).  Returns false on unknown input.
bool parse_cache_consistency(const std::string& text, CacheConsistency& out);

struct CacheOptions {
  CacheConsistency consistency = CacheConsistency::kAfterClose;
  /// Staged-byte budget; LRU eviction keeps the cache at or under it.
  std::uint64_t capacity_bytes = 64ull << 20;
  /// LRU bookkeeping granularity (eviction victims are whole blocks).
  std::uint64_t block_bytes = 256ull * 1024;
};

/// Point-in-time cache counters (also exported as io.cache.* registry
/// metrics for apio_profile report).
struct CacheSnapshot {
  std::uint64_t hits = 0;          ///< reads served entirely from staging
  std::uint64_t misses = 0;        ///< reads that fetched from the PFS
  std::uint64_t hit_bytes = 0;
  std::uint64_t miss_bytes = 0;    ///< bytes fetched from the PFS tier
  std::uint64_t flushes = 0;       ///< drain batches written to the PFS
  std::uint64_t flushed_bytes = 0;
  std::uint64_t flush_failures = 0;  ///< drains that surfaced an error
  std::uint64_t evictions = 0;     ///< LRU blocks dropped from staging
  std::uint64_t writeback_bytes = 0;  ///< dirty bytes flushed by eviction
  std::uint64_t lost_bytes = 0;    ///< dirty bytes undrainable at destruction
  std::uint64_t dirty_bytes = 0;   ///< currently staged, not yet on the PFS
  std::uint64_t cached_bytes = 0;  ///< currently staged (clean + dirty)
};

class CachedBackend final : public Backend, public obs::EpochSink {
 public:
  /// `staging` defaults to a fresh in-memory backend; pass a
  /// PosixBackend for a node-local SSD staging file.  The staging
  /// backend mirrors the inner backend's byte addresses.
  CachedBackend(BackendPtr inner, CacheOptions options,
                BackendPtr staging = nullptr);
  ~CachedBackend() override;

  std::uint64_t size() const override;
  void read(std::uint64_t offset, std::span<std::byte> out) override;
  void write(std::uint64_t offset, std::span<const std::byte> data) override;
  // write_v/read_v inherit the per-extent base fallback: each extent
  // passes through the hit/miss and dirty bookkeeping individually.
  // Coalescing happens where it pays — on the drain path, which always
  // leaves as vectored write_v batches.
  void flush() override;
  void close() override;
  void truncate(std::uint64_t new_size) override;
  std::string name() const override;

  /// Flushes every dirty extent to the inner backend (vectored,
  /// lowest-offset extent last) and flushes the inner backend.  Throws
  /// the inner error on failure with the dirty set retained.  This is
  /// the explicit "job end" hook for kAfterJob mode and is what the
  /// epoch/close policies call internally.
  void drain();

  /// obs::EpochSink: kAfterEpoch mode drains on every epoch-end marker.
  void on_epoch_event(const obs::EpochEvent& event) override;

  CacheSnapshot cache_snapshot() const;
  const CacheOptions& options() const { return options_; }

 private:
  /// The counted cache events (CacheSnapshot's counter fields, and the
  /// io.cache.* registry counters of the same names).
  enum class Event : std::size_t {
    kHits, kMisses, kHitBytes, kMissBytes, kFlushes, kFlushedBytes,
    kFlushFailures, kEvictions, kWritebackBytes, kLostBytes, kCount
  };

  /// The one call site of each event: adds `value` to this instance's
  /// total and to the event's io.cache.* counter (recorded whether or
  /// not obs::enabled()).
  void note(Event event, std::uint64_t value);

  /// Half-open byte intervals, keyed by begin, coalesced on insert.
  using IntervalMap = std::map<std::uint64_t, std::uint64_t>;

  static void interval_add(IntervalMap& map, std::uint64_t begin,
                           std::uint64_t end);
  static void interval_sub(IntervalMap& map, std::uint64_t begin,
                           std::uint64_t end);
  /// Sub-ranges of [begin, end) not covered by `map`.
  static std::vector<std::pair<std::uint64_t, std::uint64_t>> interval_gaps(
      const IntervalMap& map, std::uint64_t begin, std::uint64_t end);
  static std::uint64_t interval_total(const IntervalMap& map);
  /// Sub-ranges of [begin, end) covered by `map`.
  static IntervalMap interval_intersect(const IntervalMap& map,
                                        std::uint64_t begin,
                                        std::uint64_t end);

  void touch_blocks_locked(std::uint64_t begin, std::uint64_t end);
  void drop_block_if_empty_locked(std::uint64_t block);
  /// Recomputes cached_bytes_ after interval edits (maps are small at
  /// the modelled scale; correctness over micro-optimisation).
  void recount_locked();

  /// Fetches [begin, end) gaps from the inner backend into staging.
  void fill_from_inner(std::uint64_t begin, std::uint64_t end);
  /// Writes the given dirty intervals to the inner backend (vectored,
  /// lowest extent last) and clears them from the dirty set on success.
  /// Caller holds drain_mutex_ but NOT mutex_.
  void write_back(const IntervalMap& extents);
  /// Evicts LRU blocks (writing dirty victims back first) until the
  /// staged footprint fits the capacity budget.
  void enforce_capacity();
  void drain_internal();

  BackendPtr inner_;
  BackendPtr staging_;
  CacheOptions options_;

  /// Serialises drains and eviction write-backs; held across the inner
  /// write_v/flush transfer, hence the low rank (every inner lock is
  /// acquired above it).
  mutable debug::RankedMutex<debug::LockRank::kStorageCache> drain_mutex_;

  /// Guards the interval/LRU bookkeeping below.  Never held across an
  /// inner or staging transfer: data moves happen outside it, and the
  /// shared kStorageWrapper rank aborts (same-rank acquisition) if an
  /// inner wrapper lock is ever taken under it.
  mutable debug::RankedMutex<debug::LockRank::kStorageWrapper> mutex_;
  IntervalMap valid_;   ///< staged byte ranges
  IntervalMap dirty_;   ///< staged ranges not yet on the inner backend
  std::list<std::uint64_t> lru_;  ///< block ids, front = most recent
  std::unordered_map<std::uint64_t, std::list<std::uint64_t>::iterator>
      lru_pos_;
  std::uint64_t cached_bytes_ = 0;
  std::uint64_t logical_size_ = 0;

  /// Per-instance event totals, indexed by Event (cache_snapshot()).
  std::array<std::atomic<std::uint64_t>,
             static_cast<std::size_t>(Event::kCount)>
      events_{};
};

}  // namespace apio::storage
