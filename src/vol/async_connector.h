// AsyncConnector: the asynchronous VOL connector — the system the
// paper evaluates (Sec. II-A, "Transparent Asynchronous Parallel I/O
// using Background Threads").
//
// Mechanics, mirroring hpc-io/vol-async:
//   * one background execution stream (Argobots-style, src/tasking)
//     drains a FIFO pool of container operations;
//   * dataset_write copies the caller's buffer into an internal staging
//     buffer and returns — that copy is the paper's *transactional
//     overhead* (t_transact in Eq. 2b); the background task later moves
//     the staged bytes to the target storage;
//   * operations on one connector execute in FIFO order (each op
//     starts only after its predecessor's final outcome), which is how
//     the VOL connector keeps HDF5's ordering semantics without
//     fine-grained dependency analysis;
//   * dataset_read either completes in the background (caller owns the
//     buffer until completion) or is served from the prefetch cache
//     (the BD-CATS-IO read path: first read synchronous, subsequent
//     time steps prefetched during compute).
//
// Initialization (stream + pool creation) and termination (drain +
// join) are timed; they are the t_init / t_term costs of Eq. 1.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/debug/lock_rank.h"
#include "sched/io_request.h"
#include "tasking/execution_stream.h"
#include "vol/connector.h"

namespace apio::vol {

/// Tunables for the async connector.  The connector stages and orders;
/// retry, circuit breaking and staging tiers belong to the backend stack
/// under the file (storage::BackendStack::resilient / cached).
struct AsyncOptions {
  /// Upper bound on bytes staged but not yet written; dataset_write
  /// blocks (back-pressure) when exceeded.  0 = unlimited.
  std::uint64_t max_staged_bytes = 0;
  /// Fair-share identity charged for this connector's storage work when
  /// the file sits on a storage::QosBackend.  Empty = inherit the
  /// issuing thread's sched::ScopedSubmission binding (falling back to
  /// the QosBackend's default tenant).  The connector captures the
  /// identity at *issue* time and re-binds it on the background stream
  /// around each op, so admission always charges the tenant that
  /// issued the op, never the stream draining it.
  sched::TenantId tenant;
};

/// Counters exposed for tests, benches and the model.
///
/// Mutated by application threads (enqueue paths) and the background
/// stream (staging release, final outcomes) under the connector's
/// locks, so they must never be read field-by-field while the connector
/// is live; stats() returns a snapshot taken under the same locks.
struct AsyncStats {
  std::uint64_t writes_enqueued = 0;
  std::uint64_t reads_enqueued = 0;
  std::uint64_t prefetches_enqueued = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  /// Bytes of accepted writes (a write rejected at submit never counts).
  std::uint64_t bytes_staged = 0;
  std::uint64_t staged_high_watermark = 0;
  /// Operations whose storage call failed (after any retries the
  /// backend stack made).
  std::uint64_t failed_ops = 0;
  double init_seconds = 0.0;
  double term_seconds = 0.0;
};

class AsyncConnector final : public Connector {
 public:
  explicit AsyncConnector(h5::FilePtr file, AsyncOptions options = {},
                          const Clock* clock = nullptr);

  /// Drains outstanding work and joins the background stream, but —
  /// unlike close() — leaves the container open: several connectors may
  /// come and go over one file's lifetime.
  ~AsyncConnector() override;

  const h5::FilePtr& file() const override { return file_; }

  RequestPtr dataset_write(h5::Dataset ds, const h5::Selection& selection,
                           std::span<const std::byte> data) override;
  RequestPtr dataset_read(h5::Dataset ds, const h5::Selection& selection,
                          std::span<std::byte> out) override;
  void prefetch(h5::Dataset ds, const h5::Selection& selection) override;
  RequestPtr flush() override;
  void wait_all() override;
  void close() override;

  /// Snapshot of the counters, each group read under the lock that
  /// guards it; safe to call from any thread while the stream runs.
  AsyncStats stats() const;

  /// Drops any unconsumed prefetch buffers.
  void clear_cache();

 private:
  /// One background operation: payload, identity and completion.  Records are recycled through a free list, so a steady
  /// stream of submits allocates none and frees none on the stream.
  struct AsyncOp;
  /// Returns a record that never reached the FIFO (its submit threw) to
  /// the free list, releasing any staging it took.
  struct OpReturner {
    AsyncConnector* owner;
    void operator()(AsyncOp* op) const;
  };
  using OpHandle = std::unique_ptr<AsyncOp, OpReturner>;
  /// A block of staging memory, bump-allocated by writes and released
  /// in FIFO order by the stream.
  struct StagingChunk;

  struct CacheEntry {
    RequestPtr ready;
    std::shared_ptr<std::vector<std::byte>> data;
  };
  /// Flat prefetch-cache key: object key, then each hyperslab dim list
  /// prefixed by its length, so distinct selections never alias.
  using CacheKey = std::vector<std::uint64_t>;

  h5::FilePtr file_;
  AsyncOptions options_;
  WallClock wall_clock_;
  const Clock* clock_;

  // FIFO state, guarded by order_mutex_.  Ops form an intrusive list;
  // a drain task is pushed into the pool only on the idle->busy edge
  // and runs every queued op in order before going idle again.
  mutable debug::RankedMutex<debug::LockRank::kVolConnector> order_mutex_;
  std::condition_variable_any drained_cv_;
  AsyncOp* fifo_head_ = nullptr;
  AsyncOp* fifo_tail_ = nullptr;
  AsyncOp* free_ops_ = nullptr;
  std::vector<std::unique_ptr<AsyncOp>> ops_;  ///< owns every record
  bool draining_ = false;
  std::uint64_t submitted_ = 0;  ///< sequence number of the last queued op
  std::uint64_t completed_ = 0;  ///< sequence number of the last finished op
  int drain_waiters_ = 0;
  std::uint64_t writes_enqueued_ = 0;
  std::uint64_t reads_enqueued_ = 0;
  std::uint64_t prefetches_enqueued_ = 0;
  /// Stream-only: when the previous op finished (trace FIFO-wait anchor).
  double last_finish_ = 0.0;

  debug::RankedMutex<debug::LockRank::kVolCache> cache_mutex_;
  std::map<CacheKey, CacheEntry> cache_;

  // Staging state, guarded by staging_mutex_: back-pressure accounting
  // and the connector-owned staging chunks.
  mutable debug::RankedMutex<debug::LockRank::kVolStaging> staging_mutex_;
  std::condition_variable_any staging_cv_;
  std::uint64_t staged_outstanding_ = 0;
  std::uint64_t staged_total_ = 0;
  std::uint64_t staged_hwm_ = 0;
  std::vector<std::unique_ptr<StagingChunk>> staging_chunks_;
  std::vector<StagingChunk*> free_staging_chunks_;
  StagingChunk* staging_chunk_ = nullptr;  ///< chunk new writes bump into
  std::uint64_t staging_capacity_ = 0;     ///< bytes held by all chunks

  mutable debug::RankedMutex<debug::LockRank::kCounters> stats_mutex_;
  AsyncStats stats_;

  /// Set under order_mutex_ by shutdown_machinery(); read lock-free by
  /// every entry point to reject work before any accounting happens.
  std::atomic<bool> closed_{false};

  // Declared last: the stream runs drain() over every member above, so
  // it is joined before any of them is destroyed.
  tasking::PoolPtr pool_;
  std::unique_ptr<tasking::ExecutionStream> stream_;

  /// Takes a recycled record (or a new one) for an op of `kind`; throws
  /// StateError after close().
  OpHandle new_op(obs::IoOp kind);

  /// Captures the observer record inputs when someone observes.
  void capture_observed(AsyncOp& op, double issue_time, double blocking_seconds);

  /// Appends `op` to the FIFO and starts a drain when the stream is
  /// idle.  Throws StateError (the handle then recycles the op) when
  /// the connector closed since new_op().
  void enqueue_op(OpHandle op);

  /// Stream task: runs queued ops in FIFO order, each to its final
  /// outcome, until the queue is empty.
  void drain();

  /// Runs one op on the stream: executes it once (the backend stack
  /// under the file does any retrying) and finishes it.
  void run_op(AsyncOp& op);

  /// Performs the actual storage transfer for the op's kind.
  void execute_op(AsyncOp& op);

  /// Final outcome: releases staging (writes), updates stats/counters,
  /// emits the observer record and resolves the request.
  void finish(AsyncOp& op, std::exception_ptr error);

  /// Records the completion phase and seals the op's trace (runs before
  /// the request resolves so waiters observe a sealed trace).
  static void seal_trace(const AsyncOp& op, bool failed,
                         double completion_start);

  /// Drains and joins the background machinery without closing the file.
  void shutdown_machinery();
  /// After shutdown: frees the recycled records and staging chunks that
  /// nobody holds (a submit racing close() may still hold one; that is
  /// freed with the connector).
  void release_idle_memory();

  static CacheKey cache_key(const h5::Dataset& ds, const h5::Selection& selection);

  /// The transactional copy: waits for back-pressure room, accounts the
  /// bytes and copies `data` into connector-owned staging.
  void stage(AsyncOp& op, std::span<const std::byte> data);
  /// Gives the op's staging back; `rejected` also un-counts the bytes
  /// from stats (the write never entered the FIFO).
  void release_staging(AsyncOp& op, bool rejected);
  /// Bump-allocates `n` bytes from the current chunk (or a free or new
  /// one).  Caller holds staging_mutex_.
  std::byte* acquire_staging(std::size_t n, StagingChunk*& owner);
};

}  // namespace apio::vol
