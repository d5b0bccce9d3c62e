#include "vol/async_connector.h"

#include <algorithm>
#include <cstring>

#include "common/debug/invariant.h"
#include "common/debug/thread_role.h"
#include "common/error.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "obs/trace_context.h"
#include "vol/selection_token.h"

namespace apio::vol {
namespace {

obs::Histogram& stage_hist() {
  static auto& h = obs::Registry::instance().histogram("vol.async.stage_seconds");
  return h;
}

obs::Histogram& execute_hist() {
  static auto& h = obs::Registry::instance().histogram("vol.async.execute_seconds");
  return h;
}

obs::Counter& staged_bytes_counter() {
  static auto& c = obs::Registry::instance().counter("vol.async.bytes_staged");
  return c;
}

obs::Counter& executed_bytes_counter() {
  static auto& c = obs::Registry::instance().counter("vol.async.bytes_executed");
  return c;
}

obs::Counter& prefetch_hits_counter() {
  static auto& c = obs::Registry::instance().counter("vol.async.prefetch_hits");
  return c;
}

obs::Counter& prefetch_misses_counter() {
  static auto& c = obs::Registry::instance().counter("vol.async.prefetch_misses");
  return c;
}

obs::Counter& failed_counter() {
  static auto& c = obs::Registry::instance().counter("vol.async.failed_ops");
  return c;
}

/// Byte offset of the selection's first element within the dataset's
/// linearized (row-major) extent; 0 for an all-selection.  Computes the
/// row pitches on the fly rather than materializing them.
std::uint64_t selection_offset_bytes(const h5::Dataset& ds,
                                     const h5::Selection& selection) {
  if (selection.is_all()) return 0;
  const h5::Dims& dims = ds.dims();
  const h5::Dims& start = selection.slab().start;
  std::uint64_t elems = 0;
  std::uint64_t pitch = 1;
  for (std::size_t i = dims.size(); i-- > 0;) {
    if (i < start.size()) elems += start[i] * pitch;
    pitch *= dims[i];
  }
  return elems * ds.element_size();
}

/// Identity of one op, captured at issue time unconditionally: failures
/// must carry it even when no observer is attached (the background
/// stream has no business touching the container's path index).
/// Throws NotFoundError for a dataset handle of another file.
RequestInfo request_info(obs::IoOp kind, const h5::File& file,
                         const h5::Dataset& ds, const h5::Selection& selection,
                         std::uint64_t bytes) {
  RequestInfo info;
  info.op = kind;
  info.dataset_path = file.path_of(ds);
  info.selection = selection_to_token(selection);
  info.offset = selection_offset_bytes(ds, selection);
  info.bytes = bytes;
  return info;
}

/// Chunks grow geometrically from the first write's size up to this
/// cap, so retained staging tracks the staged high-water mark.
constexpr std::size_t kStagingChunkBytes = 64 * 1024;

obs::Gauge& staged_outstanding_gauge() {
  static auto& g = obs::Registry::instance().gauge("vol.async.staged_outstanding");
  return g;
}

}  // namespace

struct AsyncConnector::AsyncOp {
  obs::IoOp kind = obs::IoOp::kWrite;
  h5::Dataset ds;
  /// Reassigned per use, so its dim vectors keep their capacity.
  h5::Selection selection = h5::Selection::all();
  /// Write payload in connector-owned staging.
  std::span<const std::byte> staged;
  StagingChunk* staged_chunk = nullptr;
  /// True while the op's bytes count against back-pressure.
  bool holds_staging = false;
  /// Read destination (caller-owned until completion).
  std::span<std::byte> out;
  /// Prefetch destination (cache-owned).
  std::shared_ptr<std::vector<std::byte>> buffer;
  std::uint64_t bytes = 0;

  RequestPtr request;
  /// Fair-share identity captured at issue time; re-bound on the
  /// background stream around the op so a QosBackend under the file
  /// charges the issuing tenant.
  sched::SubmissionContext submission;

  /// Observer record inputs, captured at issue when someone observes.
  bool observed = false;
  int ranks = 1;
  int origin_rank = 0;
  double issue_time = 0.0;
  double blocking_seconds = 0.0;

  /// Causal trace identity, minted at submission; re-bound alongside
  /// the submission context on the stream.
  obs::trace::TraceContext trace;
  double trace_start = 0.0;       ///< root span start (steady_seconds)
  double fifo_enqueue_time = 0.0; ///< FIFO-wait phase anchor

  std::uint64_t seq = 0;      ///< FIFO sequence number
  AsyncOp* next = nullptr;    ///< FIFO or free-list link
  bool idle = false;          ///< on the free list (or about to be)
};

struct AsyncConnector::StagingChunk {
  std::unique_ptr<std::byte[]> bytes;
  std::size_t capacity = 0;
  std::size_t used = 0;
  std::size_t live = 0;  ///< staged writes still holding bytes here
};

void AsyncConnector::OpReturner::operator()(AsyncOp* op) const {
  if (op->holds_staging) owner->release_staging(*op, /*rejected=*/true);
  op->request.reset();
  op->buffer.reset();
  std::lock_guard lock(owner->order_mutex_);
  op->idle = true;
  op->next = owner->free_ops_;
  owner->free_ops_ = op;
}

/// Records the completion phase and seals the op's trace.  Must run
/// before the request resolves so waiters observe a sealed trace.
void AsyncConnector::seal_trace(const AsyncOp& op, bool failed,
                                double completion_start) {
  if (!op.trace.recording()) return;
  const double now = obs::steady_seconds();
  obs::trace::record_phase(op.trace, obs::trace::Phase::kComplete,
                           completion_start, now - completion_start);
  obs::trace::TraceCollector::instance().complete(
      op.trace, op.kind,
      op.submission.tenant.empty() ? sched::kDefaultTenant
                                   : op.submission.tenant,
      op.bytes, failed, op.trace_start, now);
}

AsyncConnector::AsyncConnector(h5::FilePtr file, AsyncOptions options,
                               const Clock* clock)
    : file_(std::move(file)),
      options_(std::move(options)),
      clock_(clock != nullptr ? clock : &wall_clock_) {
  APIO_REQUIRE(file_ != nullptr, "AsyncConnector requires an open file");
  const double t0 = clock_->now();
  pool_ = std::make_shared<tasking::Pool>();
  stream_ = std::make_unique<tasking::ExecutionStream>(pool_);
  std::lock_guard lock(stats_mutex_);
  stats_.init_seconds = clock_->now() - t0;
}

AsyncConnector::~AsyncConnector() {
  try {
    shutdown_machinery();
  } catch (...) {
    // Failures surface through explicit close()/wait_all(); the
    // destructor must stay silent.
  }
}

void AsyncConnector::shutdown_machinery() {
  {
    std::lock_guard lock(order_mutex_);
    if (closed_.exchange(true)) return;
  }
  const double t0 = clock_->now();
  wait_all();
  stream_->shutdown();
  clear_cache();
  release_idle_memory();
  std::lock_guard lock(stats_mutex_);
  stats_.term_seconds = clock_->now() - t0;
}

void AsyncConnector::release_idle_memory() {
  {
    std::lock_guard lock(order_mutex_);
    free_ops_ = nullptr;
    std::erase_if(ops_, [](const std::unique_ptr<AsyncOp>& op) { return op->idle; });
  }
  std::lock_guard lock(staging_mutex_);
  free_staging_chunks_.clear();
  if (staging_chunk_ != nullptr && staging_chunk_->live == 0) staging_chunk_ = nullptr;
  std::erase_if(staging_chunks_, [this](const std::unique_ptr<StagingChunk>& chunk) {
    return chunk->live == 0 && chunk.get() != staging_chunk_;
  });
}

AsyncConnector::OpHandle AsyncConnector::new_op(obs::IoOp kind) {
  if (closed_.load()) throw StateError("AsyncConnector used after close()");
  AsyncOp* op = nullptr;
  {
    std::lock_guard lock(order_mutex_);
    if (free_ops_ != nullptr) {
      op = free_ops_;
      free_ops_ = op->next;
      op->idle = false;  // under the lock: shutdown frees idle records
    }
  }
  if (op == nullptr) {
    auto fresh = std::make_unique<AsyncOp>();
    op = fresh.get();
    std::lock_guard lock(order_mutex_);
    ops_.push_back(std::move(fresh));
  }
  op->next = nullptr;
  op->kind = kind;
  op->bytes = 0;
  op->observed = false;
  op->trace = obs::trace::TraceCollector::instance().start_trace();
  if (op->trace.recording()) op->trace_start = obs::steady_seconds();
  return OpHandle(op, OpReturner{this});
}

void AsyncConnector::capture_observed(AsyncOp& op, double issue_time,
                                      double blocking_seconds) {
  op.observed = has_observers();
  if (!op.observed) return;
  op.ranks = reported_ranks();
  op.origin_rank = obs::thread_rank();
  op.issue_time = issue_time;
  op.blocking_seconds = blocking_seconds;
}

void AsyncConnector::enqueue_op(OpHandle op) {
  // Submission identity, resolved at issue time: connector-level tenant
  // wins, then the issuing thread's binding.  Flushes ride the priority
  // lane (they are the latency-sensitive barrier ops the fairness gate
  // protects); the admission deadline is the issuing thread's.
  const sched::SubmissionContext* ctx = sched::current_submission();
  if (!options_.tenant.empty()) {
    op->submission.tenant = options_.tenant;
  } else if (ctx != nullptr) {
    op->submission.tenant = ctx->tenant;
  } else {
    op->submission.tenant.clear();
  }
  op->submission.lane = op->kind == obs::IoOp::kFlush ? sched::Lane::kPriority
                                                      : sched::Lane::kBulk;
  op->submission.deadline = ctx != nullptr ? ctx->deadline : 0.0;
  if (op->trace.recording()) op->fifo_enqueue_time = obs::steady_seconds();

  bool start_drain = false;
  {
    std::lock_guard lock(order_mutex_);
    // When close() won the race after new_op(), the op stays in the
    // handle: it is rejected below, recycled and its staging released.
    if (!closed_.load()) {
      AsyncOp* raw = op.release();
      raw->seq = ++submitted_;
      if (fifo_tail_ != nullptr) {
        fifo_tail_->next = raw;
      } else {
        fifo_head_ = raw;
      }
      fifo_tail_ = raw;
      switch (raw->kind) {
        case obs::IoOp::kWrite: ++writes_enqueued_; break;
        case obs::IoOp::kRead: ++reads_enqueued_; break;
        case obs::IoOp::kPrefetch: ++prefetches_enqueued_; break;
        case obs::IoOp::kFlush: break;
      }
      // A predecessor failure does not cancel successors — the async
      // VOL records errors per operation, it does not poison the queue.
      if (!draining_) {
        draining_ = true;
        start_drain = true;
      }
    }
  }
  if (op != nullptr) throw StateError("AsyncConnector used after close()");
  // Only the idle->busy edge schedules a drain.  The pool cannot have
  // closed here: shutdown waits for this op before closing it.
  if (start_drain) pool_->push([this] { drain(); });
}

void AsyncConnector::drain() {
  APIO_ASSERT_ON_STREAM();
  for (;;) {
    AsyncOp* burst = nullptr;
    {
      std::lock_guard lock(order_mutex_);
      burst = fifo_head_;
      if (burst == nullptr) {
        draining_ = false;
        return;
      }
      fifo_head_ = fifo_tail_ = nullptr;
    }
    // Each op runs to its final outcome before its successor starts:
    // successors wait out any retries the backend stack makes.
    AsyncOp* last = burst;
    for (AsyncOp* op = burst; op != nullptr; op = op->next) {
      run_op(*op);
      op->idle = true;
      last = op;
    }
    bool wake = false;
    {
      std::lock_guard lock(order_mutex_);
      completed_ = last->seq;
      last->next = free_ops_;
      free_ops_ = burst;
      wake = drain_waiters_ > 0;
    }
    if (wake) drained_cv_.notify_all();
  }
}

void AsyncConnector::execute_op(AsyncOp& op) {
  obs::TimedOp timed(
      execute_hist(),
      op.kind == obs::IoOp::kPrefetch ? nullptr : &executed_bytes_counter(),
      op.bytes);
  switch (op.kind) {
    case obs::IoOp::kWrite:
      op.ds.write_raw(op.selection, op.staged);
      break;
    case obs::IoOp::kRead:
      op.ds.read_raw(op.selection, op.out);
      break;
    case obs::IoOp::kPrefetch:
      op.ds.read_raw(op.selection, *op.buffer);
      break;
    case obs::IoOp::kFlush:
      file_->flush();
      break;
  }
}

void AsyncConnector::run_op(AsyncOp& op) {
  // Background threads do not inherit the issuer's thread-local
  // submission binding; restore it for the whole op so QosBackend
  // admission charges the right tenant.  The trace is re-bound next to
  // it.
  sched::ScopedSubmission bind(op.submission);
  obs::trace::ScopedTraceContext trace_bind(op.trace);
  if (op.trace.recording()) {
    // FIFO wait: queued until the predecessor finished.  Pool wait:
    // from then until this stream picked the op up.
    const double now = obs::steady_seconds();
    const double ready = std::max(op.fifo_enqueue_time, last_finish_);
    obs::trace::record_phase(op.trace, obs::trace::Phase::kFifoWait,
                             op.fifo_enqueue_time,
                             ready - op.fifo_enqueue_time);
    obs::trace::record_phase(op.trace, obs::trace::Phase::kPoolWait, ready,
                             now - ready);
  }
  // One attempt span per op.  A ResilientBackend under the file retries
  // inside it (backoff spans, repeated backend spans), sleeping on this
  // stream and so stalling the FIFO like a storage target that is down.
  std::exception_ptr error;
  try {
    obs::trace::ScopedPhase attempt(obs::trace::Phase::kAttempt, op.bytes);
    execute_op(op);
  } catch (...) {
    error = std::current_exception();
  }
  finish(op, std::move(error));
  if (obs::trace::TraceCollector::instance().enabled()) {
    last_finish_ = obs::steady_seconds();
  }
}

void AsyncConnector::finish(AsyncOp& op, std::exception_ptr error) {
  const double completion_start =
      op.trace.recording() ? obs::steady_seconds() : 0.0;
  const bool failed = error != nullptr;
  if (op.holds_staging) release_staging(op, /*rejected=*/false);
  if (failed) {
    if (obs::enabled()) failed_counter().increment();
    std::lock_guard lock(stats_mutex_);
    ++stats_.failed_ops;
  }
  if (!failed && op.observed) {
    // Observer records are emitted on final success only.
    const RequestInfo& info = op.request->info();
    IoRecord record;
    record.op = op.kind;
    record.dataset_path = info.dataset_path;
    record.selection = info.selection;
    record.bytes = op.bytes;
    record.ranks = op.ranks;
    record.origin_rank = op.origin_rank;
    record.issue_time = op.issue_time;
    record.blocking_seconds = op.blocking_seconds;
    record.completion_seconds = clock_->now() - op.issue_time;
    record.async = true;
    record.trace_id = op.trace.trace_id;
    record.span_id = op.trace.span_id;
    observe(record);
  }
  seal_trace(op, failed, completion_start);
  op.request->resolve(std::move(error));
  op.request.reset();
  op.buffer.reset();
}

RequestPtr AsyncConnector::dataset_write(h5::Dataset ds,
                                         const h5::Selection& selection,
                                         std::span<const std::byte> data) {
  const double t0 = clock_->now();
  OpHandle op = new_op(obs::IoOp::kWrite);
  obs::trace::ScopedTraceContext trace_bind(op->trace);
  obs::trace::ScopedPhase submit_phase(obs::trace::Phase::kSubmit,
                                       data.size());
  // Everything that can reject the write runs before the staging copy,
  // so a rejected write never holds back-pressure budget.
  auto request = std::make_shared<Request>(
      request_info(obs::IoOp::kWrite, *file_, ds, selection, data.size()));
  op->ds = ds;
  op->selection = selection;
  op->bytes = data.size();
  op->request = request;
  {
    // The transactional copy: a non-zero-copy into connector-owned
    // staging so the caller may immediately reuse (or mutate) its
    // memory while the background thread performs the actual storage
    // transfer.
    obs::trace::ScopedPhase stage_span(obs::trace::Phase::kStageCopy,
                                       data.size());
    obs::TimedOp timed(stage_hist(), &staged_bytes_counter(), data.size());
    stage(*op, data);
  }
  capture_observed(*op, t0, clock_->now() - t0);
  enqueue_op(std::move(op));
  return request;
}

RequestPtr AsyncConnector::dataset_read(h5::Dataset ds,
                                        const h5::Selection& selection,
                                        std::span<std::byte> out) {
  const double t0 = clock_->now();

  // Prefetch-cache hit: the data was pulled into node-local memory
  // during a previous compute phase; serve it with a memcpy.  No key is
  // built while nothing is prefetched.
  CacheEntry entry;
  bool hit = false;
  {
    std::lock_guard lock(cache_mutex_);
    if (!cache_.empty()) {
      auto it = cache_.find(cache_key(ds, selection));
      if (it != cache_.end()) {
        entry = std::move(it->second);
        cache_.erase(it);
        hit = true;
      }
    }
  }
  if (hit) {
    if (obs::enabled()) prefetch_hits_counter().increment();
    {
      obs::trace::ScopedTrace trace(
          IoOp::kRead, out.size(),
          options_.tenant.empty() ? sched::submission_tenant()
                                  : std::string_view(options_.tenant));
      obs::trace::ScopedPhase served(obs::trace::Phase::kCacheHit, out.size());
      entry.ready->wait();  // normally already complete
      APIO_REQUIRE(entry.data->size() == out.size(),
                   "prefetched buffer size does not match read selection");
      std::memcpy(out.data(), entry.data->data(), out.size());
    }
    const double dt = clock_->now() - t0;
    if (has_observers()) {
      IoRecord record;
      record.op = IoOp::kRead;
      record.bytes = out.size();
      record.ranks = reported_ranks();
      record.origin_rank = obs::thread_rank();
      record.issue_time = t0;
      record.blocking_seconds = dt;
      record.completion_seconds = dt;
      record.async = true;
      record.cache_hit = true;
      if (observers_want_detail()) {
        record.dataset_path = file_->path_of(ds);
        record.selection = selection_to_token(selection);
      }
      observe(record);
    }
    {
      std::lock_guard lock(stats_mutex_);
      ++stats_.cache_hits;
    }
    return Request::completed(
        request_info(obs::IoOp::kRead, *file_, ds, selection, out.size()));
  }

  if (obs::enabled()) prefetch_misses_counter().increment();
  OpHandle op = new_op(obs::IoOp::kRead);
  obs::trace::ScopedTraceContext trace_bind(op->trace);
  obs::trace::ScopedPhase submit_phase(obs::trace::Phase::kSubmit, out.size());
  auto request = std::make_shared<Request>(
      request_info(obs::IoOp::kRead, *file_, ds, selection, out.size()));
  op->ds = ds;
  op->selection = selection;
  op->out = out;
  op->bytes = out.size();
  op->request = request;
  capture_observed(*op, t0, /*blocking_seconds=*/0.0);  // caller not blocked
  enqueue_op(std::move(op));
  return request;
}

void AsyncConnector::prefetch(h5::Dataset ds, const h5::Selection& selection) {
  const double t0 = clock_->now();
  CacheKey key = cache_key(ds, selection);
  {
    std::lock_guard lock(cache_mutex_);
    if (cache_.count(key) > 0) return;  // already in flight
  }
  const std::uint64_t bytes = selection.npoints(ds.dims()) * ds.element_size();
  OpHandle op = new_op(obs::IoOp::kPrefetch);
  obs::trace::ScopedTraceContext trace_bind(op->trace);
  obs::trace::ScopedPhase submit_phase(obs::trace::Phase::kSubmit, bytes);
  auto request = std::make_shared<Request>(
      request_info(obs::IoOp::kPrefetch, *file_, ds, selection, bytes));
  auto buffer = std::make_shared<std::vector<std::byte>>(bytes);
  op->ds = ds;
  op->selection = selection;
  op->buffer = buffer;
  op->bytes = bytes;
  op->request = request;
  enqueue_op(std::move(op));
  {
    std::lock_guard lock(cache_mutex_);
    cache_.emplace(std::move(key), CacheEntry{request, std::move(buffer)});
  }
  if (has_observers()) {
    IoRecord record;
    record.op = IoOp::kPrefetch;
    record.bytes = bytes;
    record.ranks = reported_ranks();
    record.origin_rank = obs::thread_rank();
    record.issue_time = t0;
    record.blocking_seconds = clock_->now() - t0;
    record.async = true;
    if (observers_want_detail()) {
      record.dataset_path = request->info().dataset_path;
      record.selection = request->info().selection;
    }
    observe(record);
  }
}

RequestPtr AsyncConnector::flush() {
  const double t0 = clock_->now();
  OpHandle op = new_op(obs::IoOp::kFlush);
  obs::trace::ScopedTraceContext trace_bind(op->trace);
  obs::trace::ScopedPhase submit_phase(obs::trace::Phase::kSubmit);
  RequestInfo info;
  info.op = obs::IoOp::kFlush;
  RequestPtr request = std::make_shared<Request>(std::move(info));
  op->request = request;
  capture_observed(*op, t0, /*blocking_seconds=*/0.0);  // caller not blocked
  enqueue_op(std::move(op));
  return request;
}

void AsyncConnector::stage(AsyncOp& op, std::span<const std::byte> data) {
  const std::uint64_t n = data.size();
  std::byte* dst = nullptr;
  std::uint64_t now_staged = 0;
  {
    std::unique_lock lock(staging_mutex_);
    if (options_.max_staged_bytes > 0) {
      staging_cv_.wait(lock, [&] {
        return staged_outstanding_ + n <= options_.max_staged_bytes ||
               staged_outstanding_ == 0;
      });
    }
    staged_outstanding_ += n;
    staged_total_ += n;
    staged_hwm_ = std::max(staged_hwm_, staged_outstanding_);
    now_staged = staged_outstanding_;
    op.holds_staging = true;
    if (n > 0) dst = acquire_staging(n, op.staged_chunk);
  }
  if (obs::enabled()) {
    auto& gauge = staged_outstanding_gauge();
    gauge.set(static_cast<std::int64_t>(now_staged));
    gauge.note_watermark();
  }
  if (n > 0) std::memcpy(dst, data.data(), n);
  op.staged = {dst, n};
}

void AsyncConnector::release_staging(AsyncOp& op, bool rejected) {
  std::uint64_t now_staged = 0;
  {
    std::lock_guard lock(staging_mutex_);
    APIO_INVARIANT(staged_outstanding_ >= op.bytes,
                   "staging accounting underflow");
    staged_outstanding_ -= op.bytes;
    if (rejected) staged_total_ -= op.bytes;
    now_staged = staged_outstanding_;
    if (StagingChunk* chunk = op.staged_chunk; chunk != nullptr) {
      // Writes release in FIFO order, so a chunk empties front to back;
      // an empty chunk is reused from its start (or parked for reuse).
      if (--chunk->live == 0) {
        chunk->used = 0;
        if (chunk != staging_chunk_) free_staging_chunks_.push_back(chunk);
      }
    }
    op.holds_staging = false;
    op.staged_chunk = nullptr;
    op.staged = {};
  }
  if (obs::enabled()) {
    staged_outstanding_gauge().set(static_cast<std::int64_t>(now_staged));
  }
  if (options_.max_staged_bytes > 0) staging_cv_.notify_all();
}

std::byte* AsyncConnector::acquire_staging(std::size_t n, StagingChunk*& owner) {
  StagingChunk* chunk = staging_chunk_;
  if (chunk == nullptr || chunk->capacity - chunk->used < n) {
    // The current chunk is full: park it if already empty, then take
    // the newest free chunk that fits, or grow.
    if (chunk != nullptr && chunk->live == 0) free_staging_chunks_.push_back(chunk);
    chunk = nullptr;
    for (auto it = free_staging_chunks_.rbegin(); it != free_staging_chunks_.rend();
         ++it) {
      if ((*it)->capacity >= n) {
        chunk = *it;
        *it = free_staging_chunks_.back();
        free_staging_chunks_.pop_back();
        break;
      }
    }
    if (chunk == nullptr) {
      auto fresh = std::make_unique<StagingChunk>();
      fresh->capacity = std::max<std::size_t>(
          n, std::min<std::uint64_t>(kStagingChunkBytes, staging_capacity_));
      fresh->bytes = std::make_unique_for_overwrite<std::byte[]>(fresh->capacity);
      staging_capacity_ += fresh->capacity;
      chunk = fresh.get();
      staging_chunks_.push_back(std::move(fresh));
    }
    staging_chunk_ = chunk;
  }
  std::byte* slot = chunk->bytes.get() + chunk->used;
  chunk->used += n;
  ++chunk->live;
  owner = chunk;
  return slot;
}

void AsyncConnector::wait_all() {
  // Waits for every op queued before the call, without rethrowing:
  // per-operation failures are reported through each Request (or
  // collected by an EventSet), the H5ESwait contract.  Rethrowing only
  // the tail's error here would be arbitrary — intermediate failures
  // would vanish.
  std::unique_lock lock(order_mutex_);
  const std::uint64_t target = submitted_;
  ++drain_waiters_;
  drained_cv_.wait(lock, [&] { return completed_ >= target; });
  --drain_waiters_;
}

void AsyncConnector::close() {
  shutdown_machinery();
  if (file_->is_open()) file_->close();
}

AsyncStats AsyncConnector::stats() const {
  AsyncStats snapshot;
  {
    std::lock_guard lock(stats_mutex_);
    snapshot = stats_;
  }
  {
    std::lock_guard lock(order_mutex_);
    snapshot.writes_enqueued = writes_enqueued_;
    snapshot.reads_enqueued = reads_enqueued_;
    snapshot.prefetches_enqueued = prefetches_enqueued_;
    // Every enqueued read missed the prefetch cache (hits never queue).
    snapshot.cache_misses = reads_enqueued_;
  }
  {
    std::lock_guard lock(staging_mutex_);
    snapshot.bytes_staged = staged_total_;
    snapshot.staged_high_watermark = staged_hwm_;
  }
  return snapshot;
}

void AsyncConnector::clear_cache() {
  std::lock_guard lock(cache_mutex_);
  cache_.clear();
}

AsyncConnector::CacheKey AsyncConnector::cache_key(const h5::Dataset& ds,
                                                   const h5::Selection& selection) {
  CacheKey key;
  key.push_back(reinterpret_cast<std::uintptr_t>(ds.object_key()));
  if (selection.is_all()) return key;
  const h5::Hyperslab& slab = selection.slab();
  key.reserve(1 + 4 + slab.start.size() + slab.stride.size() +
              slab.count.size() + slab.block.size());
  for (const h5::Dims* dims : {&slab.start, &slab.stride, &slab.count, &slab.block}) {
    key.push_back(dims->size());
    key.insert(key.end(), dims->begin(), dims->end());
  }
  return key;
}

}  // namespace apio::vol
