#include "span_trace.h"

#include <atomic>
#include <chrono>
#include <fstream>
#include <memory>
#include <mutex>

#include "alloc_count.h"
#include "obs/span.h"

namespace perfbench::trace {

struct ThreadBuffer {
  std::uint32_t thread = 0;
  bool app = false;
  /// Its thread has exited; recycled to a new thread at the next clear().
  bool retired = false;
  std::vector<Span> spans;
  /// Local indices of the spans currently open on this thread.
  std::vector<std::int64_t> open;
};

namespace {

std::atomic<bool> g_enabled{false};

struct Registry {
  std::mutex mutex;
  std::vector<std::unique_ptr<ThreadBuffer>> buffers;
  /// Cleared buffers of exited threads, handed to new threads.
  std::vector<ThreadBuffer*> free;
};

Registry& registry() {
  static Registry r;
  return r;
}

/// Owns the calling thread's claim on a buffer; retires it at thread
/// exit (its spans stay readable until the next clear()).
struct BufferClaim {
  ThreadBuffer* buffer = nullptr;
  ~BufferClaim() {
    if (buffer == nullptr) return;
    std::lock_guard lock(registry().mutex);
    buffer->retired = true;
  }
};

thread_local BufferClaim t_claim;

ThreadBuffer& this_thread_buffer() {
  if (t_claim.buffer == nullptr) {
    Registry& r = registry();
    std::lock_guard lock(r.mutex);
    if (!r.free.empty()) {
      t_claim.buffer = r.free.back();
      r.free.pop_back();
    } else {
      auto buffer = std::make_unique<ThreadBuffer>();
      buffer->thread = static_cast<std::uint32_t>(r.buffers.size());
      // Room for a traced iteration without regrowth inside a span.
      buffer->spans.reserve(1 << 14);
      t_claim.buffer = buffer.get();
      r.buffers.push_back(std::move(buffer));
    }
  }
  return *t_claim.buffer;
}

}  // namespace

const char* layer_name(Layer layer) {
  switch (layer) {
    case Layer::kAsyncConnector: return "vol.async";
    case Layer::kNativeConnector: return "vol.native";
    case Layer::kLeaf: return "storage.leaf";
    case Layer::kThrottled: return "storage.throttled";
    case Layer::kResilient: return "storage.resilient";
    case Layer::kQos: return "storage.qos";
    case Layer::kCached: return "storage.cached";
  }
  return "?";
}

const char* op_name(Op op) {
  switch (op) {
    case Op::kWrite: return "write";
    case Op::kWriteV: return "write_v";
    case Op::kRead: return "read";
    case Op::kReadV: return "read_v";
    case Op::kFlush: return "flush";
    case Op::kClose: return "close";
    case Op::kTruncate: return "truncate";
    case Op::kDatasetWrite: return "dataset_write";
    case Op::kDatasetRead: return "dataset_read";
    case Op::kPrefetch: return "prefetch";
    case Op::kWaitAll: return "wait_all";
    case Op::kConnectorFlush: return "flush";
    case Op::kConnectorClose: return "close";
  }
  return "?";
}

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

void set_enabled(bool on) { g_enabled.store(on, std::memory_order_relaxed); }
bool enabled() { return g_enabled.load(std::memory_order_relaxed); }

void mark_app_thread() { this_thread_buffer().app = true; }

void clear() {
  Registry& r = registry();
  std::lock_guard lock(r.mutex);
  for (auto& buffer : r.buffers) {
    buffer->spans.clear();
    buffer->open.clear();
    if (buffer->retired) {
      buffer->retired = false;
      buffer->app = false;
      r.free.push_back(buffer.get());
    }
  }
}

std::vector<Span> snapshot() {
  Registry& r = registry();
  std::lock_guard lock(r.mutex);
  std::vector<Span> out;
  for (auto& buffer : r.buffers) {
    const auto base = static_cast<std::int64_t>(out.size());
    for (Span s : buffer->spans) {
      if (s.parent >= 0) s.parent += base;
      s.app_thread = buffer->app;
      out.push_back(s);
    }
  }
  return out;
}

void write_csv(const std::string& path, const std::vector<Span>& spans) {
  std::ofstream os(path);
  os << "index,layer,op,tag,thread,rank,app,start_ns,end_ns,bytes,extents,"
        "allocs,parent,cause\n";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    os << i << ',' << layer_name(s.layer) << ',' << op_name(s.op) << ','
       << int(s.tag) << ',' << s.thread << ',' << s.rank << ','
       << int(s.app_thread) << ',' << s.start_ns << ',' << s.end_ns << ','
       << s.bytes << ',' << s.extents << ',' << s.allocs << ',' << s.parent
       << ',' << s.cause << '\n';
  }
}

Scope::Scope(Layer layer, Op op, std::uint8_t tag, std::uint64_t bytes,
             std::uint32_t extents) {
  if (!enabled()) return;
  buffer_ = &this_thread_buffer();
  Span s;
  s.layer = layer;
  s.op = op;
  s.tag = tag;
  s.bytes = bytes;
  s.extents = extents;
  s.thread = buffer_->thread;
  s.rank = apio::obs::thread_rank();
  s.parent = buffer_->open.empty() ? -1 : buffer_->open.back();
  index_ = static_cast<std::int64_t>(buffer_->spans.size());
  buffer_->spans.push_back(s);
  buffer_->open.push_back(index_);
  allocs_at_start_ = thread_allocs();
  buffer_->spans[static_cast<std::size_t>(index_)].start_ns = now_ns();
}

Scope::~Scope() {
  if (buffer_ == nullptr) return;
  const std::uint64_t end = now_ns();
  Span& s = buffer_->spans[static_cast<std::size_t>(index_)];
  s.end_ns = end;
  s.allocs = static_cast<std::uint32_t>(thread_allocs() - allocs_at_start_);
  buffer_->open.pop_back();
}

}  // namespace perfbench::trace
