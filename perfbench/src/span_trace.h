// In-memory span recorder for the traced benchmark run.
//
// The benchmark's interposers (TimedBackend between BackendStack
// stages, TracingConnector around a vol::Connector) open a Scope around
// every call they forward.  A span records its layer, operation, start
// and end, calling thread and pmpi rank, bytes and extents carried,
// heap allocations made on the thread inside it, and its parent: the
// enclosing span on the same thread.  Spans go into per-thread buffers
// (no cross-thread contention on the hot path) and are merged into one
// flat vector by snapshot() once the traced work has finished.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench::trace {

/// Which interposer recorded a span.  Storage stages are listed inner
/// to outer, in BackendStack order.
enum class Layer : std::uint8_t {
  kAsyncConnector = 0,
  kNativeConnector,
  kLeaf,
  kThrottled,
  kResilient,
  kQos,
  kCached,
};
inline constexpr int kLayerCount = 7;
const char* layer_name(Layer layer);
inline bool is_storage(Layer layer) { return layer >= Layer::kLeaf; }

enum class Op : std::uint8_t {
  kWrite = 0,   ///< Backend::write
  kWriteV,      ///< Backend::write_v
  kRead,        ///< Backend::read
  kReadV,       ///< Backend::read_v
  kFlush,
  kClose,
  kTruncate,
  kDatasetWrite,  ///< Connector::dataset_write
  kDatasetRead,
  kPrefetch,
  kWaitAll,
  kConnectorFlush,
  kConnectorClose,
};
const char* op_name(Op op);
inline bool is_data_write(Op op) { return op == Op::kWrite || op == Op::kWriteV; }
inline bool is_data_read(Op op) { return op == Op::kRead || op == Op::kReadV; }

struct Span {
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::uint64_t bytes = 0;
  /// Flat index of the enclosing span on the same thread; -1 for a
  /// thread's outermost span.  FIFO attribution of background-stream
  /// spans to the submitting connector call goes into `cause`.
  std::int64_t parent = -1;
  std::int64_t cause = -1;
  std::uint32_t extents = 0;
  std::uint32_t allocs = 0;
  std::uint32_t thread = 0;
  std::int32_t rank = -1;
  Layer layer = Layer::kLeaf;
  Op op = Op::kWrite;
  /// Which stack or connector instance the interposer belongs to (the
  /// benchmark tags its async and native passes differently).
  std::uint8_t tag = 0;
  /// True when recorded on a thread the benchmark marked as an
  /// application thread (the main thread, pmpi ranks); false for the
  /// connector's background stream.
  bool app_thread = false;

  double seconds() const { return static_cast<double>(end_ns - start_ns) * 1e-9; }
};

/// Monotonic clock in nanoseconds (the recorder's time base).
std::uint64_t now_ns();

/// Global recording switch.  Interposers exist only in traced runs;
/// the switch lets one interposer instance sit idle (untraced passes).
void set_enabled(bool on);
bool enabled();

/// Marks the calling thread as an application thread.
void mark_app_thread();

/// Drops every recorded span.  Call only while no thread records.
void clear();

/// All spans recorded since the last clear(), parents remapped to flat
/// indices.  Call only while no thread records.
std::vector<Span> snapshot();

/// Writes spans as CSV (one header line, one span per line).
void write_csv(const std::string& path, const std::vector<Span>& spans);

/// RAII span: opens on construction, closes on destruction.  A no-op
/// when recording is disabled at construction time.
class Scope {
 public:
  Scope(Layer layer, Op op, std::uint8_t tag, std::uint64_t bytes = 0,
        std::uint32_t extents = 0);
  ~Scope();
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  struct ThreadBuffer* buffer_ = nullptr;
  std::int64_t index_ = -1;
  std::uint64_t allocs_at_start_ = 0;
};

}  // namespace perfbench::trace
