// Backend::LeafOp: the instrumentation of one leaf data op (memory,
// posix read/write/read_v/write_v) in one statement.  Decorators never
// build one: one physical transfer, one count (apio_lint `leaf-count`).
#pragma once

#include <exception>

#include "obs/metrics.h"
#include "obs/span.h"
#include "obs/trace_context.h"
#include "storage/backend.h"

namespace apio::storage {

/// Records the storage.{read,write}_seconds sample and the
/// storage.bytes_{read,written} counter when obs::enabled() (no clock
/// read otherwise, failed ops included), the kBackend span named
/// `detail` (a string literal), and the leaf's BackendStats, only when
/// the op returns normally.
class Backend::LeafOp {
 public:
  enum class Kind { kRead, kWrite };

  LeafOp(Backend& leaf, Kind kind, std::uint64_t bytes, const char* detail)
      : leaf_(leaf),
        kind_(kind),
        bytes_(bytes),
        uncaught_(std::uncaught_exceptions()),
        timed_(metrics(kind).seconds, &metrics(kind).bytes, bytes),
        span_(obs::trace::Phase::kBackend, bytes, detail) {}

  ~LeafOp() {
    if (std::uncaught_exceptions() > uncaught_) return;  // the op threw
    const bool read = kind_ == Kind::kRead;
    (read ? leaf_.bytes_read_ : leaf_.bytes_written_)
        .fetch_add(bytes_, std::memory_order_relaxed);
    (read ? leaf_.read_ops_ : leaf_.write_ops_)
        .fetch_add(1, std::memory_order_relaxed);
  }

  LeafOp(const LeafOp&) = delete;
  LeafOp& operator=(const LeafOp&) = delete;

 private:
  struct Metrics {
    obs::Histogram& seconds;
    obs::Counter& bytes;
  };
  static const Metrics& metrics(Kind kind) {
    auto& registry = obs::Registry::instance();
    if (kind == Kind::kRead) {
      static const Metrics read{registry.histogram("storage.read_seconds"),
                                registry.counter("storage.bytes_read")};
      return read;
    }
    static const Metrics write{registry.histogram("storage.write_seconds"),
                               registry.counter("storage.bytes_written")};
    return write;
  }

  Backend& leaf_;
  Kind kind_;
  std::uint64_t bytes_;
  int uncaught_;
  obs::TimedOp timed_;
  // Always Phase::kBackend (the constructor names it).
  obs::trace::ScopedPhase span_;  // apio-lint: allow(trace-phase)
};

}  // namespace apio::storage
