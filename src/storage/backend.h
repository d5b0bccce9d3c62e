// Storage backends: flat byte-addressable object stores underneath the
// apio-h5 container.  A backend is what the paper's storage stack calls
// "the target storage location" — a parallel file system file, a
// node-local SSD file, or an in-memory staging buffer.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <string>

namespace apio::storage {

/// Physical transfers a backend made, readable while it is in use.
/// Only leaves (MemoryBackend, PosixBackend) move bytes, so only leaves
/// count: a decorator forwards to its inner backend and reports zero,
/// and each transfer is counted once, at the layer that performs it
/// (apio_lint rule `leaf-count`).
struct BackendStats {
  std::uint64_t bytes_read = 0;
  std::uint64_t bytes_written = 0;
  std::uint64_t read_ops = 0;
  std::uint64_t write_ops = 0;
  std::uint64_t flushes = 0;
};

/// One extent of a gather-write: `data` lands at byte `offset`.
struct WriteExtent {
  std::uint64_t offset = 0;
  std::span<const std::byte> data;
};

/// One extent of a scatter-read: `out` is filled from byte `offset`.
struct ReadExtent {
  std::uint64_t offset = 0;
  std::span<std::byte> out;
};

/// Bytes covered by a gather/scatter extent list.
inline std::uint64_t total_bytes(std::span<const WriteExtent> extents) {
  std::uint64_t total = 0;
  for (const auto& e : extents) total += e.data.size();
  return total;
}
inline std::uint64_t total_bytes(std::span<const ReadExtent> extents) {
  std::uint64_t total = 0;
  for (const auto& e : extents) total += e.out.size();
  return total;
}

/// Abstract flat address space with positional read/write.
///
/// Thread-safety: write()/read() on disjoint ranges may be issued
/// concurrently (parallel ranks write disjoint hyperslabs); overlapping
/// concurrent writes are a data race, as they are in MPI-IO.
/// Metadata operations (truncate) must be externally serialised.
class Backend {
 public:
  virtual ~Backend() = default;

  /// Current end-of-object offset in bytes.
  virtual std::uint64_t size() const = 0;

  /// Reads exactly out.size() bytes at `offset`; throws IoError when the
  /// range extends past end of object.
  virtual void read(std::uint64_t offset, std::span<std::byte> out) = 0;

  /// Writes data at `offset`, growing the object as needed.
  virtual void write(std::uint64_t offset, std::span<const std::byte> data) = 0;

  /// Vectored write: the extents must be sorted by offset and pairwise
  /// non-overlapping (h5::IoVector produces exactly this shape).  Leaf
  /// backends override with one batched transfer (pwritev, single-lock
  /// memcpy loop) counted as a single operation; the default — which
  /// decorators inherit — falls back to one write() per extent so
  /// per-extent metrics, throttling, fault injection and retries keep
  /// their scalar-path semantics.  Returns the bytes transferred; a
  /// completed call transfers every extent in full (partial kernel
  /// transfers are retried internally), so callers check the count
  /// against the bytes they submitted.
  [[nodiscard]] virtual std::uint64_t write_v(
      std::span<const WriteExtent> extents) {
    for (const auto& e : extents) write(e.offset, e.data);
    return total_bytes(extents);
  }

  /// Vectored read, same extent contract as write_v.  Every extent must
  /// lie inside the object (throws IoError otherwise).  Returns the
  /// bytes transferred into the extents' buffers.
  [[nodiscard]] virtual std::uint64_t read_v(
      std::span<const ReadExtent> extents) {
    for (const auto& e : extents) read(e.offset, e.out);
    return total_bytes(extents);
  }

  /// Persists buffered data (no-op for memory backends).
  virtual void flush() = 0;

  /// Lifecycle hook: the container (h5::File::close) announces that no
  /// further writes follow.  Leaves ignore it; decorators forward it
  /// inward; visibility-deferring tiers (CachedBackend in kAfterClose /
  /// kAfterEpoch mode) drain their staged data here.  Unlike flush(),
  /// close() may publish data a consistency policy was withholding.
  virtual void close() {}

  /// Sets the object size, zero-filling on growth.
  virtual void truncate(std::uint64_t new_size) = 0;

  /// Human-readable backend identity for diagnostics.
  virtual std::string name() const = 0;

  /// Physical transfers this backend made (see BackendStats): nonzero
  /// only on leaves.
  BackendStats stats() const {
    BackendStats s;
    s.bytes_read = bytes_read_.load(std::memory_order_relaxed);
    s.bytes_written = bytes_written_.load(std::memory_order_relaxed);
    s.read_ops = read_ops_.load(std::memory_order_relaxed);
    s.write_ops = write_ops_.load(std::memory_order_relaxed);
    s.flushes = flushes_.load(std::memory_order_relaxed);
    return s;
  }

 protected:
  /// The count hooks, for leaves only: LeafOp (storage/leaf_op.h)
  /// instruments one data op and counts it on success; count_flush()
  /// counts one successful flush.
  class LeafOp;
  void count_flush() { flushes_.fetch_add(1, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> bytes_read_{0};
  std::atomic<std::uint64_t> bytes_written_{0};
  std::atomic<std::uint64_t> read_ops_{0};
  std::atomic<std::uint64_t> write_ops_{0};
  std::atomic<std::uint64_t> flushes_{0};
};

using BackendPtr = std::shared_ptr<Backend>;

}  // namespace apio::storage
