// POSIX file backend using positional pread/pwrite, the same primitive
// layer HDF5's sec2 driver uses underneath a parallel file system.
// Vectored transfers go through preadv/pwritev so a whole aggregated
// selection costs one syscall per contiguous file run.
#pragma once

#include <sys/uio.h>

#include <cstddef>
#include <functional>
#include <span>
#include <string>

#include "storage/backend.h"

namespace apio::storage {

namespace detail {

/// A positional-write primitive with pwrite's signature, injectable for
/// tests.  Returns bytes written, or -1 with errno set.
using PwriteFn =
    std::function<long(const std::byte* buf, std::size_t len, std::uint64_t offset)>;

/// Loops `op` until `data` is fully written at `offset`.  EINTR is
/// retried; a negative return throws IoError with `path` in the
/// message.  A return of 0 with bytes remaining is also an error — the
/// write made no progress and looping again would spin forever
/// (regression: the old loop treated 0 as retryable and hung).
void write_fully(const PwriteFn& op, std::uint64_t offset,
                 std::span<const std::byte> data, const std::string& path);

/// A positional vectored primitive with pwritev/preadv's signature,
/// injectable for tests.  Returns bytes moved, or -1 with errno set.
using PvecFn = std::function<long(const struct iovec* iov, int count,
                                  std::uint64_t offset)>;

/// Moves every extent (sorted, non-overlapping) through `op`: one call
/// per file-contiguous run of at most `iov_limit` extents, EINTR
/// retried, short counts advanced through the batch.  A negative return
/// throws IoError "<op_name> failed for '<path>': <strerror>"; a return
/// of 0 throws IoError "posix backend: <zero_progress> '<path>'".
/// Instantiated for WriteExtent and ReadExtent.
template <typename Extent>
void transfer_vectored(const PvecFn& op, std::span<const Extent> extents,
                       std::size_t iov_limit, const char* op_name,
                       const char* zero_progress, const std::string& path);

}  // namespace detail

/// File-backed flat object.  pread/pwrite are thread-safe at the kernel
/// level, so concurrent disjoint-range access needs no user-space lock.
class PosixBackend final : public Backend {
 public:
  enum class Mode { kCreateTruncate, kOpenExisting, kOpenOrCreate };

  PosixBackend(const std::string& path, Mode mode);
  ~PosixBackend() override;

  PosixBackend(const PosixBackend&) = delete;
  PosixBackend& operator=(const PosixBackend&) = delete;

  std::uint64_t size() const override;
  void read(std::uint64_t offset, std::span<std::byte> out) override;
  void write(std::uint64_t offset, std::span<const std::byte> data) override;
  [[nodiscard]] std::uint64_t write_v(
      std::span<const WriteExtent> extents) override;
  [[nodiscard]] std::uint64_t read_v(
      std::span<const ReadExtent> extents) override;
  void flush() override;
  void truncate(std::uint64_t new_size) override;
  std::string name() const override { return "posix:" + path_; }

  const std::string& path() const { return path_; }

  /// Caps the iovec count of one preadv/pwritev call.  Defaults to the
  /// platform IOV_MAX; tests lower it to exercise the splitting path
  /// without building million-extent vectors.
  void set_iov_batch_limit(std::size_t limit);
  std::size_t iov_batch_limit() const { return iov_limit_; }

 private:
  std::string path_;
  int fd_ = -1;
  std::size_t iov_limit_;
};

}  // namespace apio::storage
