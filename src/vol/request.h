// Asynchronous request tokens returned by VOL operations, analogous to
// HDF5 event-set entries / the async VOL's internal task objects.
#pragma once

#include <atomic>
#include <cstdint>
#include <exception>
#include <memory>
#include <string>

#include "common/error.h"
#include "obs/record.h"

namespace apio::vol {

/// Identity of one VOL operation, captured at issue time so failures
/// can be reported with full context long after the issuing call
/// returned (the request may fail on the background stream).
struct RequestInfo {
  obs::IoOp op = obs::IoOp::kWrite;
  /// Full in-file path of the dataset ("" when unknown).
  std::string dataset_path;
  /// Human-readable selection description ("all", "[start..start+count)").
  std::string selection;
  /// Linearized byte offset of the selection start within the dataset.
  std::uint64_t offset = 0;
  /// Payload size in bytes.
  std::uint64_t bytes = 0;

  /// "write tiles/temperature [8..24) @+64 (16 B)" style summary.
  std::string to_string() const;
};

/// Completion token for one VOL operation.  The completion flag, the
/// error and the identity share this one object, so an async submit
/// hands the caller a single heap block.
///
/// The producer (a connector) calls resolve() exactly once; the release
/// store of the completion flag publishes the error, and every accessor
/// reads it only after observing completion.
class Request {
 public:
  /// A pending request.
  explicit Request(RequestInfo info = {}) : info_(std::move(info)) {}

  /// A request that already completed successfully (synchronous
  /// connectors, prefetch-cache hits).
  static std::shared_ptr<Request> completed(RequestInfo info = {});

  Request(const Request&) = delete;
  Request& operator=(const Request&) = delete;

  /// Blocks until the operation completed; rethrows its error.
  void wait();

  /// Non-blocking completion probe.
  bool test() const { return done_.load(std::memory_order_acquire); }

  bool failed() const { return test() && error_ != nullptr; }

  /// The captured failure message; "" while pending or on success.
  std::string error_message() const {
    return apio::error_message(test() ? error_ : nullptr);
  }

  /// Error taxonomy name ("transient-io", "io", "state", ...); "" while
  /// pending or on success.
  std::string error_category() const {
    return apio::error_category(test() ? error_ : nullptr);
  }

  const RequestInfo& info() const { return info_; }

  /// Producer side: publishes `error` (null = success), then releases
  /// every waiter.  Must be called exactly once.
  void resolve(std::exception_ptr error = nullptr);

 private:
  std::atomic<bool> done_{false};
  std::exception_ptr error_;
  RequestInfo info_;
};

using RequestPtr = std::shared_ptr<Request>;

}  // namespace apio::vol
