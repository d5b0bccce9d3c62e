// EventSet: the H5ES-style grouping of asynchronous requests.
//
// The paper's applications issue many H5Dwrite calls per I/O phase and
// wait on them collectively; HDF5 exposes that as an event set
// (H5EScreate / H5ESwait / H5ESget_err_info).  apio's EventSet wraps a
// batch of RequestPtr with the same semantics: insert as you issue,
// wait once per phase, then inspect how many operations failed and why.
#pragma once

#include <exception>
#include <string>
#include <vector>

#include "common/debug/lock_rank.h"
#include "vol/request.h"

namespace apio::vol {

/// One collected failure: the error plus the failed request's identity,
/// mirroring H5ESget_err_info's per-op error records.
struct EventError {
  RequestInfo info;
  std::string message;
  /// Taxonomy name from apio::error_category ("transient-io", "io", ...).
  std::string category;

  /// "write /tiles/a [0..16) @+0 (16 B): injected write fault
  ///  [category=io]" style line.
  std::string to_string() const;
};

class EventSet {
 public:
  /// Adds a request to the set.  Thread-safe.
  void insert(RequestPtr request);

  /// Requests currently tracked (completed ones included until
  /// wait()/clear()).
  [[nodiscard]] std::size_t size() const;

  /// True when every tracked request has completed (errors count as
  /// completed).
  [[nodiscard]] bool test() const;

  /// Blocks until every tracked request completes.  Unlike Request::
  /// wait(), errors do NOT propagate as exceptions here; they are
  /// collected for inspection (H5ESwait semantics).  Completed requests
  /// are dropped from the set; failures remain queryable until clear().
  void wait();

  /// Number of failed operations observed by past wait() calls.
  [[nodiscard]] std::size_t num_errors() const;

  /// The collected failures with full request identity, oldest first.
  [[nodiscard]] std::vector<EventError> errors() const;

  /// Human-readable lines of the collected failures, oldest first; each
  /// contains the failed request's identity, the original error message
  /// and its category.
  [[nodiscard]] std::vector<std::string> error_messages() const;

  /// Rethrows the first collected failure, if any (convenience for
  /// callers who do want exception propagation).
  void rethrow_first_error() const;

  /// Drops tracked requests and collected errors.
  void clear();

 private:
  mutable debug::RankedMutex<debug::LockRank::kVolEventSet> mutex_;
  std::vector<RequestPtr> pending_;
  std::vector<EventError> errors_;
  std::vector<std::exception_ptr> raw_errors_;
};

}  // namespace apio::vol
