// Thread identity, the steady clock, and the per-operation metrics
// guard shared by every instrumented layer.
//
// Per-request spans live in obs/trace_context.h (the one span stream);
// this header only labels threads with their pmpi rank and times
// operations into latency histograms.
#pragma once

#include <cstdint>

namespace apio::obs {

/// pmpi rank of the calling thread (-1 outside an SPMD region).  Set by
/// pmpi::run for rank threads; recorded on every trace span.
int thread_rank();
void set_thread_rank(int rank);

/// Monotonic wall time in seconds (steady_clock).
double steady_seconds();

class Histogram;
class Counter;

/// Times one operation into a latency histogram (+ optional byte
/// counter) when metrics are enabled.  The metric references are cached
/// by the caller (function-local statics), so the per-op cost is one
/// relaxed load and no clock read when metrics are off.
class TimedOp {
 public:
  TimedOp(Histogram& latency, Counter* bytes_counter, std::uint64_t bytes);
  TimedOp(const TimedOp&) = delete;
  TimedOp& operator=(const TimedOp&) = delete;
  ~TimedOp();

 private:
  bool metrics_;
  Histogram* latency_;
  Counter* bytes_counter_;
  std::uint64_t bytes_;
  double start_ = 0.0;
};

}  // namespace apio::obs
