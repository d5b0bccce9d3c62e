#include "obs/span.h"

#include <chrono>

#include "obs/metrics.h"

namespace apio::obs {

namespace {

thread_local int t_rank = -1;

}  // namespace

int thread_rank() { return t_rank; }
void set_thread_rank(int rank) {
  t_rank = rank;
  // Rank threads shard the counters by rank, so per-shard snapshot
  // values read as per-rank values (the paper's per-rank accounting).
  if (rank >= 0) set_thread_shard(rank);
}

double steady_seconds() {
  using namespace std::chrono;
  return duration<double>(steady_clock::now().time_since_epoch()).count();
}

TimedOp::TimedOp(Histogram& latency, Counter* bytes_counter,
                 std::uint64_t bytes)
    : metrics_(enabled()),
      latency_(&latency),
      bytes_counter_(bytes_counter),
      bytes_(bytes) {
  if (metrics_) start_ = steady_seconds();
}

TimedOp::~TimedOp() {
  if (!metrics_) return;
  latency_->record_seconds(steady_seconds() - start_);
  if (bytes_counter_ != nullptr) bytes_counter_->add(bytes_);
}

}  // namespace apio::obs
