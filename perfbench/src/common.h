// Shared pieces of the benchmark: options, the result every workload
// returns, the metric catalogue, checksums, the iteration loop and the
// per-layer analysis of a traced pass.
#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "span_trace.h"
#include "storage/backend.h"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  /// Measurement time; the loop also runs until every percentile it
  /// reports has enough samples.
  double seconds = 10.0;
  /// Traced run: alternate untraced and traced iterations and report
  /// the per-layer metrics (plus the tracing overhead) instead of the
  /// end-to-end ones.
  bool trace = false;
  /// Self-test hook: flip one byte of the read-back data.
  bool corrupt_readback = false;
  /// Self-test sizes: a few operations per pass instead of the
  /// standard workload.
  bool tiny = false;
  /// Directory for the span dump.
  std::string work_dir = ".bench_build";
  int min_iterations = 3;
};

struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, double> metrics;
  /// Human-readable lines printed ahead of the JSON result.
  std::vector<std::string> log;
  /// Leaf-level stats and container checksum of the last async pass
  /// (the self-test compares traced and untraced runs on them).
  apio::storage::BackendStats leaf_stats;
  std::uint64_t checksum = 0;
};

struct MetricSpec {
  std::string name;
  std::string unit;
};

/// End-to-end metrics (printed by the untraced run) and per-layer
/// metrics (printed by the traced run), in output order.
const std::vector<MetricSpec>& end_to_end_metrics();
const std::vector<MetricSpec>& per_layer_metrics();

/// Seeded 64-bit checksum over `data` (word-wise FNV-1a style mix).
std::uint64_t checksum(std::span<const std::byte> data, std::uint64_t seed,
                       std::uint64_t state = 0);

/// Deterministic generator for workload inputs (splitmix64).
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();
  /// Uniform in [lo, hi].
  std::uint64_t range(std::uint64_t lo, std::uint64_t hi);
  double uniform();

 private:
  std::uint64_t state_;
};

/// ru_maxrss of this process, in MiB.
double peak_rss_mib();

double seconds_between(std::uint64_t t0_ns, std::uint64_t t1_ns);

/// Decides whether the workload runs another iteration: at least
/// `min_iterations`, at least `seconds` of measurement, and more while
/// a percentile still lacks samples (up to a hard cap).
class IterationLoop {
 public:
  explicit IterationLoop(const Options& options);
  bool again(bool samples_missing) const;
  int iteration() const { return iteration_; }
  void advance() { ++iteration_; }
  /// Traced runs alternate untraced (even) and traced (odd) iterations.
  bool traced_iteration() const { return traced_ && iteration_ % 2 == 1; }

 private:
  double seconds_;
  int min_iterations_;
  bool traced_;
  std::uint64_t start_ns_;
  int iteration_ = 0;
};

/// Facts about one traced pass the span stream cannot tell by itself.
struct PassFacts {
  std::uint8_t tag = 0;
  /// Write phase: first submit to the connector's close() return.
  std::uint64_t write_begin_ns = 0;
  std::uint64_t write_end_ns = 0;
  std::uint64_t user_bytes_written = 0;
};

/// Per-layer samples collected over a run's traced iterations.
struct LayerAccum {
  std::vector<double> submit_us;
  std::uint64_t submit_allocs = 0;
  std::uint64_t submits = 0;
  std::vector<double> wait_all_ms;
  std::vector<double> prefetch_hit_ratio;
  std::vector<double> staged_hwm_mib;
  std::vector<double> queue_wait_us;
  std::vector<double> bg_busy_frac;
  std::vector<double> storage_calls_per_write;
  std::vector<double> extents_per_call;
  std::vector<double> objects;
  std::vector<double> open_ms;
  std::vector<double> close_ms;
  std::vector<double> self_us[trace::kLayerCount];
  std::vector<double> calls_per_op[trace::kLayerCount];
  std::vector<double> leaf_write_gbps;
  std::vector<double> leaf_read_gbps;
  std::vector<double> leaf_bytes_per_user_byte;
  std::vector<double> cached_hit_ratio;
  std::vector<double> cached_evictions;
  std::vector<double> cached_drain_batches;
  std::vector<double> admission_wait_us;
  std::vector<double> attempts_per_call;
  std::vector<double> rank_wait_frac;
  std::vector<double> untraced_wall_s;
  std::vector<double> traced_wall_s;
  /// Layer-cost ledger values (small-writes only), by metric name.
  std::map<std::string, double> ledger;
};

/// Attributes one traced pass: self times, calls per user op, FIFO
/// matching of background-stream storage calls to the connector writes
/// that caused them (filling Span::cause), queue waits and background
/// busy share.  `spans` is the snapshot of the pass's iteration.
void analyze_pass(std::vector<trace::Span>& spans, const PassFacts& facts,
                  LayerAccum& accum);

/// Fills result.metrics with every per-layer metric (0 for a layer the
/// workload does not exercise) and logs the sample counts.
void emit_per_layer(const LayerAccum& accum, Result& result);

}  // namespace perfbench
