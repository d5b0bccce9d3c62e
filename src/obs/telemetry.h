// Live telemetry export: a background thread that periodically
// serializes the metrics registry plus trace-collector watermarks to
// Prometheus text format, and completed traces to JSONL.  Completed
// traces also render as Chrome trace_event JSON (a view, no buffer of
// its own).
//
// Lifecycle: construct with options, start(), do work, stop().  stop()
// performs one final flush so short runs still export; the destructor
// stops too, so scope-bound usage is safe.  The exporter reads the
// completed-trace ring non-destructively (completed_since cursor) — a
// final TraceCollector::drain() for end-of-run analysis still sees
// every trace that fit in the ring.
//
// Memory stays bounded by construction: the registry is fixed-size, the
// trace ring has a capacity, and the exporter holds only a cursor.
#pragma once

#include <condition_variable>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace_context.h"

namespace apio::obs::trace {

struct TelemetryOptions {
  /// Seconds between flushes.
  double interval_seconds = 1.0;
  /// Prometheus text-format snapshot path (rewritten atomically-ish by
  /// truncate each flush); empty = no Prometheus export.
  std::string prom_path;
  /// JSONL stream path (appended: one line per newly completed trace,
  /// plus one watermark line per flush); empty = no JSONL export.
  std::string jsonl_path;
};

/// Renders a registry snapshot + trace watermark as Prometheus text
/// format (metric names get an `apio_` prefix, dots become
/// underscores; histograms export as summaries with p50/p95/p99
/// quantile lines).  Exposed for tests and one-shot tool export.
std::string to_prometheus(const RegistrySnapshot& snapshot,
                          const TraceCollector::Watermark& watermark);

/// One completed trace as a single JSON line (no trailing newline).
std::string trace_to_json(const CompletedTrace& trace);

/// Builds a Chrome trace_event document
/// {"displayTimeUnit":"ms","traceEvents":[...]} (load it in
/// chrome://tracing or Perfetto).  Shared by every Chrome export so the
/// framing and the event shape exist once.
class ChromeTraceWriter {
 public:
  /// One complete ("X") event on lane `tid`; times in seconds, written
  /// as microseconds.  `args` is the rendered body of the args object.
  void complete(const std::string& name, const std::string& cat, int tid,
                double start_seconds, double duration_seconds,
                const std::string& args);
  /// One pre-rendered event object (e.g. "M" thread-name metadata).
  void event(const std::string& json);
  [[nodiscard]] std::string str() const;

 private:
  std::string events_;
};

/// Chrome lane of spans recorded off the rank threads (rank -1).
inline constexpr int kBackgroundLane = 2000;

/// Completed traces as Chrome trace_event JSON: one X event per request
/// root (named by its op) and one per phase span (name and cat are the
/// phase name); args carry trace_id, bytes and detail (tenant on the
/// root).  Timestamps rebase to the earliest start.  Spans recorded on
/// a rank thread land on lane 1000+rank, the others on kBackgroundLane;
/// a root takes its first ranked span's lane.
std::string traces_to_chrome_json(const std::vector<CompletedTrace>& traces);

class TelemetryExporter {
 public:
  explicit TelemetryExporter(TelemetryOptions options);
  ~TelemetryExporter();

  TelemetryExporter(const TelemetryExporter&) = delete;
  TelemetryExporter& operator=(const TelemetryExporter&) = delete;

  /// Launches the background flusher; idempotent.
  void start();

  /// Stops the flusher after one final flush; idempotent.
  void stop();

  /// Performs one synchronous flush on the calling thread (also used by
  /// tools that want a final snapshot without the thread).
  void flush();

  /// Flushes performed so far (including the final one).
  [[nodiscard]] std::uint64_t flush_count() const;

 private:
  void run();

  TelemetryOptions options_;
  mutable std::mutex mutex_;
  std::condition_variable cv_;
  bool stopping_ = false;
  bool running_ = false;
  std::uint64_t trace_cursor_ = 0;
  std::uint64_t flush_count_ = 0;
  std::thread thread_;
};

}  // namespace apio::obs::trace
