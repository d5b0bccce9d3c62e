#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <cstring>

#include "stats.h"

namespace perfbench {

using trace::Layer;
using trace::Op;
using trace::Span;

namespace {

const char* const kStageNames[] = {"leaf", "throttled", "resilient", "qos",
                                   "cached"};
const char* const kLedgerRows[] = {"leaf",     "throttled",    "resilient",
                                   "qos",      "cached",       "h5_write",
                                   "native_write", "async_write"};

double median_or_zero(const std::vector<double>& v) {
  return v.empty() ? 0.0 : median(v);
}

bool is_data_op(Op op) {
  return op == Op::kWrite || op == Op::kWriteV || op == Op::kRead ||
         op == Op::kReadV || op == Op::kFlush;
}

std::uint64_t duration_ns(const Span& s) { return s.end_ns - s.start_ns; }

}  // namespace

const std::vector<MetricSpec>& end_to_end_metrics() {
  static const std::vector<MetricSpec> specs = {
      {"setup_s", "s"},
      {"write_ops_per_s", "ops/s"},
      {"write_blocked_p50_us", "us"},
      {"write_blocked_p99_us", "us"},
      {"sync_write_ops_per_s", "ops/s"},
      {"write_GBps", "GB/s"},
      {"step_io_p50_ms", "ms"},
      {"read_GBps", "GB/s"},
      {"peak_rss_mib", "MiB"},
  };
  return specs;
}

const std::vector<MetricSpec>& per_layer_metrics() {
  static const std::vector<MetricSpec> specs = [] {
    std::vector<MetricSpec> v = {
        {"vol.async.submit_allocs", "count"},
        {"vol.async.submit_us_p50", "us"},
        {"vol.async.wait_all_ms", "ms"},
        {"vol.async.prefetch_hit_ratio", "ratio"},
        {"vol.async.staged_hwm_mib", "MiB"},
        {"vol.native.self_us", "us"},
        {"tasking.queue_wait_us_p50", "us"},
        {"tasking.queue_wait_us_p99", "us"},
        {"tasking.bg_busy_frac", "ratio"},
        {"h5.write_self_us", "us"},
        {"h5.storage_calls_per_write", "count"},
        {"h5.extents_per_call", "count"},
        {"h5.objects", "count"},
        {"h5.open_ms", "ms"},
        {"h5.close_ms", "ms"},
    };
    for (const char* stage : kStageNames) {
      v.push_back({std::string("storage.") + stage + ".self_us", "us"});
    }
    for (const char* stage : kStageNames) {
      v.push_back({std::string("storage.") + stage + ".calls", "count"});
    }
    const std::vector<MetricSpec> rest = {
        {"storage.leaf.write_GBps", "GB/s"},
        {"storage.leaf.read_GBps", "GB/s"},
        {"storage.leaf.bytes_per_user_byte", "ratio"},
        {"storage.cached.hit_ratio", "ratio"},
        {"storage.cached.evictions", "count"},
        {"storage.cached.drain_batches", "count"},
        {"sched.admission_wait_us_p50", "us"},
        {"resilience.attempts_per_call", "ratio"},
        {"pmpi.rank_wait_frac", "ratio"},
        {"trace_overhead_pct", "%"},
    };
    v.insert(v.end(), rest.begin(), rest.end());
    for (const char* row : kLedgerRows) {
      v.push_back({std::string("ledger.") + row + ".ns_per_op", "ns"});
      v.push_back({std::string("ledger.") + row + ".allocs_per_op", "count"});
    }
    return v;
  }();
  return specs;
}

std::uint64_t checksum(std::span<const std::byte> data, std::uint64_t seed,
                       std::uint64_t state) {
  constexpr std::uint64_t kPrime = 0x100000001b3ull;
  std::uint64_t h = state == 0 ? (0xcbf29ce484222325ull ^ seed) : state;
  std::size_t i = 0;
  for (; i + 8 <= data.size(); i += 8) {
    std::uint64_t w;
    std::memcpy(&w, data.data() + i, 8);
    h = (h ^ w) * kPrime;
  }
  for (; i < data.size(); ++i) {
    h = (h ^ static_cast<std::uint64_t>(data[i])) * kPrime;
  }
  return h;
}

std::uint64_t Rng::next() {
  std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

std::uint64_t Rng::range(std::uint64_t lo, std::uint64_t hi) {
  return lo + next() % (hi - lo + 1);
}

double Rng::uniform() {
  return static_cast<double>(next() >> 11) * (1.0 / 9007199254740992.0);
}

double peak_rss_mib() {
  struct rusage usage {};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

double seconds_between(std::uint64_t t0_ns, std::uint64_t t1_ns) {
  return static_cast<double>(t1_ns - t0_ns) * 1e-9;
}

IterationLoop::IterationLoop(const Options& options)
    : seconds_(options.seconds),
      min_iterations_(options.trace ? 2 * options.min_iterations
                                    : options.min_iterations),
      traced_(options.trace),
      start_ns_(trace::now_ns()) {}

bool IterationLoop::again(bool samples_missing) const {
  constexpr double kHardCapSeconds = 120.0;
  const double elapsed = seconds_between(start_ns_, trace::now_ns());
  if (iteration_ < min_iterations_) return true;
  if (traced_ && iteration_ % 2 == 1) return true;  // finish the pair
  if (elapsed < seconds_) return true;
  return samples_missing && elapsed < kHardCapSeconds;
}

void analyze_pass(std::vector<Span>& spans, const PassFacts& facts,
                  LayerAccum& a) {
  const std::size_t n = spans.size();
  std::vector<std::uint64_t> covered(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    if (spans[i].parent >= 0) {
      covered[static_cast<std::size_t>(spans[i].parent)] += duration_ns(spans[i]);
    }
  }

  // Connector calls of this pass.
  std::vector<std::size_t> writes;
  std::uint64_t user_ops = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const Span& s = spans[i];
    if (s.tag != facts.tag || trace::is_storage(s.layer)) continue;
    const bool async = s.layer == Layer::kAsyncConnector;
    switch (s.op) {
      case Op::kDatasetWrite:
        ++user_ops;
        if (async) {
          writes.push_back(i);
          a.submit_us.push_back(static_cast<double>(duration_ns(s)) * 1e-3);
          a.submit_allocs += s.allocs;
          ++a.submits;
        }
        break;
      case Op::kDatasetRead:
      case Op::kPrefetch:
        ++user_ops;
        break;
      case Op::kWaitAll:
        if (async) a.wait_all_ms.push_back(static_cast<double>(duration_ns(s)) * 1e-6);
        break;
      default:
        break;
    }
  }
  // FIFO order of the connector's queue, as seen from outside: the
  // order the submitting calls returned in (exact for one submitter).
  std::sort(writes.begin(), writes.end(), [&](std::size_t x, std::size_t y) {
    return spans[x].end_ns < spans[y].end_ns;
  });

  // Outermost storage calls on the background stream during the write
  // phase.
  std::vector<std::size_t> bg_writes;
  std::uint64_t busy_ns = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const Span& s = spans[i];
    if (s.tag != facts.tag || !trace::is_storage(s.layer) || s.app_thread ||
        s.parent >= 0) {
      continue;
    }
    const std::uint64_t lo = std::max(s.start_ns, facts.write_begin_ns);
    const std::uint64_t hi = std::min(s.end_ns, facts.write_end_ns);
    if (hi > lo) busy_ns += hi - lo;
    if (trace::is_data_write(s.op) && s.start_ns >= facts.write_begin_ns &&
        s.start_ns <= facts.write_end_ns) {
      bg_writes.push_back(i);
    }
  }
  std::sort(bg_writes.begin(), bg_writes.end(), [&](std::size_t x, std::size_t y) {
    return spans[x].start_ns < spans[y].start_ns;
  });
  std::size_t k = 0;
  std::uint64_t acc = 0;
  std::uint64_t matched_calls = 0;
  std::uint64_t matched_extents = 0;
  for (std::size_t b : bg_writes) {
    if (k >= writes.size()) break;
    Span& s = spans[b];
    const Span& w = spans[writes[k]];
    s.cause = static_cast<std::int64_t>(writes[k]);
    if (acc == 0) {
      const double wait_ns = s.start_ns > w.end_ns
                                 ? static_cast<double>(s.start_ns - w.end_ns)
                                 : 0.0;
      a.queue_wait_us.push_back(wait_ns * 1e-3);
    }
    acc += s.bytes;
    ++matched_calls;
    matched_extents += s.extents;
    if (acc >= w.bytes) {
      ++k;
      acc = 0;
    }
  }
  if (!writes.empty() && matched_calls > 0) {
    a.storage_calls_per_write.push_back(static_cast<double>(matched_calls) /
                                        static_cast<double>(writes.size()));
    a.extents_per_call.push_back(static_cast<double>(matched_extents) /
                                 static_cast<double>(matched_calls));
  }
  if (facts.write_end_ns > facts.write_begin_ns) {
    a.bg_busy_frac.push_back(
        static_cast<double>(busy_ns) /
        static_cast<double>(facts.write_end_ns - facts.write_begin_ns));
  }

  // Per storage stage: self time, calls, leaf bandwidth.
  std::uint64_t calls[trace::kLayerCount] = {};
  std::uint64_t resilient_units = 0;
  std::uint64_t leaf_w_bytes = 0, leaf_w_ns = 0, leaf_r_bytes = 0, leaf_r_ns = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const Span& s = spans[i];
    if (s.tag != facts.tag || !trace::is_storage(s.layer) || !is_data_op(s.op)) {
      continue;
    }
    const auto li = static_cast<std::size_t>(s.layer);
    a.self_us[li].push_back(
        static_cast<double>(duration_ns(s) - covered[i]) * 1e-3);
    ++calls[li];
    if (s.layer == Layer::kResilient) {
      // ResilientBackend fans a vectored call out per extent by design.
      const bool vectored = s.op == Op::kWriteV || s.op == Op::kReadV;
      resilient_units += vectored ? s.extents : 1;
    }
    if (s.layer == Layer::kLeaf) {
      if (trace::is_data_write(s.op)) {
        leaf_w_bytes += s.bytes;
        leaf_w_ns += duration_ns(s);
      } else if (trace::is_data_read(s.op)) {
        leaf_r_bytes += s.bytes;
        leaf_r_ns += duration_ns(s);
      }
    }
  }
  if (user_ops > 0) {
    for (int l = 0; l < trace::kLayerCount; ++l) {
      if (calls[l] > 0) {
        a.calls_per_op[l].push_back(static_cast<double>(calls[l]) /
                                    static_cast<double>(user_ops));
      }
    }
  }
  const auto below_resilient = calls[static_cast<int>(Layer::kThrottled)] > 0
                                   ? calls[static_cast<int>(Layer::kThrottled)]
                                   : calls[static_cast<int>(Layer::kLeaf)];
  if (resilient_units > 0) {
    a.attempts_per_call.push_back(static_cast<double>(below_resilient) /
                                  static_cast<double>(resilient_units));
  }
  if (leaf_w_ns > 0) {
    a.leaf_write_gbps.push_back(static_cast<double>(leaf_w_bytes) /
                                static_cast<double>(leaf_w_ns));
  }
  if (leaf_r_ns > 0) {
    a.leaf_read_gbps.push_back(static_cast<double>(leaf_r_bytes) /
                               static_cast<double>(leaf_r_ns));
  }
  if (facts.user_bytes_written > 0) {
    a.leaf_bytes_per_user_byte.push_back(
        static_cast<double>(leaf_w_bytes) /
        static_cast<double>(facts.user_bytes_written));
  }
}

void emit_per_layer(const LayerAccum& a, Result& r) {
  auto& m = r.metrics;
  m["vol.async.submit_allocs"] =
      a.submits > 0 ? static_cast<double>(a.submit_allocs) /
                          static_cast<double>(a.submits)
                    : 0.0;
  m["vol.async.submit_us_p50"] = median_or_zero(a.submit_us);
  m["vol.async.wait_all_ms"] = median_or_zero(a.wait_all_ms);
  m["vol.async.prefetch_hit_ratio"] = median_or_zero(a.prefetch_hit_ratio);
  m["vol.async.staged_hwm_mib"] = median_or_zero(a.staged_hwm_mib);
  m["tasking.queue_wait_us_p50"] = median_or_zero(a.queue_wait_us);
  m["tasking.queue_wait_us_p99"] =
      a.queue_wait_us.empty()
          ? 0.0
          : resolved_percentile(a.queue_wait_us, 99.0, "tasking.queue_wait_us");
  m["tasking.bg_busy_frac"] = median_or_zero(a.bg_busy_frac);
  m["h5.storage_calls_per_write"] = median_or_zero(a.storage_calls_per_write);
  m["h5.extents_per_call"] = median_or_zero(a.extents_per_call);
  m["h5.objects"] = median_or_zero(a.objects);
  m["h5.open_ms"] = median_or_zero(a.open_ms);
  m["h5.close_ms"] = median_or_zero(a.close_ms);
  for (int i = 0; i < 5; ++i) {
    const int layer = static_cast<int>(Layer::kLeaf) + i;
    const std::string stage = kStageNames[i];
    m["storage." + stage + ".self_us"] = median_or_zero(a.self_us[layer]);
    m["storage." + stage + ".calls"] = median_or_zero(a.calls_per_op[layer]);
  }
  m["storage.leaf.write_GBps"] = median_or_zero(a.leaf_write_gbps);
  m["storage.leaf.read_GBps"] = median_or_zero(a.leaf_read_gbps);
  m["storage.leaf.bytes_per_user_byte"] =
      median_or_zero(a.leaf_bytes_per_user_byte);
  m["storage.cached.hit_ratio"] = median_or_zero(a.cached_hit_ratio);
  m["storage.cached.evictions"] = median_or_zero(a.cached_evictions);
  m["storage.cached.drain_batches"] = median_or_zero(a.cached_drain_batches);
  m["sched.admission_wait_us_p50"] = median_or_zero(a.admission_wait_us);
  m["resilience.attempts_per_call"] = median_or_zero(a.attempts_per_call);
  m["pmpi.rank_wait_frac"] = median_or_zero(a.rank_wait_frac);
  const double untraced = median_or_zero(a.untraced_wall_s);
  m["trace_overhead_pct"] =
      untraced > 0.0 ? (median_or_zero(a.traced_wall_s) / untraced - 1.0) * 100.0
                     : 0.0;
  for (const char* row : kLedgerRows) {
    for (const char* what : {".ns_per_op", ".allocs_per_op"}) {
      const std::string key = std::string("ledger.") + row + what;
      auto it = a.ledger.find(key);
      m[key] = it == a.ledger.end() ? 0.0 : it->second;
    }
  }
  for (const char* key : {"vol.native.self_us", "h5.write_self_us"}) {
    auto it = a.ledger.find(key);
    m[key] = it == a.ledger.end() ? 0.0 : it->second;
  }

  r.log.push_back(describe("vol.async.submit_us", "us", a.submit_us));
  r.log.push_back(describe("tasking.queue_wait_us", "us", a.queue_wait_us));
  r.log.push_back(describe("vol.async.wait_all_ms", "ms", a.wait_all_ms));
  r.log.push_back(describe("sched.admission_wait_us", "us", a.admission_wait_us));
  r.log.push_back("traced iterations: " + std::to_string(a.traced_wall_s.size()) +
                  ", untraced iterations: " +
                  std::to_string(a.untraced_wall_s.size()));
}

}  // namespace perfbench
