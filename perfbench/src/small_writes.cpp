// small-writes: one application thread, closed loop, seeded small
// writes at non-overlapping offsets of one 1-D dataset, in epochs that
// end in wait_all().  The stream runs through AsyncConnector over
// memory < throttled(time_scale 0) < resilient < qos, then through
// NativeConnector over a fresh, identical stack.  Fixed per-op cost
// dominates: submit, FIFO hand-off and each decorator.
#include <cstring>

#include "h5/file.h"
#include "interposers.h"
#include "stats.h"
#include "storage/memory_backend.h"
#include "vol/async_connector.h"
#include "vol/native_connector.h"
#include "workloads.h"

namespace perfbench {

using apio::h5::Dataset;
using apio::h5::File;
using apio::h5::Selection;
using apio::storage::BackendPtr;
using apio::storage::MemoryBackend;
using trace::Layer;
using trace::now_ns;

namespace {

struct OpStream {
  int epochs = 0;
  int per_epoch = 0;
  std::vector<std::uint64_t> offset;  ///< submission order
  std::vector<std::uint64_t> length;
  std::vector<std::byte> payload;     ///< expected dataset contents
  std::uint64_t total = 0;

  std::size_t ops() const { return offset.size(); }
};

/// Mostly 4 KiB, 30% spread over 256 B - 16 KiB; the non-overlapping
/// slots are visited in a seeded random order.
OpStream make_stream(const Options& o) {
  Rng rng(o.seed);
  OpStream s;
  s.epochs = o.tiny ? 2 : 10;
  s.per_epoch = o.tiny ? 50 : 1000;
  const std::size_t n = static_cast<std::size_t>(s.epochs * s.per_epoch);
  std::vector<std::uint64_t> slot_off(n), slot_len(n);
  for (std::size_t i = 0; i < n; ++i) {
    slot_len[i] = rng.uniform() < 0.7 ? 4096 : rng.range(256, 16384);
    slot_off[i] = s.total;
    s.total += slot_len[i];
  }
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;
  for (std::size_t i = n - 1; i > 0; --i) {
    std::swap(order[i], order[rng.range(0, i)]);
  }
  for (std::size_t i : order) {
    s.offset.push_back(slot_off[i]);
    s.length.push_back(slot_len[i]);
  }
  s.payload.resize(s.total);
  for (std::uint64_t i = 0; i < s.total; i += 8) {
    const std::uint64_t w = rng.next();
    std::memcpy(s.payload.data() + i, &w, std::min<std::uint64_t>(8, s.total - i));
  }
  return s;
}

StackSpec small_stack() {
  StackSpec spec;
  spec.throttled = true;
  spec.resilient = true;
  spec.qos = true;
  return spec;
}

std::span<const std::byte> op_data(const OpStream& s, std::size_t i) {
  return {s.payload.data() + s.offset[i], s.length[i]};
}

Selection op_selection(const OpStream& s, std::size_t i) {
  return Selection::offsets({s.offset[i]}, {s.length[i]});
}

struct ReadBack {
  std::uint64_t checksum = 0;
  bool ok = false;
  double open_ms = 0.0;
  /// File::open plus the dataset read; the comparison is not timed.
  double read_seconds = 0.0;
};

/// Reopens the container on `leaf`, reads the dataset back and compares
/// every byte with the expected payload (byte for byte and by seeded
/// checksum).  With `corrupt`, one read-back byte is flipped.
ReadBack read_back(const BackendPtr& leaf, const OpStream& s,
                   std::uint64_t seed, std::uint64_t expected_sum, bool corrupt,
                   std::vector<std::byte>& back) {
  BackendPtr reader = leaf;
  std::shared_ptr<CorruptingBackend> corrupter;
  if (corrupt) reader = corrupter = std::make_shared<CorruptingBackend>(leaf);
  ReadBack rb;
  const std::uint64_t t0 = now_ns();
  auto file = File::open(reader);
  rb.open_ms = seconds_between(t0, now_ns()) * 1e3;
  if (corrupter) corrupter->arm();
  back.resize(s.total);
  file->root().open_dataset("data").read_raw(Selection::all(), back);
  rb.read_seconds = seconds_between(t0, now_ns());
  rb.checksum = checksum(back, seed);
  rb.ok = rb.checksum == expected_sum &&
          std::memcmp(back.data(), s.payload.data(), s.total) == 0;
  return rb;
}

}  // namespace

Result run_small_writes(const Options& o) {
  const OpStream stream = make_stream(o);
  const std::size_t n = stream.ops();
  const std::uint64_t expected_sum = checksum(stream.payload, o.seed);
  std::vector<std::byte> back(stream.total);  // read-back buffer, reused
  Result r;
  LayerAccum acc;
  std::vector<trace::Span> last_spans;
  std::vector<double> setup_s, ops_per_s, sync_ops_per_s, write_gbps,
      read_gbps, blocked_us, step_ms;

  IterationLoop loop(o);
  auto samples_missing = [&] {
    return o.trace ? acc.queue_wait_us.size() < 1000 : blocked_us.size() < 1000;
  };
  while (loop.again(samples_missing())) {
    const bool traced = loop.traced_iteration();
    trace::clear();
    trace::set_enabled(traced);

    // Set-up time and the async write wall outlive the async pass; its
    // stack and container are released before the native pass.
    double setup = 0.0;
    double async_wall = 0.0;
    {
      // ---- async pass
      const std::uint64_t s0 = now_ns();
      auto leaf = std::make_shared<MemoryBackend>();
      BuiltStack stack = build_stack(leaf, small_stack(), traced, kAsyncTag);
      auto file = File::create(stack.top);
      Dataset ds = file->root().create_dataset("data", apio::h5::Datatype::kUInt8,
                                               apio::h5::Dims{stream.total});
      auto async = std::make_shared<apio::vol::AsyncConnector>(file);
      TracingConnector conn(async, Layer::kAsyncConnector, kAsyncTag);
      setup = seconds_between(s0, now_ns());

      const std::uint64_t w0 = now_ns();
      std::size_t i = 0;
      for (int e = 0; e < stream.epochs; ++e) {
        const std::uint64_t e0 = now_ns();
        for (int j = 0; j < stream.per_epoch; ++j, ++i) {
          conn.dataset_write(ds, op_selection(stream, i), op_data(stream, i));
        }
        if (!traced) step_ms.push_back(seconds_between(e0, now_ns()) * 1e3);
        conn.wait_all();
      }
      const std::uint64_t w1 = now_ns();
      conn.close();
      const std::uint64_t w2 = now_ns();
      async_wall = seconds_between(w0, w1);
      r.attempted += conn.issued();
      r.failed += conn.failed();
      if (!traced) {
        ops_per_s.push_back(static_cast<double>(n) / async_wall);
        write_gbps.push_back(static_cast<double>(stream.total) /
                             seconds_between(w0, w2) * 1e-9);
        for (const WriteSample& w : conn.write_samples()) {
          blocked_us.push_back(static_cast<double>(w.end_ns - w.start_ns) * 1e-3);
        }
      }

      r.leaf_stats = leaf->stats();
      const ReadBack rb = read_back(leaf, stream, o.seed, expected_sum,
                                    o.corrupt_readback, back);
      r.checksum = rb.checksum;
      if (!traced) {
        read_gbps.push_back(static_cast<double>(stream.total) / rb.read_seconds *
                            1e-9);
      }
      if (!rb.ok) {
        ++r.failed;
        r.correct = false;
        r.log.push_back("small-writes: async container read-back mismatch");
        break;
      }

      if (traced) {
        trace::set_enabled(false);
        auto spans = trace::snapshot();
        PassFacts facts;
        facts.tag = kAsyncTag;
        facts.write_begin_ns = w0;
        facts.write_end_ns = w2;
        facts.user_bytes_written = stream.total;
        analyze_pass(spans, facts, acc);
        const auto st = async->stats();
        acc.staged_hwm_mib.push_back(static_cast<double>(st.staged_high_watermark) /
                                     (1 << 20));
        acc.prefetch_hit_ratio.push_back(0.0);
        acc.open_ms.push_back(rb.open_ms);
        acc.close_ms.push_back(conn.close_seconds() * 1e3);
        acc.objects.push_back(1.0);
        std::vector<double> waits;
        for (const auto& [name, tenant] : stack.scheduler->stats().tenants) {
          for (const auto& lane : tenant.wait_samples) {
            for (double w : lane) waits.push_back(w * 1e6);
          }
        }
        if (!waits.empty()) acc.admission_wait_us.push_back(median(waits));
        last_spans = std::move(spans);
        trace::clear();
        trace::set_enabled(true);
      }
    }

    // ---- native pass: the same op stream, fresh identical stack
    const std::uint64_t s1 = now_ns();
    auto leaf2 = std::make_shared<MemoryBackend>();
    BuiltStack stack2 = build_stack(leaf2, small_stack(), traced, kNativeTag);
    auto file2 = File::create(stack2.top);
    Dataset ds2 = file2->root().create_dataset(
        "data", apio::h5::Datatype::kUInt8, apio::h5::Dims{stream.total});
    TracingConnector native(std::make_shared<apio::vol::NativeConnector>(file2),
                            Layer::kNativeConnector, kNativeTag);
    setup += seconds_between(s1, now_ns());

    const std::uint64_t n0 = now_ns();
    for (std::size_t k = 0; k < n; ++k) {
      native.dataset_write(ds2, op_selection(stream, k), op_data(stream, k));
    }
    const std::uint64_t n1 = now_ns();
    native.close();
    trace::set_enabled(false);
    r.attempted += native.issued();
    r.failed += native.failed();
    if (!traced) {
      sync_ops_per_s.push_back(static_cast<double>(n) / seconds_between(n0, n1));
      setup_s.push_back(setup);
    }
    if (!read_back(leaf2, stream, o.seed, expected_sum, false, back).ok) {
      ++r.failed;
      r.correct = false;
      r.log.push_back("small-writes: native container read-back mismatch");
      break;
    }
    if (o.trace) {
      const double wall = async_wall + seconds_between(n0, n1);
      (traced ? acc.traced_wall_s : acc.untraced_wall_s).push_back(wall);
    }
    loop.advance();
  }
  trace::set_enabled(false);
  trace::clear();
  if (r.failed > 0) r.correct = false;
  if (!r.correct) return r;

  r.log.push_back("small-writes: " + std::to_string(n) + " writes per pass (" +
                  std::to_string(stream.epochs) + " epochs of " +
                  std::to_string(stream.per_epoch) + "), " +
                  std::to_string(stream.total) + " B, " +
                  std::to_string(loop.iteration()) + " iterations");
  if (o.trace) {
    trace::write_csv(o.work_dir + "/spans-small-writes.csv", last_spans);
    run_ledger(o, acc, r);
    emit_per_layer(acc, r);
    return r;
  }
  r.log.push_back(describe("write_blocked_us", "us", blocked_us));
  r.log.push_back(describe("step_io_ms", "ms", step_ms));
  auto& m = r.metrics;
  m["setup_s"] = median(setup_s);
  m["write_ops_per_s"] = median(ops_per_s);
  m["write_blocked_p50_us"] = median(blocked_us);
  m["write_blocked_p99_us"] =
      resolved_percentile(blocked_us, 99.0, "write_blocked_us");
  m["sync_write_ops_per_s"] = median(sync_ops_per_s);
  m["write_GBps"] = median(write_gbps);
  m["step_io_p50_ms"] = median(step_ms);
  m["read_GBps"] = median(read_gbps);
  m["peak_rss_mib"] = peak_rss_mib();
  return r;
}

}  // namespace perfbench
