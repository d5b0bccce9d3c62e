// many-steps-cached: the paper's VPIC-IO write kernel on one pmpi rank
// over an AsyncConnector, writing 16 KiB slabs per property over 200
// steps, so 1800 groups and datasets build up in one container.  BD-CATS-IO then reads every step back with prefetch and
// verify_data on, and the same write stream runs through
// NativeConnector on a fresh, identical stack.  The stack is
// memory < throttled(time_scale 0) < qos < cached(after-epoch, capacity
// well below the bytes written).  Costs that scale with the object
// count (File::path_of, metadata serialise/deserialise, per-step
// barriers) and the cache tier's bookkeeping dominate, not bandwidth.
#include <cstdio>
#include <functional>

#include "h5/file.h"
#include "interposers.h"
#include "pmpi/world.h"
#include "stats.h"
#include "storage/memory_backend.h"
#include "vol/async_connector.h"
#include "vol/native_connector.h"
#include "workloads.h"
#include "workloads/bdcats_io.h"
#include "workloads/vpic_io.h"

namespace perfbench {

using apio::h5::File;
using apio::h5::FilePtr;
using apio::storage::BackendPtr;
using apio::workloads::kVpicProperties;
using trace::Layer;
using trace::now_ns;

namespace {

struct VpicConfig {
  std::string name;
  int ranks = 1;
  std::uint64_t particles_per_rank = 0;
  int steps = 0;
  StackSpec spec;

  std::uint64_t bytes_per_pass() const {
    return particles_per_rank * static_cast<std::uint64_t>(ranks) *
           kVpicProperties.size() * sizeof(float) *
           static_cast<std::uint64_t>(steps);
  }
  std::uint64_t writes_per_pass() const {
    return static_cast<std::uint64_t>(ranks) * kVpicProperties.size() *
           static_cast<std::uint64_t>(steps);
  }
};

VpicConfig many_steps_config(const Options& o) {
  VpicConfig c;
  c.name = "many-steps-cached";
  // One rank: with a barrier group per step, every rank waits for any
  // rank whose vCPU the host deschedules, and on a shared 4-vCPU host
  // three ranks spread 30-80 % run to run where one rank stays under
  // 16 %.  The object-count costs this workload is for do not depend
  // on the rank count.
  c.ranks = 1;
  c.particles_per_rank = o.tiny ? 256 : 4096;  // 16 KiB per property
  c.steps = o.tiny ? 12 : 200;
  c.spec.throttled = true;
  c.spec.qos = true;
  c.spec.cached = true;
  c.spec.cache.consistency = apio::storage::CacheConsistency::kAfterEpoch;
  c.spec.cache.block_bytes = o.tiny ? 4096 : 64 * 1024;
  c.spec.cache.capacity_bytes = c.bytes_per_pass() / 8;
  return c;
}

/// Checksum of the container a correct run produces: every step's
/// datasets hold the VPIC generator's values.
std::uint64_t expected_container_checksum(const VpicConfig& c, std::uint64_t seed) {
  const std::uint64_t total =
      c.particles_per_rank * static_cast<std::uint64_t>(c.ranks);
  std::vector<float> values(total);
  std::uint64_t h = 0;
  for (int step = 0; step < c.steps; ++step) {
    for (int p = 0; p < static_cast<int>(kVpicProperties.size()); ++p) {
      for (std::uint64_t i = 0; i < total; ++i) {
        values[i] = apio::workloads::particle_value(i, p);
      }
      h = checksum(std::as_bytes(std::span<const float>(values)), seed, h);
    }
  }
  return h;
}

/// Reopens the container on `leaf` and checksums every dataset of
/// every step; counts groups + datasets into `objects`.
std::uint64_t container_checksum(const BackendPtr& leaf, const VpicConfig& c,
                                 std::uint64_t seed, std::uint64_t& objects) {
  auto file = File::open(leaf);
  auto root = file->root();
  objects = root.group_names().size();
  std::vector<std::byte> buf;
  std::uint64_t h = 0;
  for (int step = 0; step < c.steps; ++step) {
    auto group = root.open_group(apio::workloads::VpicIoKernel::step_group(step));
    objects += group.dataset_names().size();
    for (const char* prop : kVpicProperties) {
      auto ds = group.open_dataset(prop);
      buf.resize(ds.byte_size());
      ds.read_raw(apio::h5::Selection::all(), buf);
      h = checksum(buf, seed, h);
    }
  }
  return h;
}

/// Runs `body` on rank 0 only; an exception is kept for the caller
/// instead of leaving the other ranks waiting in a barrier.
struct RankZero {
  std::exception_ptr error;
  void run(apio::pmpi::Communicator& comm, const std::function<void()>& body) {
    if (comm.rank() != 0 || error) return;
    try {
      body();
    } catch (...) {
      error = std::current_exception();
    }
  }
  void rethrow() const {
    if (error) std::rethrow_exception(error);
  }
};

Result run_vpic(const Options& o, const VpicConfig& c) {
  Result r;
  LayerAccum acc;
  std::vector<trace::Span> last_spans;
  std::vector<double> setup_s, ops_per_s, sync_ops_per_s, write_gbps, read_gbps,
      blocked_us, step_ms;
  const std::uint64_t expected = expected_container_checksum(c, o.seed);
  const std::uint64_t expected_objects =
      static_cast<std::uint64_t>(c.steps) * (1 + kVpicProperties.size());


  apio::workloads::VpicParams vp;
  vp.particles_per_rank = c.particles_per_rank;
  vp.time_steps = c.steps;
  apio::workloads::BdCatsParams bp;
  bp.particles_per_rank = c.particles_per_rank;
  bp.time_steps = c.steps;
  bp.prefetch = true;
  bp.verify_data = true;
  const double writes = static_cast<double>(c.writes_per_pass());
  const double bytes = static_cast<double>(c.bytes_per_pass());

  IterationLoop loop(o);
  auto samples_missing = [&] {
    return o.trace ? acc.queue_wait_us.size() < 1000 : blocked_us.size() < 1000;
  };
  while (loop.again(samples_missing())) {
    const bool traced = loop.traced_iteration();
    trace::clear();
    trace::set_enabled(traced);

    // Timestamps and set-up time outlive the async pass; its stacks,
    // connectors and containers are released before the native pass.
    double setup = 0.0;
    std::uint64_t w0 = 0, w2 = 0, r0 = 0, r1 = 0;
    {
      // ---- async pass: VPIC write, then BD-CATS read of every step
      const std::uint64_t s0 = now_ns();
      BackendPtr leaf = std::make_shared<apio::storage::MemoryBackend>();
      BuiltStack stack = build_stack(leaf, c.spec, traced, kAsyncTag);
      auto async = std::make_shared<apio::vol::AsyncConnector>(File::create(stack.top));
      TracingConnector conn(async, Layer::kAsyncConnector, kAsyncTag);
      setup = seconds_between(s0, now_ns());

      std::shared_ptr<apio::vol::AsyncConnector> reader_async;
      std::unique_ptr<TracingConnector> reader;
      apio::workloads::VpicRunResult wres;
      apio::workloads::BdCatsRunResult rres;
      std::uint64_t w1 = 0;
      double open_ms = 0.0;
      RankZero zero;
      const std::uint64_t spawn0 = now_ns();
      apio::pmpi::run(c.ranks, [&](apio::pmpi::Communicator& comm) {
        trace::mark_app_thread();
        comm.barrier();
        zero.run(comm, [&] {
          setup += seconds_between(spawn0, now_ns());
          w0 = now_ns();
        });
        comm.barrier();
        auto res = apio::workloads::VpicIoKernel(vp).run(conn, comm);
        zero.run(comm, [&] {
          w1 = now_ns();
          wres = res;
          conn.close();
          w2 = now_ns();
          // Reopen for the read phase on the same stack.
          const std::uint64_t t = now_ns();
          BackendPtr read_top = stack.top;
          std::shared_ptr<CorruptingBackend> corrupter;
          if (o.corrupt_readback) {
            read_top = corrupter = std::make_shared<CorruptingBackend>(read_top);
          }
          FilePtr file = File::open(read_top);
          open_ms = seconds_between(t, now_ns()) * 1e3;
          if (corrupter) corrupter->arm();
          reader_async = std::make_shared<apio::vol::AsyncConnector>(file);
          reader = std::make_unique<TracingConnector>(reader_async,
                                                      Layer::kAsyncConnector,
                                                      kAsyncTag);
          setup += seconds_between(t, now_ns());
        });
        comm.barrier();
        if (zero.error) return;
        zero.run(comm, [&] { r0 = now_ns(); });
        auto rr = apio::workloads::BdCatsIoKernel(bp).run(*reader, comm);
        zero.run(comm, [&] {
          r1 = now_ns();
          rres = rr;
          reader->close();
        });
      });
      zero.rethrow();
      r.attempted += conn.issued() + reader->issued();
      r.failed += conn.failed() + reader->failed() + rres.verification_failures;
      if (rres.verification_failures > 0) {
        r.log.push_back(c.name + ": BD-CATS verification found " +
                        std::to_string(rres.verification_failures) +
                        " mismatching values");
      }
      r.leaf_stats = leaf->stats();
      std::uint64_t objects = 0;
      r.checksum = container_checksum(leaf, c, o.seed, objects);
      if (r.checksum != expected || objects != expected_objects) {
        ++r.failed;
        r.log.push_back(c.name + ": async container checksum/object count mismatch");
      }
      if (r.failed > 0) break;

      if (!traced) {
        ops_per_s.push_back(writes / seconds_between(w0, w1));
        write_gbps.push_back(bytes / seconds_between(w0, w2) * 1e-9);
        read_gbps.push_back(bytes / seconds_between(r0, r1) * 1e-9);
        for (const WriteSample& w : conn.write_samples()) {
          blocked_us.push_back(static_cast<double>(w.end_ns - w.start_ns) * 1e-3);
        }
        for (double t : wres.step_io_seconds) step_ms.push_back(t * 1e3);
      } else {
        trace::set_enabled(false);
        auto spans = trace::snapshot();
        PassFacts facts;
        facts.tag = kAsyncTag;
        facts.write_begin_ns = w0;
        facts.write_end_ns = w2;
        facts.user_bytes_written = c.bytes_per_pass();
        analyze_pass(spans, facts, acc);
        last_spans = std::move(spans);
        const auto ws = async->stats();
        acc.staged_hwm_mib.push_back(static_cast<double>(ws.staged_high_watermark) /
                                     (1 << 20));
        const auto rs = reader_async->stats();
        if (rs.cache_hits + rs.cache_misses > 0) {
          acc.prefetch_hit_ratio.push_back(
              static_cast<double>(rs.cache_hits) /
              static_cast<double>(rs.cache_hits + rs.cache_misses));
        }
        acc.open_ms.push_back(open_ms);
        acc.close_ms.push_back(conn.close_seconds() * 1e3);
        acc.objects.push_back(static_cast<double>(objects));
        if (stack.cache) {
          const auto cs = stack.cache->cache_snapshot();
          if (cs.hits + cs.misses > 0) {
            acc.cached_hit_ratio.push_back(static_cast<double>(cs.hits) /
                                           static_cast<double>(cs.hits + cs.misses));
          }
          acc.cached_evictions.push_back(static_cast<double>(cs.evictions));
          acc.cached_drain_batches.push_back(static_cast<double>(cs.flushes));
        }
        if (stack.scheduler) {
          std::vector<double> waits;
          for (const auto& [name, tenant] : stack.scheduler->stats().tenants) {
            for (const auto& lane : tenant.wait_samples) {
              for (double w : lane) waits.push_back(w * 1e6);
            }
          }
          if (!waits.empty()) acc.admission_wait_us.push_back(median(waits));
        }
        // Per step and rank: the share of the slowest rank's phase time
        // this rank spent outside dataset_write (waiting on the others).
        std::vector<std::vector<double>> per_rank(static_cast<std::size_t>(c.ranks));
        std::vector<WriteSample> samples = conn.write_samples();
        std::sort(samples.begin(), samples.end(),
                  [](const WriteSample& a, const WriteSample& b) {
                    return a.start_ns < b.start_ns;
                  });
        for (const WriteSample& w : samples) {
          if (w.rank >= 0 && w.rank < c.ranks) {
            per_rank[static_cast<std::size_t>(w.rank)].push_back(
                seconds_between(w.start_ns, w.end_ns));
          }
        }
        const std::size_t props = kVpicProperties.size();
        for (std::size_t step = 0; step < wres.step_io_seconds.size(); ++step) {
          const double phase = wres.step_io_seconds[step];
          if (phase <= 0.0) continue;
          double frac = 0.0;
          for (const auto& times : per_rank) {
            double in_connector = 0.0;
            for (std::size_t p = 0; p < props && step * props + p < times.size(); ++p) {
              in_connector += times[step * props + p];
            }
            frac += (phase - in_connector) / phase;
          }
          acc.rank_wait_frac.push_back(frac / static_cast<double>(c.ranks));
        }
        trace::set_enabled(true);
      }
    }

    // ---- native pass: the same VPIC write stream, fresh identical stack
    const std::uint64_t s1 = now_ns();
    BackendPtr leaf2 = std::make_shared<apio::storage::MemoryBackend>();
    BuiltStack stack2 = build_stack(leaf2, c.spec, traced, kNativeTag);
    TracingConnector native(
        std::make_shared<apio::vol::NativeConnector>(File::create(stack2.top)),
        Layer::kNativeConnector, kNativeTag);
    setup += seconds_between(s1, now_ns());
    std::uint64_t n0 = 0, n1 = 0;
    RankZero zero2;
    const std::uint64_t spawn1 = now_ns();
    apio::pmpi::run(c.ranks, [&](apio::pmpi::Communicator& comm) {
      trace::mark_app_thread();
      comm.barrier();
      zero2.run(comm, [&] {
        setup += seconds_between(spawn1, now_ns());
        n0 = now_ns();
      });
      comm.barrier();
      apio::workloads::VpicIoKernel(vp).run(native, comm);
      zero2.run(comm, [&] {
        n1 = now_ns();
        native.close();
      });
    });
    trace::set_enabled(false);
    zero2.rethrow();
    r.attempted += native.issued();
    r.failed += native.failed();
    std::uint64_t native_objects = 0;
    if (container_checksum(leaf2, c, o.seed, native_objects) != expected ||
        native_objects != expected_objects) {
      ++r.failed;
      r.log.push_back(c.name + ": native container checksum/object count mismatch");
      break;
    }
    if (!traced) {
      sync_ops_per_s.push_back(writes / seconds_between(n0, n1));
      setup_s.push_back(setup);
    }
    if (o.trace) {
      const double wall = seconds_between(w0, w2) + seconds_between(r0, r1) +
                          seconds_between(n0, n1);
      (traced ? acc.traced_wall_s : acc.untraced_wall_s).push_back(wall);
    }
    loop.advance();
  }
  trace::set_enabled(false);
  trace::clear();
  if (r.failed > 0) r.correct = false;
  if (!r.correct) return r;

  r.log.push_back(c.name + ": " + "ranks=" + std::to_string(c.ranks) + ", " +
                  std::to_string(c.steps) + " steps, " +
                  std::to_string(c.writes_per_pass()) + " writes and " +
                  std::to_string(c.bytes_per_pass() >> 20) + " MiB per pass, " +
                  std::to_string(loop.iteration()) + " iterations");
  if (o.trace) {
    trace::write_csv(o.work_dir + "/spans-" + c.name + ".csv", last_spans);
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

}  // namespace

Result run_many_steps_cached(const Options& o) {
  return run_vpic(o, many_steps_config(o));
}

}  // namespace perfbench
