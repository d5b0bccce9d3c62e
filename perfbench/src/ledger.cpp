// Layer-cost ledger: the same 4 KiB write stream through every layer
// boundary, as ns/op and heap allocations/op on the calling thread.
// Rows are cumulative BackendStack prefixes over a memory leaf, then
// h5::Dataset::write_raw, NativeConnector and AsyncConnector over the
// leaf < throttled < resilient < qos stack.  Each row is the minimum
// over a few repetitions on fresh state.
#include <algorithm>
#include <cstdio>

#include "alloc_count.h"
#include "h5/file.h"
#include "interposers.h"
#include "storage/memory_backend.h"
#include "vol/async_connector.h"
#include "vol/native_connector.h"
#include "workloads.h"

namespace perfbench {

using apio::h5::Selection;
using apio::storage::BackendPtr;
using trace::now_ns;

namespace {

constexpr std::uint64_t kOpBytes = 4096;

struct Row {
  std::string key;
  double ns = 1e300;
  double allocs = 1e300;
};

/// `make()` builds fresh state and returns the per-op callable.
template <typename Make>
void measure(Row& row, int reps, std::size_t n, Make make) {
  for (int rep = 0; rep < reps; ++rep) {
    auto op = make();
    const std::uint64_t a0 = thread_allocs();
    const std::uint64_t t0 = now_ns();
    for (std::size_t i = 0; i < n; ++i) op(i);
    const std::uint64_t t1 = now_ns();
    const std::uint64_t a1 = thread_allocs();
    row.ns = std::min(row.ns, static_cast<double>(t1 - t0) / static_cast<double>(n));
    row.allocs =
        std::min(row.allocs, static_cast<double>(a1 - a0) / static_cast<double>(n));
  }
}

StackSpec prefix(int depth) {
  StackSpec spec;
  spec.throttled = depth >= 1;
  spec.resilient = depth >= 2;
  spec.qos = depth >= 3;
  spec.cached = depth >= 4;
  spec.cache.consistency = apio::storage::CacheConsistency::kAfterJob;
  spec.cache.capacity_bytes = 1ull << 40;
  return spec;
}

BackendPtr qos_stack() {
  return build_stack(std::make_shared<apio::storage::MemoryBackend>(), prefix(3),
                     false, 0)
      .top;
}

}  // namespace

void run_ledger(const Options& o, LayerAccum& acc, Result& r) {
  const std::size_t n = o.tiny ? 256 : 8192;
  const int reps = o.tiny ? 2 : 5;
  std::vector<std::byte> buf(kOpBytes);
  Rng rng(o.seed ^ 0x1ed9e5ull);
  for (auto& b : buf) b = static_cast<std::byte>(rng.next());
  std::vector<Selection> sels;
  sels.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    sels.push_back(Selection::offsets({i * kOpBytes}, {kOpBytes}));
  }
  const apio::h5::Dims dims{n * kOpBytes};

  std::vector<Row> rows;
  const char* const stack_rows[] = {"leaf", "throttled", "resilient", "qos",
                                    "cached"};
  for (int depth = 0; depth < 5; ++depth) {
    Row row{stack_rows[depth]};
    measure(row, reps, n, [&] {
      // Pre-sized leaf: the rows time overwrites, not page faults.
      auto leaf = std::make_shared<apio::storage::MemoryBackend>();
      leaf->truncate(n * kOpBytes);
      BackendPtr b = build_stack(leaf, prefix(depth), false, 0).top;
      return [b, &buf](std::size_t i) { b->write(i * kOpBytes, buf); };
    });
    rows.push_back(row);
  }

  Row h5_row{"h5_write"};
  measure(h5_row, reps, n, [&] {
    auto file = apio::h5::File::create(qos_stack());
    auto ds = file->root().create_dataset("data", apio::h5::Datatype::kUInt8, dims);
    return [file, ds, &sels, &buf](std::size_t i) mutable {
      ds.write_raw(sels[i], buf);
    };
  });
  rows.push_back(h5_row);

  Row native_row{"native_write"};
  measure(native_row, reps, n, [&] {
    auto file = apio::h5::File::create(qos_stack());
    auto ds = file->root().create_dataset("data", apio::h5::Datatype::kUInt8, dims);
    auto conn = std::make_shared<apio::vol::NativeConnector>(file);
    return [conn, ds, &sels, &buf](std::size_t i) {
      conn->dataset_write(ds, sels[i], buf);
    };
  });
  rows.push_back(native_row);

  Row async_row{"async_write"};
  // Each repetition's connector is drained and closed before the next
  // one is timed, so no background stream competes with the timing.
  std::shared_ptr<apio::vol::AsyncConnector> live;
  auto finish_live = [&] {
    if (!live) return;
    live->wait_all();
    if (live->stats().failed_ops > 0) {
      r.correct = false;
      ++r.failed;
    }
    live->close();
    live.reset();
  };
  measure(async_row, reps, n, [&] {
    finish_live();
    auto file = apio::h5::File::create(qos_stack());
    auto ds = file->root().create_dataset("data", apio::h5::Datatype::kUInt8, dims);
    live = std::make_shared<apio::vol::AsyncConnector>(file);
    return [conn = live.get(), ds, &sels, &buf](std::size_t i) {
      conn->dataset_write(ds, sels[i], buf);
    };
  });
  finish_live();
  rows.push_back(async_row);

  r.log.push_back("layer-cost ledger (4 KiB writes, n=" + std::to_string(n) +
                  ", min of " + std::to_string(reps) + "):");
  for (const Row& row : rows) {
    char line[160];
    std::snprintf(line, sizeof line, "  %-13s %9.1f ns/op %6.2f allocs/op",
                  row.key.c_str(), row.ns, row.allocs);
    r.log.push_back(line);
    acc.ledger["ledger." + row.key + ".ns_per_op"] = row.ns;
    acc.ledger["ledger." + row.key + ".allocs_per_op"] = row.allocs;
  }
  acc.ledger["h5.write_self_us"] = (h5_row.ns - rows[3].ns) * 1e-3;
  acc.ledger["vol.native.self_us"] = (native_row.ns - h5_row.ns) * 1e-3;

  const bool stack_order = rows[0].ns < rows[1].ns && rows[1].ns < rows[2].ns &&
                           rows[2].ns < rows[3].ns;
  const bool connector_order = native_row.ns < async_row.ns;
  r.log.push_back(std::string("  ordering leaf < +throttled < +resilient < +qos: ") +
                  (stack_order ? "holds" : "VIOLATED"));
  r.log.push_back(std::string("  ordering native < async dataset_write: ") +
                  (connector_order ? "holds" : "VIOLATED"));
  char line[160];
  std::snprintf(line, sizeof line,
                "  async allocs/op: %.2f (ROADMAP baseline figure: 21)",
                async_row.allocs);
  r.log.push_back(line);
}

}  // namespace perfbench
