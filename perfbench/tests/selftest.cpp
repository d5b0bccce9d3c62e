// Self-test for the benchmark's own machinery:
//   * the interposers forward 1:1 (every Backend virtual reaches the
//     same virtual below; the connector wrapper forwards add_observer
//     and file());
//   * traced and untraced runs of small-writes make the same leaf calls
//     and produce the same container checksum (many-steps-cached: the
//     same checksum);
//   * every workload passes its output check at a tiny size, and fails
//     it when one read-back byte is corrupted;
//   * the percentile helper refuses unsupported percentiles.
// Exits non-zero on any failed check.
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "common.h"
#include "interposers.h"
#include "stats.h"
#include "storage/memory_backend.h"
#include "vol/native_connector.h"
#include "workloads.h"

namespace {

using namespace perfbench;

int g_failures = 0;

void check(bool ok, const std::string& what) {
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
  if (!ok) ++g_failures;
}

/// Records which Backend virtual was called last.
class ProbeBackend final : public apio::storage::Backend {
 public:
  std::string last;
  std::uint64_t size() const override { return 0; }
  void read(std::uint64_t, std::span<std::byte>) override { last = "read"; }
  void write(std::uint64_t, std::span<const std::byte>) override { last = "write"; }
  std::uint64_t write_v(std::span<const apio::storage::WriteExtent> e) override {
    last = "write_v";
    return e.size();
  }
  std::uint64_t read_v(std::span<const apio::storage::ReadExtent> e) override {
    last = "read_v";
    return e.size();
  }
  void flush() override { last = "flush"; }
  void close() override { last = "close"; }
  void truncate(std::uint64_t) override { last = "truncate"; }
  std::string name() const override { return "probe"; }
};

void test_backend_forwarding() {
  auto probe = std::make_shared<ProbeBackend>();
  TimedBackend timed(probe, trace::Layer::kLeaf, 0);
  trace::set_enabled(true);
  std::byte buf[8] = {};
  apio::storage::WriteExtent we[2] = {{0, {buf, 4}}, {4, {buf + 4, 4}}};
  apio::storage::ReadExtent re[2] = {{0, {buf, 4}}, {4, {buf + 4, 4}}};
  timed.write(0, buf);
  check(probe->last == "write", "TimedBackend forwards write");
  check(timed.write_v(we) == 2 && probe->last == "write_v",
        "TimedBackend forwards write_v as write_v");
  timed.read(0, buf);
  check(probe->last == "read", "TimedBackend forwards read");
  check(timed.read_v(re) == 2 && probe->last == "read_v",
        "TimedBackend forwards read_v as read_v");
  timed.flush();
  check(probe->last == "flush", "TimedBackend forwards flush");
  timed.truncate(0);
  check(probe->last == "truncate", "TimedBackend forwards truncate");
  timed.close();
  check(probe->last == "close", "TimedBackend forwards close");
  check(timed.name() == "probe", "TimedBackend keeps the inner name");
  trace::set_enabled(false);
  const auto spans = trace::snapshot();
  check(spans.size() == 7, "one span per forwarded data call");
  trace::clear();
}

struct CountingObserver final : apio::obs::IoObserver {
  int records = 0;
  void on_io(const apio::obs::IoRecord&) override { ++records; }
};

void test_connector_forwarding() {
  auto file = apio::h5::File::create(std::make_shared<apio::storage::MemoryBackend>());
  auto ds = file->root().create_dataset("d", apio::h5::Datatype::kUInt8,
                                        apio::h5::Dims{64});
  auto native = std::make_shared<apio::vol::NativeConnector>(file);
  TracingConnector wrapper(native, trace::Layer::kNativeConnector, 1);
  check(&wrapper.file() == &native->file(), "TracingConnector forwards file()");
  auto observer = std::make_shared<CountingObserver>();
  wrapper.add_observer(observer);
  std::vector<std::byte> data(64);
  wrapper.dataset_write(ds, apio::h5::Selection::all(), data);
  check(observer->records == 1, "TracingConnector forwards add_observer");
  wrapper.remove_observer(observer);
  wrapper.dataset_write(ds, apio::h5::Selection::all(), data);
  check(observer->records == 1, "TracingConnector forwards remove_observer");
  check(wrapper.issued() == 2 && wrapper.failed() == 0,
        "TracingConnector counts issued requests");
  wrapper.close();
}

void test_percentiles() {
  std::vector<double> v(999);
  for (std::size_t i = 0; i < v.size(); ++i) v[i] = static_cast<double>(i);
  Summary s = summarize(v);
  check(!s.supports(99.0) && s.top_pct == 95.0,
        "999 samples support p95 but not p99");
  bool threw = false;
  try {
    (void)resolved_percentile(v, 99.0, "x");
  } catch (const std::exception&) {
    threw = true;
  }
  check(threw, "an unsupported p99 is refused");
  v.push_back(999.0);
  s = summarize(v);
  check(s.supports(99.0) && s.top_pct == 99.0, "1000 samples support p99");
  check(s.median == 499.5, "median interpolates");
}

Options tiny(const std::string& workload, const std::string& dir) {
  Options o;
  o.workload = workload;
  o.seed = 7;
  o.seconds = 0.0;
  o.tiny = true;
  o.min_iterations = 1;
  o.work_dir = dir;
  return o;
}

/// Runs a workload; an escaped exception counts as a failed run.
Result run(const Options& o) {
  try {
    if (o.workload == "small-writes") return run_small_writes(o);
    return run_many_steps_cached(o);
  } catch (const std::exception& e) {
    std::printf("     %s: %s\n", o.workload.c_str(), e.what());
    Result r;
    r.correct = false;
    r.failed = 1;
    return r;
  }
}

bool same_stats(const apio::storage::BackendStats& a,
                const apio::storage::BackendStats& b) {
  return a.bytes_read == b.bytes_read && a.bytes_written == b.bytes_written &&
         a.read_ops == b.read_ops && a.write_ops == b.write_ops &&
         a.flushes == b.flushes;
}

void test_workloads(const std::string& dir) {
  for (const char* name : {"small-writes", "many-steps-cached"}) {
    Options o = tiny(name, dir);
    Result plain = run(o);
    check(plain.correct && plain.failed == 0 && plain.attempted > 0,
          std::string(name) + ": output check passes");
    o.trace = true;
    Result traced = run(o);
    check(traced.correct && traced.failed == 0,
          std::string(name) + ": traced output check passes");
    check(traced.checksum == plain.checksum,
          std::string(name) + ": traced and untraced checksums match");
    if (std::string(name) != "many-steps-cached") {
      // (cache drain batching depends on timing, so the cached
      // workload's leaf call counts legitimately vary run to run)
      check(same_stats(traced.leaf_stats, plain.leaf_stats),
            std::string(name) + ": traced and untraced leaf BackendStats match");
    }
    o.trace = false;
    o.corrupt_readback = true;
    Result corrupt = run(o);
    check(!corrupt.correct && corrupt.failed > 0,
          std::string(name) + ": one corrupted read-back byte fails the run");
  }
}

}  // namespace

int main(int argc, char** argv) {
  const std::string dir =
      argc > 1 ? argv[1] : (std::filesystem::current_path() / "selftest-work").string();
  std::setvbuf(stdout, nullptr, _IOLBF, 0);
  std::filesystem::create_directories(dir);
  test_backend_forwarding();
  test_connector_forwarding();
  test_percentiles();
  test_workloads(dir);
  std::filesystem::remove_all(dir);
  std::printf("%d failure(s)\n", g_failures);
  return g_failures == 0 ? 0 : 1;
}
