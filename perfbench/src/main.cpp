// perfbench: the repository benchmark.
//
//   perfbench --workload <small-writes|many-steps-cached>
//             --seed <n> --seconds <s> --trace <0|1> [--work-dir <dir>]
//
// Untraced (--trace 0) runs print the end-to-end metrics, traced runs
// (--trace 1) the per-layer metrics.  Human-readable lines come first;
// the last line of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// A failed output check exits 1 and reports no metrics.
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <thread>

#include "common.h"
#include "workloads.h"

namespace {

using perfbench::Options;
using perfbench::Result;

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: perfbench --workload <small-writes|many-steps-cached> "
               "--seed <n> --seconds <s> --trace <0|1> "
               "[--work-dir <dir>] [--tiny] [--corrupt-readback]\n",
               why);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
      return argv[++i];
    };
    if (arg == "--workload") {
      o.workload = value();
    } else if (arg == "--seed") {
      o.seed = std::stoull(value());
    } else if (arg == "--seconds") {
      o.seconds = std::stod(value());
    } else if (arg == "--trace") {
      o.trace = value() != "0";
    } else if (arg == "--work-dir") {
      o.work_dir = value();
    } else if (arg == "--tiny") {
      o.tiny = true;
    } else if (arg == "--corrupt-readback") {
      o.corrupt_readback = true;
    } else {
      usage(("unknown argument " + arg).c_str());
    }
  }
  if (o.workload.empty()) usage("--workload is required");
  return o;
}

Result run(const Options& o) {
  if (o.workload == "small-writes") return perfbench::run_small_writes(o);
  if (o.workload == "many-steps-cached") return perfbench::run_many_steps_cached(o);
  usage(("unknown workload " + o.workload).c_str());
}

/// A wedged run must not outlive its time budget: exit without a
/// result instead.
void start_watchdog(double seconds) {
  std::thread([seconds] {
    std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
    std::fprintf(stderr, "perfbench: watchdog expired after %.0f s\n", seconds);
    std::_Exit(3);
  }).detach();
}

}  // namespace

int main(int argc, char** argv) {
  const Options o = parse(argc, argv);
  start_watchdog(170.0);
  std::printf("build: %s, APIO_DEBUG_CHECKS=%d; workload %s, seed %llu, "
              "%g s, %s\n",
              PERFBENCH_BUILD_TYPE, PERFBENCH_DEBUG_CHECKS, o.workload.c_str(),
              static_cast<unsigned long long>(o.seed), o.seconds,
              o.trace ? "traced" : "untraced");
  Result r;
  try {
    r = run(o);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  for (const auto& line : r.log) std::printf("%s\n", line.c_str());
  if (!r.correct || r.failed > 0 || r.attempted == 0) {
    std::printf("{\"correct\": false, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {}}\n",
                static_cast<unsigned long long>(r.attempted),
                static_cast<unsigned long long>(r.failed));
    std::fflush(stdout);
    std::fprintf(stderr, "perfbench: output check failed\n");
    return 1;
  }
  const auto& specs = o.trace ? perfbench::per_layer_metrics()
                              : perfbench::end_to_end_metrics();
  std::string json = "{\"correct\": true, \"attempted\": " +
                     std::to_string(r.attempted) + ", \"failed\": 0, \"metrics\": {";
  bool first = true;
  for (const auto& spec : specs) {
    auto it = r.metrics.find(spec.name);
    if (it == r.metrics.end() || !std::isfinite(it->second)) {
      std::fprintf(stderr, "perfbench: metric %s missing\n", spec.name.c_str());
      return 1;
    }
    char value[64];
    std::snprintf(value, sizeof value, "%.17g", it->second);
    std::printf("  %-36s %.6g %s\n", spec.name.c_str(), it->second,
                spec.unit.c_str());
    json += (first ? "\"" : ", \"") + spec.name + "\": {\"value\": " + value +
            ", \"unit\": \"" + spec.unit + "\"}";
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}
