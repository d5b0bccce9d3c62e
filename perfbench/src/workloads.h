// The benchmark's workloads.  Each runs seeded inputs against the real
// library for the configured time, checks the outputs, and returns the
// end-to-end metrics (untraced run) or the per-layer metrics (traced
// run).  See perfbench/README.md for why each workload exists.
#pragma once

#include "common.h"

namespace perfbench {

Result run_small_writes(const Options& options);
Result run_many_steps_cached(const Options& options);

/// Layer-cost ledger: one 4 KiB write stream through Backend::write on
/// every BackendStack prefix, h5::Dataset::write_raw, NativeConnector
/// and AsyncConnector, as ns/op and allocs/op (min over repetitions).
/// Fills accum.ledger and logs the table with its ordering check.
void run_ledger(const Options& options, LayerAccum& accum, Result& result);

/// Tags that tell the benchmark's passes apart in the span stream.
inline constexpr std::uint8_t kAsyncTag = 0;
inline constexpr std::uint8_t kNativeTag = 1;

}  // namespace perfbench
