// Heap-allocation counting for the benchmark binary.
//
// The benchmark replaces the global operator new/delete pair with a
// malloc/free forwarder that bumps a thread-local counter, so a caller
// can measure how many allocations one library call makes on its own
// thread (the async submit's allocs/op, for example).
#pragma once

#include <cstdint>

namespace perfbench {

/// Allocations made on the calling thread since it started.
std::uint64_t thread_allocs();

}  // namespace perfbench
