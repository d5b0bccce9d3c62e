#include "alloc_count.h"

#include <cstdlib>
#include <new>

namespace {

thread_local std::uint64_t t_allocs = 0;

void* counted_alloc(std::size_t size) {
  ++t_allocs;
  if (size == 0) size = 1;
  void* p = std::malloc(size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

namespace perfbench {

std::uint64_t thread_allocs() { return t_allocs; }

}  // namespace perfbench

// Aligned and nothrow forms keep the library defaults: those pair with
// each other and (nothrow) route through the replaced throwing form.
void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
