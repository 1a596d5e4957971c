// Counting allocator: interposes the global operator new/delete for the
// whole benchmark binary, the technique bench/micro_wire_path.cc uses for its
// zero-allocation gate. Every heap allocation in the process is counted; the
// benchmark reads the counters before and after a load phase and reports the
// difference, so set-up and reporting never show up in allocs/request.
// Not thread-safe: the simulator is single-threaded.
#include <cstdlib>
#include <new>

#include "probes.h"

namespace {

uint64_t g_allocs = 0;
uint64_t g_alloc_bytes = 0;

void* CountedAlloc(size_t size) {
  ++g_allocs;
  g_alloc_bytes += size;
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) {
    throw std::bad_alloc();
  }
  return p;
}

}  // namespace

void* operator new(size_t size) { return CountedAlloc(size); }
void* operator new[](size_t size) { return CountedAlloc(size); }
void* operator new(size_t size, const std::nothrow_t&) noexcept {
  ++g_allocs;
  g_alloc_bytes += size;
  return std::malloc(size == 0 ? 1 : size);
}
void* operator new[](size_t size, const std::nothrow_t&) noexcept {
  ++g_allocs;
  g_alloc_bytes += size;
  return std::malloc(size == 0 ? 1 : size);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, size_t) noexcept { std::free(p); }
void operator delete[](void* p, size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }

namespace hovercraft::perfbench {

AllocCounts AllocCountsNow() { return AllocCounts{g_allocs, g_alloc_bytes}; }

}  // namespace hovercraft::perfbench
