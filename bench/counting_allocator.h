// Counting global allocator for single-threaded benchmarks. It replaces the
// global operator new/delete of the whole binary, so include it from exactly
// one translation unit per benchmark binary.
//   g_alloc_calls  allocations, cumulative: the steady-state zero-allocation
//                  gates read its change across a region;
//   g_alloc_bytes  bytes requested, cumulative: what a region allocates;
//   g_live_bytes   usable bytes of the blocks still allocated: the change
//                  across a region is the heap it retained, allocator
//                  rounding included;
//   g_peak_live_bytes  the high-water mark of g_live_bytes: reset it to
//                  g_live_bytes before a region, and its change across the
//                  region is the most heap the region held at once.
#ifndef BENCH_COUNTING_ALLOCATOR_H_
#define BENCH_COUNTING_ALLOCATOR_H_

#include <malloc.h>

#include <cstdint>
#include <cstdlib>
#include <new>

static uint64_t g_alloc_calls = 0;
static uint64_t g_alloc_bytes = 0;
static uint64_t g_live_bytes = 0;
static uint64_t g_peak_live_bytes = 0;

namespace counting_allocator {

inline void* Allocate(size_t size) {
  void* p = std::malloc(size);
  if (p == nullptr) {
    throw std::bad_alloc();
  }
  ++g_alloc_calls;
  g_alloc_bytes += size;
  g_live_bytes += malloc_usable_size(p);
  if (g_live_bytes > g_peak_live_bytes) {
    g_peak_live_bytes = g_live_bytes;
  }
  return p;
}

inline void Free(void* p) noexcept {
  if (p != nullptr) {
    g_live_bytes -= malloc_usable_size(p);
    std::free(p);
  }
}

}  // namespace counting_allocator

// Out of line: once inlined next to a delete-expression, the malloc/free
// pairing trips -Wmismatched-new-delete.
[[gnu::noinline]] void* operator new(size_t size) { return counting_allocator::Allocate(size); }
[[gnu::noinline]] void* operator new[](size_t size) { return counting_allocator::Allocate(size); }
[[gnu::noinline]] void operator delete(void* p) noexcept { counting_allocator::Free(p); }
[[gnu::noinline]] void operator delete[](void* p) noexcept { counting_allocator::Free(p); }
[[gnu::noinline]] void operator delete(void* p, size_t) noexcept { counting_allocator::Free(p); }
[[gnu::noinline]] void operator delete[](void* p, size_t) noexcept { counting_allocator::Free(p); }

#endif  // BENCH_COUNTING_ALLOCATOR_H_
