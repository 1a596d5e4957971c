// SlabPool: per-thread size-class free lists for the simulator's small,
// short-lived objects — every message (MakeMessage, src/net/message.h) and
// every small Body block (src/common/body.h).
//
// A request costs a handful of such objects between its arrival and its
// compaction, and a replica holds tens of thousands of them at once. The
// general-purpose allocator pays a size header and a rounding per block; the
// pool pays neither: a block is carved at its size class (8-byte steps up to
// kMaxBlockBytes) from a chunk of at most kChunkBytes, and returns to its
// class's free list when freed (the eRPC idea of preallocated message
// buffers, grown on demand instead of reserved up front). Larger requests go
// to operator new.
//
// Ownership rules:
//  - The pool is per thread and nothing in it is shared across threads, so
//    `tools/sweep -j` runs one Simulator per thread without locks. A block
//    must be freed on the thread that allocated it (every Simulator object
//    lives and dies on one thread).
//  - Chunks are never returned while the thread runs; they are released at
//    thread exit once every block is back.
//  - Under AddressSanitizer every block comes from operator new instead, so
//    pooled objects keep ASan's redzones, use-after-free quarantine and leak
//    check; only the Outstanding() count is kept.
#ifndef SRC_COMMON_SLAB_POOL_H_
#define SRC_COMMON_SLAB_POOL_H_

#include <cstddef>
#include <cstdint>
#include <new>

#if defined(__SANITIZE_ADDRESS__)
#define HC_SLAB_POOLED 0
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define HC_SLAB_POOLED 0
#endif
#endif
#ifndef HC_SLAB_POOLED
#define HC_SLAB_POOLED 1
#endif

namespace hovercraft {

class SlabPool {
 public:
  static constexpr size_t kGranule = 8;  // class step and block alignment
  static constexpr size_t kMaxBlockBytes = 256;
  static constexpr size_t kChunkBytes = 64 * 1024;
  static constexpr size_t kClassCount = kMaxBlockBytes / kGranule;
  // False in AddressSanitizer builds, where blocks bypass the free lists.
  static constexpr bool kPooled = HC_SLAB_POOLED != 0;

  // A block of at least `bytes` (> 0), aligned to kGranule. Sizes above
  // kMaxBlockBytes come from operator new and are not counted.
  static void* Allocate(size_t bytes) {
    if (bytes > kMaxBlockBytes) {
      return ::operator new(bytes);
    }
    State& s = state_;
    ++s.outstanding;
    if constexpr (!kPooled) {
      return ::operator new(bytes);
    }
    const size_t cls = ClassOf(bytes);
    if (FreeBlock* block = s.free[cls]; block != nullptr) {
      s.free[cls] = block->next;
      return block;
    }
    return Carve(cls);
  }

  // Returns a block from Allocate(bytes), with the same `bytes`.
  static void Free(void* p, size_t bytes) {
    if (bytes > kMaxBlockBytes) {
      ::operator delete(p);
      return;
    }
    State& s = state_;
    --s.outstanding;
    if constexpr (!kPooled) {
      ::operator delete(p);
      return;
    }
    const size_t cls = ClassOf(bytes);
    auto* block = static_cast<FreeBlock*>(p);
    block->next = s.free[cls];
    s.free[cls] = block;
  }

  // Blocks this thread's pool has handed out and not yet taken back.
  static size_t Outstanding() { return state_.outstanding; }

 private:
  struct FreeBlock {
    FreeBlock* next;
  };
  // Trivial, so the hot path reaches it without a thread-local init guard;
  // the chunks are released by a separate guard object (slab_pool.cc).
  struct State {
    FreeBlock* free[kClassCount];
    uint8_t* bump;      // next unused byte of the newest chunk
    uint8_t* bump_end;  // end of the newest chunk
    void* chunk_list;   // chunks, linked through their first word
    size_t outstanding;
  };

  static size_t ClassOf(size_t bytes) { return (bytes + kGranule - 1) / kGranule - 1; }
  static size_t ClassBytes(size_t cls) { return (cls + 1) * kGranule; }

  // Slow path: a block of class `cls` from the newest chunk, starting a new
  // chunk when it is exhausted.
  static void* Carve(size_t cls);

  static inline thread_local constinit State state_{};
};

// Stateless allocator over SlabPool, for std::allocate_shared and friends.
template <typename T>
class SlabAllocator {
 public:
  using value_type = T;
  static_assert(alignof(T) <= SlabPool::kGranule, "pool blocks are 8-byte aligned");

  SlabAllocator() = default;
  template <typename U>
  SlabAllocator(const SlabAllocator<U>& /*other*/) {}  // NOLINT: rebinding

  T* allocate(size_t n) { return static_cast<T*>(SlabPool::Allocate(n * sizeof(T))); }
  void deallocate(T* p, size_t n) { SlabPool::Free(p, n * sizeof(T)); }

  template <typename U>
  friend bool operator==(const SlabAllocator& /*a*/, const SlabAllocator<U>& /*b*/) {
    return true;
  }
};

}  // namespace hovercraft

#endif  // SRC_COMMON_SLAB_POOL_H_
