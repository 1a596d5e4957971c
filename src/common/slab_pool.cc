#include "src/common/slab_pool.h"

#include <algorithm>

namespace hovercraft {

namespace {

// Chunk layout: one word linking it to the thread's previous chunk, then the
// blocks.
constexpr size_t kChunkHeaderBytes = SlabPool::kGranule;

// Releases this thread's chunks when the thread exits. Constructed on the
// first chunk, so a thread that never uses the pool never registers it. When
// some block is still out (a leak, or an object that outlives its thread)
// the chunks stay allocated rather than dangle under it.
struct ChunkReaper {
  void** chunk_list = nullptr;
  size_t* outstanding = nullptr;
  ~ChunkReaper() {
    if (chunk_list == nullptr || *outstanding != 0) {
      return;
    }
    void* chunk = *chunk_list;
    while (chunk != nullptr) {
      void* next = *static_cast<void**>(chunk);
      ::operator delete(chunk);
      chunk = next;
    }
    *chunk_list = nullptr;
  }
};

}  // namespace

void* SlabPool::Carve(size_t cls) {
  State& s = state_;
  const size_t bytes = ClassBytes(cls);
  if (static_cast<size_t>(s.bump_end - s.bump) < bytes) {
    thread_local ChunkReaper reaper;
    reaper.chunk_list = &s.chunk_list;
    reaper.outstanding = &s.outstanding;
    auto* chunk = static_cast<uint8_t*>(::operator new(kChunkBytes));
    *reinterpret_cast<void**>(chunk) = s.chunk_list;
    s.chunk_list = chunk;
    s.bump = chunk + kChunkHeaderBytes;
    s.bump_end = chunk + kChunkBytes;
  }
  void* block = s.bump;
  s.bump += bytes;
  return block;
}

}  // namespace hovercraft
