// Body: an immutable, refcounted byte slice shared by value. Message
// payloads carry one (src/r2p2/messages.h); so does the storage layer, whose
// snapshot files keep the application image by reference
// (src/storage/sim_disk.h).
//
// A Body is one 8-byte reference to a refcounted block plus the slice's data
// pointer and size (24 bytes). The block is either
//  - a pooled arrival buffer (a BufPool buffer; the zero-copy decode path:
//    the body is a slice of the reassembled frame, no copy), or
//  - a heap block {refcount, capacity, bytes[]}, one allocation, from the
//    per-thread SlabPool when small (src/common/slab_pool.h).
// Producers write a heap block in place before sharing it: BufferWriter
// (src/common/buffer.h) grows one and finishes into a Body with TakeBody(),
// so large bodies (image parts, kvstore replies, snapshot captures) are never
// copied into a second buffer. MakeBody(vector) and Body::CopyOf(span) copy
// their argument into a fresh block.
//
// The pointer-style surface (`*body`, `body->size()`, `body == nullptr`)
// mirrors the shared_ptr this type once was; a null Body (no payload) stays
// distinct from an empty one.
//
// Lifetime: a pool-backed Body pins its arrival buffer; the owning BufPool
// must outlive the slice (fatal leak check at pool teardown). A heap block
// is freed with its last reference, on the thread that allocated it.
#ifndef SRC_COMMON_BODY_H_
#define SRC_COMMON_BODY_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <utility>
#include <vector>

#include "src/common/buf_pool.h"
#include "src/common/check.h"
#include "src/common/slab_pool.h"

namespace hovercraft {

namespace internal {

// A heap body block: the header, then `heap_bytes` bytes of payload.
inline RefHeader* NewHeapBlock(size_t capacity) {
  HC_CHECK_LT(capacity, size_t{RefHeader::kPooledBuffer});
  void* raw = SlabPool::Allocate(sizeof(RefHeader) + capacity);
  auto* block = ::new (raw) RefHeader();
  block->refs = 1;
  block->heap_bytes = static_cast<uint32_t>(capacity);
  return block;
}

inline uint8_t* HeapBytes(RefHeader* block) { return reinterpret_cast<uint8_t*>(block + 1); }

inline void FreeHeapBlock(RefHeader* block) {
  SlabPool::Free(block, sizeof(RefHeader) + block->heap_bytes);
}

}  // namespace internal

class Body {
 public:
  Body() = default;
  Body(std::nullptr_t) {}  // NOLINT(google-explicit-constructor)
  Body(const Body& other) : block_(other.block_), data_(other.data_), size_(other.size_) {
    if (block_ != nullptr) {
      ++block_->refs;
    }
  }
  Body(Body&& other) noexcept : block_(other.block_), data_(other.data_), size_(other.size_) {
    other.block_ = nullptr;
    other.data_ = nullptr;
    other.size_ = 0;
  }
  Body& operator=(const Body& other) {
    Body copy(other);
    Swap(copy);
    return *this;
  }
  Body& operator=(Body&& other) noexcept {
    Body moved(std::move(other));
    Swap(moved);
    return *this;
  }
  ~Body() { Release(); }

  // A heap body holding a copy of `bytes` (an empty, non-null body when
  // `bytes` is empty).
  static Body CopyOf(std::span<const uint8_t> bytes) {
    if (bytes.empty()) {
      return Empty();
    }
    internal::RefHeader* block = internal::NewHeapBlock(bytes.size());
    std::memcpy(internal::HeapBytes(block), bytes.data(), bytes.size());
    return Adopt(block, bytes.size());
  }

  // Zero-copy slice of a pooled buffer (refcount bump, no allocation).
  static Body FromBuffer(BufRef buf, size_t offset, size_t size) {
    HC_CHECK_LE(offset + size, buf.size());
    Body b;
    b.block_ = &buf.ctrl_->head;  // the handle's reference moves into `b`
    b.data_ = buf.data() + offset;
    b.size_ = size;
    buf.ctrl_ = nullptr;
    return b;
  }

  const uint8_t* data() const { return data_; }
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  const uint8_t* begin() const { return data_; }
  const uint8_t* end() const { return data_ + size_; }
  uint8_t operator[](size_t i) const { return data_[i]; }
  std::span<const uint8_t> bytes() const { return {data_, size_}; }
  // References to the block, this one included; 0 for a blockless body
  // (null or empty).
  uint32_t refcount() const { return block_ == nullptr ? 0 : block_->refs; }

  // Narrower sub-slice sharing the same storage (no copy).
  Body Slice(size_t offset, size_t count) const {
    HC_CHECK_LE(offset + count, size_);
    Body b = *this;
    b.data_ = data_ + offset;
    b.size_ = count;
    return b;
  }

  // shared_ptr-compatible surface.
  const Body* operator->() const { return this; }
  const Body& operator*() const { return *this; }
  explicit operator bool() const { return data_ != nullptr; }
  friend bool operator==(const Body& b, std::nullptr_t) { return b.data_ == nullptr; }
  friend bool operator==(const Body& a, const Body& b) {
    if (a == nullptr || b == nullptr) {
      return (a == nullptr) == (b == nullptr);
    }
    return a.size_ == b.size_ && std::equal(a.begin(), a.end(), b.begin());
  }
  friend bool operator==(const Body& a, const std::vector<uint8_t>& v) {
    return a != nullptr && a.size_ == v.size() && std::equal(a.begin(), a.end(), v.begin());
  }

 private:
  friend class BufferWriter;

  // Takes over a heap block holding `size` written bytes.
  static Body Adopt(internal::RefHeader* block, size_t size) {
    HC_CHECK_LE(size, block->heap_bytes);
    Body b;
    b.block_ = block;
    b.data_ = internal::HeapBytes(block);
    b.size_ = size;
    return b;
  }

  // A non-null body with no bytes and no block.
  static Body Empty() {
    static constexpr uint8_t kNoBytes = 0;
    Body b;
    b.data_ = &kNoBytes;
    return b;
  }

  void Swap(Body& other) {
    std::swap(block_, other.block_);
    std::swap(data_, other.data_);
    std::swap(size_, other.size_);
  }

  void Release() {
    if (block_ == nullptr) {
      return;
    }
    if (block_->heap_bytes == internal::RefHeader::kPooledBuffer) {
      internal::ReleaseBuffer(reinterpret_cast<internal::BufCtrl*>(block_));
    } else if (--block_->refs == 0) {
      internal::FreeHeapBlock(block_);
    }
    block_ = nullptr;
  }

  internal::RefHeader* block_ = nullptr;  // null: a null body, or empty
  const uint8_t* data_ = nullptr;         // null only for a null body
  size_t size_ = 0;
};
static_assert(sizeof(Body) <= 24, "a Body is one block reference plus a slice");

inline Body MakeBody(const std::vector<uint8_t>& bytes) { return Body::CopyOf(bytes); }

}  // namespace hovercraft

#endif  // SRC_COMMON_BODY_H_
