// Slab-pooled, refcounted flat buffers for the zero-copy wire path.
//
// Same intrusive-pool discipline as the simulator's Event slab: buffers are
// carved out of size-class slabs owned by the pool, handed out behind an
// intrusive (non-atomic — the simulation is single-threaded) refcount, and
// recycled onto a per-class free list when the last reference drops. Steady
// state allocates nothing: Fragment/Reassembler/decode churn recycles the
// same frames forever (bench/micro_wire_path gates allocations/op == 0).
//
// Ownership rules (docs/performance.md, "wire path"):
//  - The pool must outlive every BufRef carved from it. The destructor
//    enforces this with a fatal leak check (`outstanding() == 0`), so a
//    leaked reference fails fast instead of dangling.
//  - A buffer's bytes may be written only while its refcount is 1 (the
//    producer building a frame); once shared, the contents are immutable.
#ifndef SRC_COMMON_BUF_POOL_H_
#define SRC_COMMON_BUF_POOL_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "src/common/check.h"

namespace hovercraft {

class BufPool;

namespace internal {

// The refcount header every block a Body can reference starts with: a
// pooled buffer (BufCtrl below) or a heap body block (src/common/body.h).
struct RefHeader {
  static constexpr uint32_t kPooledBuffer = 0xFFFFFFFFu;

  uint32_t refs = 0;
  // Payload capacity of a heap body block; kPooledBuffer for a BufCtrl.
  uint32_t heap_bytes = kPooledBuffer;
};

// Header placed immediately before the payload bytes of every pooled buffer.
struct BufCtrl {
  RefHeader head;  // first, so a Body can hold a BufCtrl as a RefHeader*
  int32_t size_class = 0;  // -1 = jumbo (heap-backed, not recycled)
  uint32_t capacity = 0;
  uint32_t len = 0;  // bytes the producer wrote (frame/body length)
  union {
    BufPool* pool = nullptr;  // while handed out
    BufCtrl* next_free;       // while on the free list
  };

  uint8_t* bytes() { return reinterpret_cast<uint8_t*>(this + 1); }
  const uint8_t* bytes() const { return reinterpret_cast<const uint8_t*>(this + 1); }
};
static_assert(offsetof(BufCtrl, head) == 0);

// Drops one reference to a pooled buffer, recycling it on the last.
inline void ReleaseBuffer(BufCtrl* ctrl);

}  // namespace internal

// Shared handle to one pooled buffer. Copying bumps the intrusive refcount;
// the last handle to drop returns the buffer to its pool's free list.
class BufRef {
 public:
  BufRef() = default;
  ~BufRef() { Release(); }
  BufRef(const BufRef& other) : ctrl_(other.ctrl_) {
    if (ctrl_ != nullptr) {
      ++ctrl_->head.refs;
    }
  }
  BufRef(BufRef&& other) noexcept : ctrl_(other.ctrl_) { other.ctrl_ = nullptr; }
  BufRef& operator=(const BufRef& other) {
    if (this != &other) {
      Release();
      ctrl_ = other.ctrl_;
      if (ctrl_ != nullptr) {
        ++ctrl_->head.refs;
      }
    }
    return *this;
  }
  BufRef& operator=(BufRef&& other) noexcept {
    if (this != &other) {
      Release();
      ctrl_ = other.ctrl_;
      other.ctrl_ = nullptr;
    }
    return *this;
  }

  explicit operator bool() const { return ctrl_ != nullptr; }

  // Mutable access is for the producer filling the buffer (refcount 1).
  uint8_t* data() { return ctrl_->bytes(); }
  const uint8_t* data() const { return ctrl_->bytes(); }
  uint32_t capacity() const { return ctrl_->capacity; }
  uint32_t size() const { return ctrl_->len; }
  void set_size(uint32_t n) {
    HC_CHECK_LE(n, ctrl_->capacity);
    ctrl_->len = n;
  }
  uint32_t refcount() const { return ctrl_ == nullptr ? 0 : ctrl_->head.refs; }

  std::span<const uint8_t> bytes() const { return {data(), size()}; }
  std::span<uint8_t> writable() { return {data(), capacity()}; }

  void reset() { Release(); }

 private:
  friend class BufPool;
  friend class Body;
  explicit BufRef(internal::BufCtrl* ctrl) : ctrl_(ctrl) {}
  inline void Release();

  internal::BufCtrl* ctrl_ = nullptr;
};

class BufPool {
 public:
  BufPool() = default;
  ~BufPool() {
    // Fatal leak check: a BufRef outliving its pool would dangle on release,
    // so fail loudly at teardown instead (`outstanding_buffers == 0` gate).
    HC_CHECK_EQ(outstanding_, 0u);
  }
  BufPool(const BufPool&) = delete;
  BufPool& operator=(const BufPool&) = delete;

  // Returns a buffer with capacity >= min_capacity and refcount 1.
  BufRef Allocate(size_t min_capacity) {
    const int32_t cls = ClassFor(min_capacity);
    internal::BufCtrl* ctrl = nullptr;
    if (cls < 0) {
      // Jumbo: heap-backed one-off, freed (not recycled) on last unref.
      auto* raw = new uint8_t[sizeof(internal::BufCtrl) + min_capacity];
      ctrl = new (raw) internal::BufCtrl();
      ctrl->size_class = -1;
      ctrl->capacity = static_cast<uint32_t>(min_capacity);
    } else {
      if (free_lists_[cls] == nullptr) {
        Refill(cls);
      }
      ctrl = free_lists_[cls];
      free_lists_[cls] = ctrl->next_free;
      ctrl->next_free = nullptr;
    }
    ctrl->pool = this;
    ctrl->head.refs = 1;
    ctrl->len = 0;
    ++outstanding_;
    ++allocated_;
    return BufRef(ctrl);
  }

  // Live buffers (refcount > 0) carved from this pool.
  size_t outstanding() const { return outstanding_; }
  // Total Allocate() calls served.
  uint64_t allocated() const { return allocated_; }
  // Slab refills: system allocations made to grow a size class. A steady
  // workload stops incrementing this after warmup.
  uint64_t slab_refills() const { return slab_refills_; }

 private:
  friend void internal::ReleaseBuffer(internal::BufCtrl* ctrl);

  static constexpr int32_t kMinClassLog2 = 8;   // 256 B
  static constexpr int32_t kMaxClassLog2 = 17;  // 128 KiB
  static constexpr int32_t kClassCount = kMaxClassLog2 - kMinClassLog2 + 1;
  static constexpr size_t kTargetSlabBytes = 128 * 1024;

  static int32_t ClassFor(size_t capacity) {
    size_t cap = size_t{1} << kMinClassLog2;
    for (int32_t c = 0; c < kClassCount; ++c, cap <<= 1) {
      if (capacity <= cap) {
        return c;
      }
    }
    return -1;  // jumbo
  }

  void Refill(int32_t cls) {
    const size_t capacity = size_t{1} << (kMinClassLog2 + cls);
    const size_t stride = sizeof(internal::BufCtrl) + capacity;
    const size_t count = std::max<size_t>(1, kTargetSlabBytes / stride);
    auto slab = std::make_unique<uint8_t[]>(stride * count);
    uint8_t* base = slab.get();
    for (size_t i = 0; i < count; ++i) {
      auto* ctrl = new (base + i * stride) internal::BufCtrl();
      ctrl->size_class = cls;
      ctrl->capacity = static_cast<uint32_t>(capacity);
      ctrl->next_free = free_lists_[cls];
      free_lists_[cls] = ctrl;
    }
    slabs_.push_back(std::move(slab));
    ++slab_refills_;
  }

  void Recycle(internal::BufCtrl* ctrl) {
    HC_CHECK_GT(outstanding_, 0u);
    --outstanding_;
    if (ctrl->size_class < 0) {
      ctrl->~BufCtrl();
      delete[] reinterpret_cast<uint8_t*>(ctrl);
      return;
    }
    ctrl->next_free = free_lists_[ctrl->size_class];
    free_lists_[ctrl->size_class] = ctrl;
  }

  internal::BufCtrl* free_lists_[kClassCount] = {};
  std::vector<std::unique_ptr<uint8_t[]>> slabs_;
  size_t outstanding_ = 0;
  uint64_t allocated_ = 0;
  uint64_t slab_refills_ = 0;
};

inline void internal::ReleaseBuffer(BufCtrl* ctrl) {
  HC_CHECK_GT(ctrl->head.refs, 0u);
  if (--ctrl->head.refs == 0) {
    ctrl->pool->Recycle(ctrl);
  }
}

inline void BufRef::Release() {
  if (ctrl_ != nullptr) {
    internal::ReleaseBuffer(ctrl_);
    ctrl_ = nullptr;
  }
}

}  // namespace hovercraft

#endif  // SRC_COMMON_BUF_POOL_H_
