// Body: an immutable, refcounted byte slice shared by value. Message
// payloads carry one (src/r2p2/messages.h); so does the storage layer, whose
// snapshot files keep the application image by reference
// (src/storage/sim_disk.h).
#ifndef SRC_COMMON_BODY_H_
#define SRC_COMMON_BODY_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "src/common/buf_pool.h"
#include "src/common/check.h"

namespace hovercraft {

// Immutable, refcounted view of a message payload. Historically this was a
// `shared_ptr<const vector<uint8_t>>`; it is now a value-type slice that can
// reference either heap storage (MakeBody — the simulator's typed-message
// path, unchanged semantics) or a slab-pooled arrival buffer (the zero-copy
// decode path: the body is a slice of the reassembled frame, no copy). The
// pointer-style surface (`*body`, `body->size()`, `body == nullptr`) keeps
// the historical call sites source-compatible; a null Body (no payload)
// stays distinct from an empty one, mirroring the null shared_ptr.
//
// Lifetime: a pool-backed Body pins its arrival buffer; the owning BufPool
// must outlive the slice (fatal leak check at pool teardown).
class Body {
 public:
  Body() = default;
  Body(std::nullptr_t) {}  // NOLINT(google-explicit-constructor)

  // Heap-backed body (the simulator's hot path; semantics unchanged).
  static Body FromVector(std::vector<uint8_t> bytes) {
    Body b;
    b.vec_ = std::make_shared<const std::vector<uint8_t>>(std::move(bytes));
    b.data_ = b.vec_->data();
    b.size_ = b.vec_->size();
    b.null_ = false;
    return b;
  }

  // Zero-copy slice of a pooled buffer (refcount bump, no allocation).
  static Body FromBuffer(BufRef buf, size_t offset, size_t size) {
    HC_CHECK_LE(offset + size, buf.size());
    Body b;
    b.buf_ = std::move(buf);
    b.data_ = b.buf_.data() + offset;
    b.size_ = size;
    b.null_ = false;
    return b;
  }

  const uint8_t* data() const { return data_; }
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  const uint8_t* begin() const { return data_; }
  const uint8_t* end() const { return data_ + size_; }
  uint8_t operator[](size_t i) const { return data_[i]; }
  std::span<const uint8_t> bytes() const { return {data_, size_}; }

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
  explicit operator bool() const { return !null_; }
  friend bool operator==(const Body& b, std::nullptr_t) { return b.null_; }
  friend bool operator==(const Body& a, const Body& b) {
    if (a.null_ || b.null_) {
      return a.null_ == b.null_;
    }
    return a.size_ == b.size_ && std::equal(a.begin(), a.end(), b.begin());
  }
  friend bool operator==(const Body& a, const std::vector<uint8_t>& v) {
    return !a.null_ && a.size_ == v.size() && std::equal(a.begin(), a.end(), v.begin());
  }

 private:
  BufRef buf_;
  std::shared_ptr<const std::vector<uint8_t>> vec_;
  const uint8_t* data_ = nullptr;
  size_t size_ = 0;
  bool null_ = true;
};

inline Body MakeBody(std::vector<uint8_t> bytes) { return Body::FromVector(std::move(bytes)); }

}  // namespace hovercraft

#endif  // SRC_COMMON_BODY_H_
