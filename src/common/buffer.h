// Byte-buffer writer/reader pair used by the wire codecs (R2P2 headers, Raft
// messages, kvstore commands). Little-endian fixed-width encoding with
// explicit bounds checks on the read side.
#ifndef SRC_COMMON_BUFFER_H_
#define SRC_COMMON_BUFFER_H_

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/common/body.h"
#include "src/common/check.h"
#include "src/common/status.h"

namespace hovercraft {

// The wire format is little-endian on every host: a fixed-width integer is
// copied as is on a little-endian host and byte-swapped on a big-endian one
// (the swap is its own inverse, so it serves both directions).
template <typename T>
constexpr T LittleEndian(T v) {
  if constexpr (std::endian::native == std::endian::big) {
    if constexpr (sizeof(T) == 2) {
      v = __builtin_bswap16(v);
    } else if constexpr (sizeof(T) == 4) {
      v = __builtin_bswap32(v);
    } else if constexpr (sizeof(T) == 8) {
      v = __builtin_bswap64(v);
    }
  }
  return v;
}

// Writes into one growable heap body block, so a finished buffer becomes a
// Body without a copy (TakeBody); TakeBytes copies it out as a vector.
class BufferWriter {
 public:
  BufferWriter() = default;
  explicit BufferWriter(size_t reserve) { Reserve(reserve); }
  BufferWriter(BufferWriter&& other) noexcept
      : block_(std::exchange(other.block_, nullptr)), size_(std::exchange(other.size_, 0)) {}
  BufferWriter& operator=(BufferWriter&& other) noexcept {
    if (this != &other) {
      Free();
      block_ = std::exchange(other.block_, nullptr);
      size_ = std::exchange(other.size_, 0);
    }
    return *this;
  }
  BufferWriter(const BufferWriter&) = delete;
  BufferWriter& operator=(const BufferWriter&) = delete;
  ~BufferWriter() { Free(); }

  // Grows the capacity to at least `capacity` bytes.
  void Reserve(size_t capacity) {
    if (capacity > this->capacity()) {
      Regrow(capacity);
    }
  }

  void PutU8(uint8_t v) { *Extend(1) = v; }
  void PutU16(uint16_t v) { PutLittleEndian(v); }
  void PutU32(uint32_t v) { PutLittleEndian(v); }
  void PutU64(uint64_t v) { PutLittleEndian(v); }
  void PutI64(int64_t v) { PutLittleEndian(static_cast<uint64_t>(v)); }

  void PutBytes(std::span<const uint8_t> data) {
    if (!data.empty()) {
      std::memcpy(Extend(data.size()), data.data(), data.size());
    }
  }

  void PutZeros(size_t count) {
    if (count != 0) {
      std::memset(Extend(count), 0, count);
    }
  }

  // Length-prefixed (u32) string.
  void PutString(std::string_view s) {
    PutU32(static_cast<uint32_t>(s.size()));
    PutBytes({reinterpret_cast<const uint8_t*>(s.data()), s.size()});
  }

  // Overwrite bytes already written at `offset` (a header reserved up front
  // and filled in once the body behind it is known).
  void PatchU32(size_t offset, uint32_t v) { Patch(offset, v); }
  void PatchU64(size_t offset, uint64_t v) { Patch(offset, v); }

  size_t size() const { return size_; }
  size_t capacity() const { return block_ == nullptr ? 0 : block_->heap_bytes; }
  std::span<const uint8_t> bytes() const { return {data(), size_}; }

  // The written bytes as a Body, without a copy; the writer is left empty.
  Body TakeBody() {
    if (block_ == nullptr) {
      return Body::Empty();
    }
    return Body::Adopt(std::exchange(block_, nullptr), std::exchange(size_, 0));
  }
  // The written bytes copied into a vector; the writer is left empty.
  std::vector<uint8_t> TakeBytes() {
    std::vector<uint8_t> out(data(), data() + size_);
    Free();
    return out;
  }

 private:
  static constexpr size_t kMinGrowBytes = 64;

  const uint8_t* data() const {
    return block_ == nullptr ? nullptr : internal::HeapBytes(block_);
  }

  // Room for `count` more bytes; returns where they go.
  uint8_t* Extend(size_t count) {
    if (size_ + count > capacity()) {
      Regrow(std::max({size_ + count, 2 * capacity(), kMinGrowBytes}));
    }
    uint8_t* at = internal::HeapBytes(block_) + size_;
    size_ += count;
    return at;
  }

  void Regrow(size_t capacity) {
    internal::RefHeader* grown = internal::NewHeapBlock(capacity);
    if (size_ != 0) {
      std::memcpy(internal::HeapBytes(grown), internal::HeapBytes(block_), size_);
    }
    Free();
    block_ = grown;
  }

  void Free() {
    if (block_ != nullptr) {
      internal::FreeHeapBlock(std::exchange(block_, nullptr));
    }
  }

  // One capacity check and one copy per integer.
  template <typename T>
  void PutLittleEndian(T v) {
    StoreLittleEndian(Extend(sizeof(T)), v);
  }

  template <typename T>
  void Patch(size_t offset, T v) {
    HC_CHECK_LE(offset + sizeof(T), size_);
    StoreLittleEndian(internal::HeapBytes(block_) + offset, v);
  }

  template <typename T>
  static void StoreLittleEndian(uint8_t* dst, T v) {
    v = LittleEndian(v);
    std::memcpy(dst, &v, sizeof(T));
  }

  internal::RefHeader* block_ = nullptr;  // capacity in block_->heap_bytes
  size_t size_ = 0;
};

class BufferReader {
 public:
  explicit BufferReader(std::span<const uint8_t> data) : data_(data) {}

  Status GetU8(uint8_t& out) { return GetLittleEndian(out); }
  Status GetU16(uint16_t& out) { return GetLittleEndian(out); }
  Status GetU32(uint32_t& out) { return GetLittleEndian(out); }
  Status GetU64(uint64_t& out) { return GetLittleEndian(out); }
  Status GetI64(int64_t& out) {
    uint64_t raw = 0;
    Status s = GetLittleEndian(raw);
    out = static_cast<int64_t>(raw);
    return s;
  }

  // `out` views the next `count` bytes of the reader's buffer.
  Status GetBytes(size_t count, std::span<const uint8_t>& out) {
    if (remaining() < count) {
      return OutOfRangeError("buffer underrun");
    }
    out = data_.subspan(pos_, count);
    pos_ += count;
    return Status::Ok();
  }

  Status GetString(std::string& out) {
    std::string_view view;
    if (Status s = GetStringView(view); !s.ok()) {
      return s;
    }
    out.assign(view);
    return Status::Ok();
  }

  // GetString without the copy: `out` views the reader's bytes.
  Status GetStringView(std::string_view& out) {
    uint32_t len = 0;
    if (Status s = GetU32(len); !s.ok()) {
      return s;
    }
    if (remaining() < len) {
      return OutOfRangeError("string length exceeds buffer");
    }
    out = std::string_view(reinterpret_cast<const char*>(data_.data() + pos_), len);
    pos_ += len;
    return Status::Ok();
  }

  size_t remaining() const { return data_.size() - pos_; }
  size_t position() const { return pos_; }
  bool AtEnd() const { return pos_ == data_.size(); }

 private:
  template <typename T>
  Status GetLittleEndian(T& out) {
    if (remaining() < sizeof(T)) {
      return OutOfRangeError("buffer underrun");
    }
    T v = 0;
    std::memcpy(&v, data_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    out = LittleEndian(v);
    return Status::Ok();
  }

  std::span<const uint8_t> data_;
  size_t pos_ = 0;
};

// FNV-1a 64-bit hash; used for request-body hashes (paper section 5) and
// state-machine digests in tests. Durable bytes are guarded by CRC-32C
// instead (src/common/checksum.h).
inline uint64_t Fnv1aHash(std::span<const uint8_t> data, uint64_t seed = 0xCBF29CE484222325ull) {
  uint64_t h = seed;
  for (uint8_t b : data) {
    h ^= b;
    h *= 0x100000001B3ull;
  }
  return h;
}

inline uint64_t Fnv1aHash(std::string_view s, uint64_t seed = 0xCBF29CE484222325ull) {
  return Fnv1aHash(std::span<const uint8_t>(reinterpret_cast<const uint8_t*>(s.data()), s.size()),
                   seed);
}

}  // namespace hovercraft

#endif  // SRC_COMMON_BUFFER_H_
