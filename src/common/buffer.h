// Byte-buffer writer/reader pair used by the wire codecs (R2P2 headers, Raft
// messages, kvstore commands). Little-endian fixed-width encoding with
// explicit bounds checks on the read side.
#ifndef SRC_COMMON_BUFFER_H_
#define SRC_COMMON_BUFFER_H_

#include <bit>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <string_view>
#include <vector>

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

class BufferWriter {
 public:
  BufferWriter() = default;
  explicit BufferWriter(size_t reserve) { bytes_.reserve(reserve); }

  void PutU8(uint8_t v) { bytes_.push_back(v); }
  void PutU16(uint16_t v) { PutLittleEndian(v); }
  void PutU32(uint32_t v) { PutLittleEndian(v); }
  void PutU64(uint64_t v) { PutLittleEndian(v); }
  void PutI64(int64_t v) { PutLittleEndian(static_cast<uint64_t>(v)); }

  void PutBytes(std::span<const uint8_t> data) {
    bytes_.insert(bytes_.end(), data.begin(), data.end());
  }

  // Length-prefixed (u32) string.
  void PutString(std::string_view s) {
    PutU32(static_cast<uint32_t>(s.size()));
    const auto* p = reinterpret_cast<const uint8_t*>(s.data());
    bytes_.insert(bytes_.end(), p, p + s.size());
  }

  // Overwrite bytes already written at `offset` (a header reserved up front
  // and filled in once the body behind it is known).
  void PatchU32(size_t offset, uint32_t v) { Patch(offset, v); }
  void PatchU64(size_t offset, uint64_t v) { Patch(offset, v); }

  size_t size() const { return bytes_.size(); }
  const std::vector<uint8_t>& bytes() const { return bytes_; }
  std::vector<uint8_t> TakeBytes() { return std::move(bytes_); }

 private:
  // One capacity check and one copy per integer.
  template <typename T>
  void PutLittleEndian(T v) {
    const size_t offset = bytes_.size();
    bytes_.resize(offset + sizeof(T));
    StoreLittleEndian(bytes_.data() + offset, v);
  }

  template <typename T>
  void Patch(size_t offset, T v) {
    HC_CHECK_LE(offset + sizeof(T), bytes_.size());
    StoreLittleEndian(bytes_.data() + offset, v);
  }

  template <typename T>
  static void StoreLittleEndian(uint8_t* dst, T v) {
    v = LittleEndian(v);
    std::memcpy(dst, &v, sizeof(T));
  }

  std::vector<uint8_t> bytes_;
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

  Status GetBytes(size_t count, std::vector<uint8_t>& out) {
    if (remaining() < count) {
      return OutOfRangeError("buffer underrun");
    }
    out.assign(data_.begin() + static_cast<ptrdiff_t>(pos_),
               data_.begin() + static_cast<ptrdiff_t>(pos_ + count));
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
