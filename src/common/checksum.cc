#include "src/common/checksum.h"

#include <cstddef>
#include <cstring>

#if defined(__x86_64__)
#include <nmmintrin.h>
#endif

namespace hovercraft {

namespace {

constexpr uint32_t kCastagnoliReflected = 0x82F63B78u;

// Slicing-by-8 tables: kTables[0] is the classic byte-at-a-time table;
// kTables[s][b] advances byte b through s further zero bytes, so eight table
// lookups fold one 8-byte word.
struct Tables {
  uint32_t t[8][256];
};

constexpr Tables MakeTables() {
  Tables tables{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int bit = 0; bit < 8; ++bit) {
      c = (c >> 1) ^ (kCastagnoliReflected & (0u - (c & 1u)));
    }
    tables.t[0][i] = c;
  }
  for (uint32_t i = 0; i < 256; ++i) {
    for (int s = 1; s < 8; ++s) {
      const uint32_t prev = tables.t[s - 1][i];
      tables.t[s][i] = (prev >> 8) ^ tables.t[0][prev & 0xFF];
    }
  }
  return tables;
}

constexpr Tables kTables = MakeTables();

inline uint32_t LoadLe32(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | static_cast<uint32_t>(p[1]) << 8 |
         static_cast<uint32_t>(p[2]) << 16 | static_cast<uint32_t>(p[3]) << 24;
}

#if defined(__x86_64__)
__attribute__((target("sse4.2"))) uint32_t Crc32cSse42(const uint8_t* p, size_t n,
                                                       uint32_t crc) {
  uint32_t c = ~crc;
  while (n > 0 && (reinterpret_cast<uintptr_t>(p) & 7) != 0) {
    c = _mm_crc32_u8(c, *p++);
    --n;
  }
  uint64_t c64 = c;
  for (; n >= 8; p += 8, n -= 8) {
    uint64_t word = 0;
    std::memcpy(&word, p, sizeof(word));
    c64 = _mm_crc32_u64(c64, word);
  }
  c = static_cast<uint32_t>(c64);
  while (n > 0) {
    c = _mm_crc32_u8(c, *p++);
    --n;
  }
  return ~c;
}
#endif

}  // namespace

uint32_t Crc32cPortable(std::span<const uint8_t> data, uint32_t crc) {
  const auto& t = kTables.t;
  const uint8_t* p = data.data();
  size_t n = data.size();
  uint32_t c = ~crc;
  for (; n >= 8; p += 8, n -= 8) {
    const uint32_t lo = LoadLe32(p) ^ c;
    const uint32_t hi = LoadLe32(p + 4);
    c = t[7][lo & 0xFF] ^ t[6][(lo >> 8) & 0xFF] ^ t[5][(lo >> 16) & 0xFF] ^ t[4][lo >> 24] ^
        t[3][hi & 0xFF] ^ t[2][(hi >> 8) & 0xFF] ^ t[1][(hi >> 16) & 0xFF] ^ t[0][hi >> 24];
  }
  for (; n > 0; ++p, --n) {
    c = (c >> 8) ^ t[0][(c ^ *p) & 0xFF];
  }
  return ~c;
}

bool Crc32cHardwareAvailable() {
#if defined(__x86_64__)
  static const bool available = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("sse4.2") != 0;
  }();
  return available;
#else
  return false;
#endif
}

uint32_t Crc32c(std::span<const uint8_t> data, uint32_t crc) {
#if defined(__x86_64__)
  if (Crc32cHardwareAvailable()) {
    return Crc32cSse42(data.data(), data.size(), crc);
  }
#endif
  return Crc32cPortable(data, crc);
}

}  // namespace hovercraft
