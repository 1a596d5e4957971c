#include "src/common/checksum.h"

#include <cstddef>
#include <cstring>

#if defined(__x86_64__)
#include <nmmintrin.h>
#endif

namespace hovercraft {

namespace {

constexpr uint32_t kCastagnoliReflected = 0x82F63B78u;

// v * x modulo the polynomial, in the reflected bit order of every table
// here (bit 31 holds x^0).
constexpr uint32_t TimesX(uint32_t v) {
  return (v >> 1) ^ (kCastagnoliReflected & (0u - (v & 1u)));
}

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
      c = TimesX(c);
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

// kTimesX4[n] = n * x^4 modulo the polynomial, for the four coefficients
// x^28..x^31 that n holds in its low bits: multiplying by x^4 shifts them out.
struct TimesX4Table {
  uint32_t t[16];
};

constexpr TimesX4Table MakeTimesX4Table() {
  TimesX4Table table{};
  for (uint32_t n = 0; n < 16; ++n) {
    uint32_t v = n;
    for (int bit = 0; bit < 4; ++bit) {
      v = TimesX(v);
    }
    table.t[n] = v;
  }
  return table;
}

constexpr TimesX4Table kTimesX4 = MakeTimesX4Table();

// Product of two polynomials modulo the Castagnoli polynomial. Horner's rule
// over the hex digits of `a`, highest degree first: a combine runs once per
// cached part of every snapshot image.
constexpr uint32_t MultModP(uint32_t a, uint32_t b) {
  // times_b[n] = n * b for each 4-coefficient polynomial n (bit 3 holds x^0).
  uint32_t times_b[16] = {};
  times_b[8] = b;
  for (uint32_t bit = 4; bit != 0; bit >>= 1) {
    times_b[bit] = TimesX(times_b[bit << 1]);
  }
  for (uint32_t n = 3; n < 16; ++n) {  // the rest: sums of those four
    times_b[n] = times_b[n & (n - 1)] ^ times_b[n & (0u - n)];
  }
  uint32_t p = 0;
  for (int shift = 0; shift < 32; shift += 4) {
    p = (p >> 4) ^ kTimesX4.t[p & 15] ^ times_b[(a >> shift) & 15];
  }
  return p;
}

// kZeroOps.t[j][d] = x^(8 * d * 16^j) modulo the polynomial: the operator
// that carries a CRC over d * 16^j zero bytes. One factor per nonzero hex
// digit of a length composes the operator for any length.
struct ZeroOps {
  uint32_t t[16][16];
};

constexpr ZeroOps MakeZeroOps() {
  ZeroOps ops{};
  uint32_t step = 1u << 23;  // x^8: one zero byte
  for (int j = 0; j < 16; ++j) {
    ops.t[j][0] = 1u << 31;  // x^0
    for (int d = 1; d < 16; ++d) {
      ops.t[j][d] = MultModP(ops.t[j][d - 1], step);
    }
    step = MultModP(ops.t[j][15], step);  // x^(8 * 16^(j+1))
  }
  return ops;
}

constexpr ZeroOps kZeroOps = MakeZeroOps();

// x^(8 * len) modulo the polynomial.
uint32_t ZeroBytesOperator(size_t len) {
  uint32_t op = 1u << 31;
  for (int j = 0; len != 0; len >>= 4, ++j) {
    if ((len & 15) != 0) {
      op = MultModP(kZeroOps.t[j][len & 15], op);
    }
  }
  return op;
}

inline uint32_t LoadLe32(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | static_cast<uint32_t>(p[1]) << 8 |
         static_cast<uint32_t>(p[2]) << 16 | static_cast<uint32_t>(p[3]) << 24;
}

#if defined(__x86_64__)
// The hardware path runs three crc32 chains over adjacent 256-byte lanes of
// each 768-byte block, so three instructions are in flight at once, then
// merges them with the lane operator x^(8 * 256) (kZeroOps.t[2][1]).
constexpr size_t kLaneBytes = 256;
constexpr size_t kLanedBlockBytes = 3 * kLaneBytes;

// kLaneShift.t[k][b] = (b << 8k) * x^(8 * 256) modulo the polynomial: a
// product is linear in its operand, so four lookups carry a lane's CRC state
// over the 256 bytes of the next lane.
struct LaneShift {
  uint32_t t[4][256];
};

constexpr LaneShift MakeLaneShift() {
  LaneShift shift{};
  for (int k = 0; k < 4; ++k) {
    for (uint32_t b = 0; b < 256; ++b) {
      shift.t[k][b] = MultModP(kZeroOps.t[2][1], b << (8 * k));
    }
  }
  return shift;
}

constexpr LaneShift kLaneShift = MakeLaneShift();

inline uint32_t ShiftOneLane(uint32_t c) {
  return kLaneShift.t[0][c & 0xFF] ^ kLaneShift.t[1][(c >> 8) & 0xFF] ^
         kLaneShift.t[2][(c >> 16) & 0xFF] ^ kLaneShift.t[3][c >> 24];
}

__attribute__((target("sse4.2"))) uint32_t Crc32cSse42(const uint8_t* p, size_t n,
                                                       uint32_t crc) {
  uint32_t c = ~crc;
  while (n > 0 && (reinterpret_cast<uintptr_t>(p) & 7) != 0) {
    c = _mm_crc32_u8(c, *p++);
    --n;
  }
  // The raw crc32 state is linear: the state after lanes a, b, c from state
  // s is ((s over a) * x^2048 xor (0 over b)) * x^2048 xor (0 over c).
  for (; n >= kLanedBlockBytes; p += kLanedBlockBytes, n -= kLanedBlockBytes) {
    uint64_t a = c;
    uint64_t b = 0;
    uint64_t d = 0;
    for (size_t i = 0; i < kLaneBytes; i += 8) {
      uint64_t wa = 0;
      uint64_t wb = 0;
      uint64_t wd = 0;
      std::memcpy(&wa, p + i, sizeof(wa));
      std::memcpy(&wb, p + kLaneBytes + i, sizeof(wb));
      std::memcpy(&wd, p + 2 * kLaneBytes + i, sizeof(wd));
      a = _mm_crc32_u64(a, wa);
      b = _mm_crc32_u64(b, wb);
      d = _mm_crc32_u64(d, wd);
    }
    c = ShiftOneLane(ShiftOneLane(static_cast<uint32_t>(a)) ^ static_cast<uint32_t>(b)) ^
        static_cast<uint32_t>(d);
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

uint32_t Crc32cCombine(uint32_t crc_a, uint32_t crc_b, size_t len_b) {
  // CRC is affine over GF(2): the pre- and post-inversions cancel, so the
  // CRC of A followed by B is crc_a carried over |B| zero bytes, xor crc_b.
  return MultModP(ZeroBytesOperator(len_b), crc_a) ^ crc_b;
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
