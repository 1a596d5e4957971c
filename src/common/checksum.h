// CRC-32C (Castagnoli): the corruption check on every durable byte — WAL
// record framing and the local snapshot file (docs/durability.md).
//
// CRC-32C detects every single-bit error and every burst of up to 32 bits,
// which covers what the fault injectors do to durable bytes (a flipped bit,
// a torn tail). On x86-64 CPUs with SSE4.2 it runs on the crc32 instruction:
// from 768 bytes on, as three independent chains over 256-byte lanes merged
// by a shift table, so the instruction's latency overlaps; below that, as one
// chain. Elsewhere a slicing-by-8 table path computes the identical value.
//
// Identities (request-body hashes, state digests) stay FNV-1a (buffer.h):
// they name content, they do not guard it.
#ifndef SRC_COMMON_CHECKSUM_H_
#define SRC_COMMON_CHECKSUM_H_

#include <cstddef>
#include <cstdint>
#include <span>

namespace hovercraft {

// CRC-32C of `data`, continuing from `crc` (the CRC of the bytes before it;
// 0 to start). Crc32c(b, Crc32c(a)) == Crc32c(a followed by b). Uses the
// crc32 instruction when Crc32cHardwareAvailable(), else the portable path.
uint32_t Crc32c(std::span<const uint8_t> data, uint32_t crc = 0);
bool Crc32cHardwareAvailable();

// The table-driven path alone: the fallback, and the reference the hardware
// path is tested against.
uint32_t Crc32cPortable(std::span<const uint8_t> data, uint32_t crc = 0);

// The CRC-32C of A followed by B, from crc_a = Crc32c(A), crc_b = Crc32c(B)
// and len_b = |B|, without reading either. Costs O(log len_b): the CRC of a
// rope of cached parts is combined from the part CRCs (src/common/image.h).
uint32_t Crc32cCombine(uint32_t crc_a, uint32_t crc_b, size_t len_b);

}  // namespace hovercraft

#endif  // SRC_COMMON_CHECKSUM_H_
