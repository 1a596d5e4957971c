// Image: an immutable byte sequence held as a rope of shared parts, each a
// heap-backed Body with its CRC-32C. The application's snapshot image is one
// (src/app/state_machine.h): KvStore encodes each key into one part when an
// image is taken and from then on holds the key only as that part, answering
// reads from it, until the key is written. The genesis image, the snapshot
// file, the next compaction and the store itself thus share one copy of
// every unchanged key. The storage layer keeps an image by reference as a
// snapshot file's tail (src/storage/sim_disk.h).
//
// The image's CRC is the CRC-32C of its flat bytes, combined from the part
// CRCs as parts are appended (Crc32cCombine), so it never reads the bytes.
#ifndef SRC_COMMON_IMAGE_H_
#define SRC_COMMON_IMAGE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/common/body.h"
#include "src/common/buffer.h"

namespace hovercraft {

class Image {
 public:
  struct Part {
    Body bytes;
    uint32_t crc = 0;  // Crc32c(bytes)
  };

  Image() = default;

  // A one-part image of `bytes`, checksummed here; a null body gives the
  // empty image.
  static Image Of(Body bytes);

  void Reserve(size_t parts) { parts_.reserve(parts); }
  // Appends a part whose CRC-32C the caller already holds. Parts are shared,
  // so their bytes must never change afterwards.
  void Append(Body bytes, uint32_t crc);

  const std::vector<Part>& parts() const { return parts_; }
  size_t size() const { return size_; }
  uint32_t crc() const { return crc_; }

  // Appends the flat bytes to `out`, growing it once.
  void AppendTo(BufferWriter* out) const;
  // The flat bytes as one Body. A one-part image returns its part, uncopied.
  Body Flatten() const;

 private:
  std::vector<Part> parts_;
  size_t size_ = 0;
  uint32_t crc_ = 0;
};

}  // namespace hovercraft

#endif  // SRC_COMMON_IMAGE_H_
