#include "src/common/image.h"

#include <utility>

#include "src/common/checksum.h"

namespace hovercraft {

Image Image::Of(Body bytes) {
  Image image;
  if (bytes != nullptr) {
    const uint32_t crc = Crc32c(bytes.bytes());
    image.Append(std::move(bytes), crc);
  }
  return image;
}

void Image::Append(Body bytes, uint32_t crc) {
  crc_ = Crc32cCombine(crc_, crc, bytes.size());
  size_ += bytes.size();
  parts_.push_back(Part{std::move(bytes), crc});
}

void Image::AppendTo(std::vector<uint8_t>* out) const {
  out->reserve(out->size() + size_);
  for (const Part& part : parts_) {
    out->insert(out->end(), part.bytes.begin(), part.bytes.end());
  }
}

Body Image::Flatten() const {
  if (parts_.size() == 1) {
    return parts_.front().bytes;
  }
  std::vector<uint8_t> flat;
  AppendTo(&flat);
  return MakeBody(std::move(flat));
}

}  // namespace hovercraft
