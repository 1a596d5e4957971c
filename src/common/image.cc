#include "src/common/image.h"

#include <algorithm>
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

void Image::AppendTo(BufferWriter* out) const {
  out->Reserve(out->size() + size_);
  for (const Part& part : parts_) {
    out->PutBytes(part.bytes.bytes());
  }
}

const Image::Part* ImagePartIndex::Find(std::string_view name) {
  auto it = parts_.find(name);
  if (it == parts_.end()) {
    return nullptr;
  }
  if (Orphaned(it->second)) {
    // Release the part but keep the entry: the Publish of this name that
    // usually follows replaces it in place instead of allocating a new one.
    it->second = Image::Part{};
    return nullptr;
  }
  return &it->second;
}

void ImagePartIndex::Publish(std::string_view name, const Image::Part& part) {
  auto it = parts_.find(name);
  if (it != parts_.end()) {
    it->second = part;
    return;
  }
  parts_.emplace(std::string(name), part);
  if (parts_.size() >= sweep_at_) {
    std::erase_if(parts_, [](const auto& entry) { return Orphaned(entry.second); });
    sweep_at_ = std::max(kMinSweepAt, 2 * parts_.size());
  }
}

Body Image::Flatten() const {
  if (parts_.size() == 1) {
    return parts_.front().bytes;
  }
  BufferWriter flat;
  AppendTo(&flat);
  return flat.TakeBody();
}

}  // namespace hovercraft
