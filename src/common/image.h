// Image: an immutable byte sequence held as a rope of shared parts, each a
// heap-backed Body with its CRC-32C. The application's snapshot image is one
// (src/app/state_machine.h): KvStore encodes each key into one part when an
// image is taken and from then on holds the key only as that part, answering
// reads from it, until the key is written. The genesis image, the snapshot
// file, the next compaction and the store itself thus share one copy of
// every unchanged key. The storage layer keeps an image by reference as a
// snapshot file's tail (src/storage/sim_disk.h).
//
// Replicas of one deployment share parts too, through the deployment's
// ImagePartIndex (below): the deployment shares one copy of every unchanged
// key, however many replicas hold it, from each replica's first write on.
//
// The image's CRC is the CRC-32C of its flat bytes, combined from the part
// CRCs as parts are appended (Crc32cCombine), so it never reads the bytes.
#ifndef SRC_COMMON_IMAGE_H_
#define SRC_COMMON_IMAGE_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <unordered_map>
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

// The image parts a deployment has published, by name (a kvstore key). The
// Fabric owns one (src/core/fabric.h). Replicas encode the same state to the
// same bytes, so a replica about to encode a part looks its name up first
// and, when the published part holds exactly the bytes it would write,
// adopts that part and its CRC instead of holding its own copy. Sharing
// happens only on exact byte equality, so no image byte or CRC changes.
//
// An application finds its deployment's index while it is built: Cluster
// runs each app factory inside a Scope over the fabric's index, and an
// application that images its state in named parts binds Current() when it
// is constructed (KvStore does). The factory may do arbitrary work, such as
// a preload, before any server sees the app, so binding at construction lets
// a replica share from its first write on.
//
// The index holds its parts weakly in effect: a part that only the index
// still references is released at the next Find of its name (the entry stays
// for the next Publish of the name to reuse) or replaced by that Publish, and
// such entries are erased by a sweep whenever the index has doubled since
// the last one.
class ImagePartIndex {
 public:
  // Makes `index` the calling thread's Current() until the scope ends, then
  // restores the one before it, so nested builds and builds on other
  // threads (sweep -j) each see their own.
  class Scope {
   public:
    explicit Scope(ImagePartIndex* index) : previous_(current_) { current_ = index; }
    ~Scope() { current_ = previous_; }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    ImagePartIndex* previous_;
  };
  // The index of the deployment being built on this thread; null outside a
  // Scope.
  static ImagePartIndex* Current() { return current_; }

  // The part last published under `name`, or null when there is none or
  // nothing outside the index holds it any more.
  const Image::Part* Find(std::string_view name);
  // Makes `part` the one published under `name`. Parts are immutable.
  void Publish(std::string_view name, const Image::Part& part);
  size_t size() const { return parts_.size(); }

 private:
  static constexpr size_t kMinSweepAt = 64;

  // Whether only the index still references `part`.
  static bool Orphaned(const Image::Part& part) { return part.bytes.refcount() <= 1; }

  // Heterogeneous lookup so string_view probes do not allocate.
  struct Hash {
    using is_transparent = void;
    size_t operator()(std::string_view s) const { return std::hash<std::string_view>{}(s); }
  };

  static inline thread_local ImagePartIndex* current_ = nullptr;

  std::unordered_map<std::string, Image::Part, Hash, std::equal_to<>> parts_;
  size_t sweep_at_ = kMinSweepAt;
};

}  // namespace hovercraft

#endif  // SRC_COMMON_IMAGE_H_
