// The in-memory data-structure store (the paper's Redis stand-in).
// Pure data structures + operations; no costs, no I/O — KvService layers the
// cost model and the StateMachine interface on top.
#ifndef SRC_APP_KVSTORE_STORE_H_
#define SRC_APP_KVSTORE_STORE_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <variant>
#include <vector>

#include "src/common/body.h"
#include "src/common/buffer.h"
#include "src/common/image.h"
#include "src/common/status.h"

namespace hovercraft {

class KvStore {
 public:
  using StringValue = std::string;
  using HashValue = std::unordered_map<std::string, std::string>;
  using ListValue = std::deque<std::string>;
  using SetValue = std::unordered_set<std::string>;
  using Value = std::variant<StringValue, HashValue, ListValue, SetValue>;

  // -- strings --
  void Set(std::string_view key, std::string_view value);
  Result<std::string> Get(std::string_view key) const;
  bool Del(std::string_view key);

  // Atomic integer increment (the value must parse as a decimal integer or
  // be absent); returns the new value.
  Result<int64_t> Incr(std::string_view key);
  // Appends to a string value (creating it); returns the new length.
  Result<size_t> Append(std::string_view key, std::string_view suffix);
  // Sets only if the key is absent; returns true if it was set.
  Result<bool> Setnx(std::string_view key, std::string_view value);

  // -- hashes --
  Status Hset(std::string_view key, std::string_view field, std::string_view value);
  Result<std::string> Hget(std::string_view key, std::string_view field) const;
  // Removes a field; returns true if it existed.
  Result<bool> Hdel(std::string_view key, std::string_view field);

  // -- lists --
  // Appends and returns the new length.
  Result<size_t> Rpush(std::string_view key, std::string_view value);
  // Negative indices count from the tail, Redis-style (-1 = last element).
  Result<std::vector<std::string>> Lrange(std::string_view key, int32_t start,
                                          int32_t stop) const;
  // The last min(limit, length) elements, newest first — the YCSB-E SCAN
  // ("query the last posts in a conversation").
  Result<std::vector<std::string>> ScanTail(std::string_view key, int32_t limit) const;

  // Pops the list head; kNotFound on missing/empty.
  Result<std::string> Lpop(std::string_view key);
  Result<size_t> Llen(std::string_view key) const;

  // -- sets --
  Result<bool> Sadd(std::string_view key, std::string_view member);
  Result<bool> Srem(std::string_view key, std::string_view member);
  Result<bool> Sismember(std::string_view key, std::string_view member) const;
  Result<size_t> Scard(std::string_view key) const;

  size_t key_count() const { return map_.size(); }
  bool Exists(std::string_view key) const { return Find(key) != nullptr; }
  // Whether `key` is held only as its encoded entry, with no decoded copy:
  // true from the image that encoded it until its next write.
  bool IsEncodedOnly(std::string_view key) const;

  // Order-insensitive digest over all keys and values; replicas with equal
  // content produce equal digests.
  uint64_t ContentDigest() const;

  // The store's snapshot format: the u64 key count, then each key's entry.
  // SerializeTo writes it in one buffer: a clean key's part verbatim, a
  // dirty key encoded on the spot (neither changes representation).
  // DeserializeFrom replaces the current contents with decoded keys.
  void SerializeTo(BufferWriter& out) const;
  Status DeserializeFrom(BufferReader& in);

  // The same bytes as `head` followed by SerializeTo's, as an Image: `head`
  // with the key count appended is the first part, then one part per key in
  // SerializeTo's order. Each dirty key is encoded and checksummed and its
  // decoded value freed, which leaves it clean; a clean key's part is shared
  // as is. So only keys written since the last image are serialized, and
  // every image shares the parts of the keys that did not change.
  //
  // A store built inside an ImagePartIndex::Scope (Cluster builds every app
  // in one) binds the deployment's index and shares one copy of every
  // unchanged key with the other replicas: a dirty key whose name the index
  // maps to a part holding exactly the bytes it would encode adopts that
  // part and its CRC, compared in place with no allocation and no CRC pass;
  // any other dirty key is encoded as above and published. Until its first
  // image the store also adopts at the end of each write, so a replica that
  // replays what another already imaged (a preload) never holds a second
  // copy; after it, a write leaves its key dirty until the next image.
  Image SerializeImage(BufferWriter head) const;

  // --- Shard-move range handoff (src/shard). The predicate selects keys by
  // name, keeping the store agnostic of the shard hash. ---
  using KeyPredicate = std::function<bool(std::string_view)>;
  // Serializes only the keys matching `pred`, same wire format as
  // SerializeTo (so MergeFrom reads either), into an exactly sized buffer.
  Body SerializePart(const KeyPredicate& pred) const;
  // Inserts the payload's keys into the current contents (replacing on
  // collision), instead of wiping the store like DeserializeFrom.
  Status MergeFrom(BufferReader& in);
  // Removes all keys matching `pred`; returns how many were erased.
  size_t EraseIf(const KeyPredicate& pred);

 private:
  // A key's contents, held in exactly one representation. A dirty key
  // (written since the last image) holds its decoded value and a null part.
  // A clean key holds only its SerializeEntry bytes and their CRC, and an
  // empty value. SerializeImage makes every key clean. A write leaves its
  // key dirty: Mutable() decodes a clean key once and drops its part, Set
  // overwrites the value, and the other paths replace or erase the slot.
  // Reads answer from either representation without converting it. The
  // list reads, Get and the size reads read a clean key's part in place;
  // Hget, Sismember and ContentDigest decode it into a temporary they drop.
  struct Slot {
    Slot() = default;
    Slot(Value v) : value(std::move(v)) {}  // NOLINT(google-explicit-constructor)

    bool clean() const { return part != nullptr; }
    // The value's variant index, from either representation.
    size_t type() const;
    // The key's SerializeEntry bytes: a clean key's part, verbatim.
    size_t EncodedSize(const std::string& key) const;
    void EncodeTo(BufferWriter& out, const std::string& key) const;

    // Logically const: SerializeImage trades one representation for the
    // other without changing the contents.
    mutable Value value;
    mutable Body part;
    mutable uint32_t crc = 0;  // Crc32c(part)
  };

  // Ends every write: until the store's first image, a key the write left
  // dirty adopts the part published under its name if it matches.
  struct Written {
    ~Written() { store->AdoptBeforeFirstImage(key); }
    KvStore* store;
    std::string_view key;
  };

  const Slot* Find(std::string_view key) const;
  // Makes the dirty `slot` clean by adopting the part the index publishes
  // under `key`, when that part holds exactly the bytes SerializeEntry
  // would write; returns whether it did.
  bool AdoptPublished(const std::string& key, const Slot& slot) const;
  void AdoptBeforeFirstImage(std::string_view key);
  // The key's decoded value for mutation: a clean key is decoded and its
  // part dropped.
  Value* Mutable(std::string_view key);
  // The slot's decoded value without converting the slot: a dirty slot's
  // own, or a clean slot's part decoded into `temp`.
  static const Value& Decoded(const Slot& slot, Value& temp);
  // Elements [first, first + count) of a list slot, in order.
  static std::vector<std::string> ListSlice(const Slot& slot, size_t first, size_t count);
  // Elements of an aggregate slot (hash fields, list items, set members).
  static size_t ElementCount(const Slot& slot);

  // Heterogeneous lookup so string_view probes do not allocate.
  struct Hash {
    using is_transparent = void;
    size_t operator()(std::string_view s) const { return std::hash<std::string_view>{}(s); }
  };
  struct Eq {
    using is_transparent = void;
    bool operator()(std::string_view a, std::string_view b) const { return a == b; }
  };

  std::unordered_map<std::string, Slot, Hash, Eq> map_;
  // The deployment's index of published parts, bound at construction: null
  // outside a Scope, which shares nothing. It must outlive the store's
  // writes and images.
  ImagePartIndex* shared_ = ImagePartIndex::Current();
  mutable bool imaged_ = false;  // SerializeImage has run
};

}  // namespace hovercraft

#endif  // SRC_APP_KVSTORE_STORE_H_
