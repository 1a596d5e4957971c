// The in-memory data-structure store (the paper's Redis stand-in).
// Pure data structures + operations; no costs, no I/O — KvService layers the
// cost model and the StateMachine interface on top.
//
// Each key is held in one of three states:
//  - dirty: its decoded value (the state after most writes);
//  - clean: only its encoded snapshot entry, a part that images share
//    (SerializeImage leaves every key clean);
//  - prefix plus tail, lists only: the first n elements of an encoded part,
//    read in place, then a decoded tail. Rpush on a clean list starts a
//    tail and decodes nothing; Rpush on an absent key whose name has a
//    published list part replays it, comparing each value with the part's
//    next element in place, and a key whose replay reaches the part's end
//    is clean and holds that part.
// Reads answer from every state without converting it; the next image
// makes every key clean again.
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
  // SerializeTo writes it in one buffer: a clean key's part verbatim, any
  // other key encoded on the spot (no key changes state).
  // DeserializeFrom replaces the current contents with decoded keys.
  void SerializeTo(BufferWriter& out) const;
  Status DeserializeFrom(BufferReader& in);

  // The same bytes as `head` followed by SerializeTo's, as an Image: `head`
  // with the key count appended is the first part, then one part per key in
  // SerializeTo's order. Each dirty key, and each prefixed list, is encoded
  // and checksummed and its decoded value freed, which leaves it clean; a
  // clean key's part is shared as is. So only keys written since the last
  // image are serialized, and every image shares the parts of the keys that
  // did not change.
  //
  // A store built inside an ImagePartIndex::Scope (Cluster builds every app
  // in one) binds the deployment's index and shares one copy of every
  // unchanged key with the other replicas: a dirty key whose name the index
  // maps to a part holding exactly the bytes it would encode adopts that
  // part and its CRC, compared in place with no allocation and no CRC pass;
  // any other dirty key is encoded as above and published. A replica that
  // replays what another already imaged (a preload) never holds a second
  // copy: its lists replay the published parts (file comment), and until
  // its first image a write that leaves its key dirty adopts at its end;
  // after it, such a write leaves its key dirty until the next image.
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
  // A key's contents in one of the three states (file comment):
  //  - dirty: `value` holds the decoded value and `part` is null;
  //  - clean: `part` holds the key's SerializeEntry bytes, `crc` their CRC,
  //    and `value` is empty;
  //  - prefix plus tail: `part` and `crc` are a list part's, whose first
  //    `prefix` elements (its bytes before `prefix_end`, which is 0 only in
  //    a clean slot) are the list's head, and `value` holds the tail (a
  //    ListValue) once an Rpush appends past the head. A head with no tail
  //    holds no value, so a replay allocates no tail it may never need.
  // A write leaves its key dirty, except Rpush, which keeps a part it can
  // read the list's head from. Mutable() decodes the other states once and
  // drops the part, Set overwrites the value, and the other paths replace or
  // erase the slot. The list reads, Get, the size reads and ContentDigest
  // read a part in place; Hget and Sismember decode a clean key's part into
  // a temporary they drop.
  struct Slot {
    Slot() = default;
    Slot(Value v) : value(std::move(v)) {}  // NOLINT(google-explicit-constructor)

    bool prefixed() const { return part != nullptr && prefix_end != 0; }
    bool clean() const { return part != nullptr && prefix_end == 0; }
    // Makes the slot clean: `p`, with CRC `c`, becomes the key's only copy.
    void Hold(Body p, uint32_t c) const {
      part = std::move(p);
      crc = c;
      value = Value{};
      prefix = 0;
      prefix_end = 0;
    }
    // The value's variant index, from any state.
    size_t type() const;
    // Elements read from `part`: a prefixed list's prefix, a clean key's
    // count, none for a dirty key.
    size_t InPart() const;
    // The key's SerializeEntry bytes, to a BufferWriter or another sink
    // with its Put* calls; a part's elements go in one PutBytes.
    template <typename Out>
    void Encode(Out& out, const std::string& key) const;
    size_t EncodedSize(const std::string& key) const;

    // Logically const: SerializeImage trades one representation for the
    // other without changing the contents.
    mutable Value value;
    mutable Body part;
    mutable uint32_t crc = 0;         // Crc32c(part)
    mutable uint32_t prefix = 0;      // a prefixed list's head: elements in `part`
    mutable uint32_t prefix_end = 0;  // and the offset just past them
  };

  // Ends every write: until the store's first image, a key the write left
  // dirty adopts the part published under its name if it matches.
  struct Written {
    ~Written() { store->AdoptBeforeFirstImage(key); }
    KvStore* store;
    std::string_view key;
  };

  const Slot* Find(std::string_view key) const;
  // Makes a dirty or prefixed `slot` clean by adopting the part the index
  // publishes under `key`, when that part holds exactly the bytes
  // SerializeEntry would write; returns whether it did.
  bool AdoptPublished(const std::string& key, const Slot& slot) const;
  void AdoptBeforeFirstImage(std::string_view key);
  // Extends a prefixed list's head, which has no tail yet, by `item` when
  // that is its part's next element, compared in place; returns whether it
  // did. A head that reaches the part's end leaves the slot clean, holding
  // that part.
  static bool Replay(Slot& slot, std::string_view item);
  // The key's decoded value for mutation: a clean or prefixed key is
  // decoded and its part dropped.
  Value* Mutable(std::string_view key);
  // A hash or set slot's decoded value without converting the slot: a dirty
  // slot's own, or a clean slot's part decoded into `temp`.
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
