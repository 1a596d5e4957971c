#include "src/app/kvstore/store.h"

#include <algorithm>
#include <charconv>
#include <cstring>
#include <type_traits>

#include "src/common/buffer.h"
#include "src/common/check.h"
#include "src/common/checksum.h"

namespace hovercraft {
namespace {

// An entry's tag byte, which is also its value's variant index.
enum ValueTag : uint8_t { kString = 0, kHash = 1, kList = 2, kSet = 3 };
static_assert(std::is_same_v<std::variant_alternative_t<kString, KvStore::Value>,
                             KvStore::StringValue>);
static_assert(std::is_same_v<std::variant_alternative_t<kHash, KvStore::Value>,
                             KvStore::HashValue>);
static_assert(std::is_same_v<std::variant_alternative_t<kList, KvStore::Value>,
                             KvStore::ListValue>);
static_assert(std::is_same_v<std::variant_alternative_t<kSet, KvStore::Value>,
                             KvStore::SetValue>);

// A clean key's entry, read in place: past the key, the tag, an aggregate's
// element count, then its u32-prefixed strings one at a time. The bytes
// came from SerializeEntry, so a malformed part is a bug, not bad input.
class EntryReader {
 public:
  explicit EntryReader(const Body& part) : in_(part.bytes()) {
    Next();  // the key
    HC_CHECK(in_.GetU8(tag_).ok());
    if (tag_ != kString) {
      HC_CHECK(in_.GetU64(count_).ok());
    }
  }

  uint8_t tag() const { return tag_; }
  uint64_t count() const { return count_; }
  // Bytes read so far: after construction, where the elements start.
  size_t offset() const { return in_.position(); }

  // The next string: a string value, or an aggregate's next element (a
  // hash's field and its value are two).
  std::string_view Next() {
    std::string_view s;
    HC_CHECK(in_.GetStringView(s).ok());
    return s;
  }
  void Skip(uint64_t strings) {
    for (uint64_t i = 0; i < strings; ++i) {
      Next();
    }
  }

 private:
  BufferReader in_;
  uint8_t tag_ = 0;
  uint64_t count_ = 0;
};

}  // namespace

size_t KvStore::Slot::type() const {
  return part != nullptr ? EntryReader(part).tag() : value.index();
}

size_t KvStore::Slot::InPart() const {
  if (prefixed()) {
    return prefix;
  }
  return clean() ? EntryReader(part).count() : 0;
}

const KvStore::Slot* KvStore::Find(std::string_view key) const {
  auto it = map_.find(key);
  return it == map_.end() ? nullptr : &it->second;
}

bool KvStore::IsEncodedOnly(std::string_view key) const {
  const Slot* slot = Find(key);
  return slot != nullptr && slot->clean() && slot->value == Value{};
}

std::vector<std::string> KvStore::ListSlice(const Slot& slot, size_t first, size_t count) {
  std::vector<std::string> out;
  out.reserve(count);
  const size_t in_part = slot.InPart();
  if (first < in_part) {
    EntryReader r(slot.part);
    r.Skip(first);
    while (out.size() < count && first + out.size() < in_part) {
      out.emplace_back(r.Next());
    }
  }
  if (out.size() < count) {  // the rest from the decoded list or tail
    const auto& l = std::get<ListValue>(slot.value);
    const auto begin = l.begin() + static_cast<ptrdiff_t>(first + out.size() - in_part);
    out.insert(out.end(), begin, begin + static_cast<ptrdiff_t>(count - out.size()));
  }
  return out;
}

size_t KvStore::ElementCount(const Slot& slot) {
  if (slot.clean()) {
    return slot.InPart();
  }
  return slot.InPart() + std::visit([](const auto& v) { return v.size(); }, slot.value);
}

void KvStore::Set(std::string_view key, std::string_view value) {
  const Written written{this, key};
  auto it = map_.find(key);
  if (it == map_.end()) {
    map_.emplace(std::string(key), StringValue(value));
    return;
  }
  // Overwritten, so a clean key is not decoded first.
  it->second.value.emplace<StringValue>(value);
  it->second.part = nullptr;
}

Result<std::string> KvStore::Get(std::string_view key) const {
  const Slot* slot = Find(key);
  if (slot == nullptr) {
    return NotFoundError("no such key");
  }
  if (slot->type() != kString) {
    return FailedPreconditionError("wrong type");
  }
  if (slot->clean()) {
    return std::string(EntryReader(slot->part).Next());
  }
  return std::get<StringValue>(slot->value);
}

bool KvStore::Del(std::string_view key) {
  auto it = map_.find(key);
  if (it == map_.end()) {
    return false;
  }
  map_.erase(it);
  return true;
}

Status KvStore::Hset(std::string_view key, std::string_view field, std::string_view value) {
  const Written written{this, key};
  Value* v = Mutable(key);
  if (v == nullptr) {
    HashValue h;
    h.emplace(std::string(field), std::string(value));
    map_.emplace(std::string(key), std::move(h));
    return Status::Ok();
  }
  auto* h = std::get_if<HashValue>(v);
  if (h == nullptr) {
    return FailedPreconditionError("wrong type");
  }
  (*h)[std::string(field)] = std::string(value);
  return Status::Ok();
}

Result<std::string> KvStore::Hget(std::string_view key, std::string_view field) const {
  const Slot* slot = Find(key);
  if (slot == nullptr) {
    return NotFoundError("no such key");
  }
  if (slot->type() != kHash) {
    return FailedPreconditionError("wrong type");
  }
  Value temp;
  const auto& h = std::get<HashValue>(Decoded(*slot, temp));
  auto it = h.find(std::string(field));
  if (it == h.end()) {
    return NotFoundError("no such field");
  }
  return it->second;
}

Result<size_t> KvStore::Rpush(std::string_view key, std::string_view value) {
  const Written written{this, key};
  auto it = map_.find(key);
  if (it == map_.end()) {
    it = map_.try_emplace(std::string(key)).first;
    // A list published under this name is replayed from an empty prefix and
    // no tail; any other new key starts as an empty list.
    const Image::Part* published = shared_ != nullptr ? shared_->Find(key) : nullptr;
    if (published != nullptr) {
      const EntryReader r(published->bytes);
      if (r.tag() == kList) {
        it->second.part = published->bytes;
        it->second.crc = published->crc;
        it->second.prefix_end = static_cast<uint32_t>(r.offset());
      }
    }
    if (it->second.part == nullptr) {
      it->second.value.emplace<ListValue>();
    }
  }
  Slot& slot = it->second;
  if (slot.type() != kList) {
    return Result<size_t>(FailedPreconditionError("wrong type"));
  }
  if (slot.clean()) {  // its whole part becomes the prefix: nothing is decoded
    slot.prefix = static_cast<uint32_t>(slot.InPart());
    slot.prefix_end = static_cast<uint32_t>(slot.part.size());
  }
  auto* tail = std::get_if<ListValue>(&slot.value);
  if (tail == nullptr) {  // a prefix with no tail goes on replaying its part
    if (Replay(slot, value)) {
      return ElementCount(slot);
    }
    tail = &slot.value.emplace<ListValue>();
  }
  tail->emplace_back(value);
  if (slot.InPart() == 0) {
    slot.part = nullptr;  // a prefix of no elements: just the tail
  }
  return ElementCount(slot);
}

Result<std::vector<std::string>> KvStore::Lrange(std::string_view key, int32_t start,
                                                 int32_t stop) const {
  const Slot* slot = Find(key);
  if (slot == nullptr) {
    return NotFoundError("no such key");
  }
  if (slot->type() != kList) {
    return Result<std::vector<std::string>>(FailedPreconditionError("wrong type"));
  }
  const auto n = static_cast<int64_t>(ElementCount(*slot));
  int64_t a = start < 0 ? n + start : start;
  int64_t b = stop < 0 ? n + stop : stop;
  a = std::clamp<int64_t>(a, 0, n);
  b = std::clamp<int64_t>(b, -1, n - 1);
  const int64_t count = std::max<int64_t>(b - a + 1, 0);
  return ListSlice(*slot, static_cast<size_t>(a), static_cast<size_t>(count));
}

Result<std::vector<std::string>> KvStore::ScanTail(std::string_view key, int32_t limit) const {
  const Slot* slot = Find(key);
  if (slot == nullptr) {
    return NotFoundError("no such key");
  }
  if (slot->type() != kList) {
    return Result<std::vector<std::string>>(FailedPreconditionError("wrong type"));
  }
  const size_t n = ElementCount(*slot);
  const size_t count = std::min<size_t>(static_cast<size_t>(std::max(limit, 0)), n);
  std::vector<std::string> out = ListSlice(*slot, n - count, count);
  std::reverse(out.begin(), out.end());  // newest first
  return out;
}

Result<int64_t> KvStore::Incr(std::string_view key) {
  const Written written{this, key};
  Value* v = Mutable(key);
  if (v == nullptr) {
    map_.emplace(std::string(key), StringValue("1"));
    return int64_t{1};
  }
  auto* s = std::get_if<StringValue>(v);
  if (s == nullptr) {
    return Result<int64_t>(FailedPreconditionError("wrong type"));
  }
  int64_t current = 0;
  const auto [ptr, ec] = std::from_chars(s->data(), s->data() + s->size(), current);
  if (ec != std::errc{} || ptr != s->data() + s->size()) {
    return Result<int64_t>(FailedPreconditionError("value is not an integer"));
  }
  ++current;
  *s = std::to_string(current);
  return current;
}

Result<size_t> KvStore::Append(std::string_view key, std::string_view suffix) {
  const Written written{this, key};
  Value* v = Mutable(key);
  if (v == nullptr) {
    map_.emplace(std::string(key), StringValue(suffix));
    return suffix.size();
  }
  auto* s = std::get_if<StringValue>(v);
  if (s == nullptr) {
    return Result<size_t>(FailedPreconditionError("wrong type"));
  }
  s->append(suffix);
  return s->size();
}

Result<bool> KvStore::Setnx(std::string_view key, std::string_view value) {
  const Written written{this, key};
  if (Exists(key)) {
    return false;
  }
  map_.emplace(std::string(key), StringValue(value));
  return true;
}

Result<bool> KvStore::Hdel(std::string_view key, std::string_view field) {
  const Written written{this, key};
  Value* v = Mutable(key);
  if (v == nullptr) {
    return NotFoundError("no such key");
  }
  auto* h = std::get_if<HashValue>(v);
  if (h == nullptr) {
    return Result<bool>(FailedPreconditionError("wrong type"));
  }
  return h->erase(std::string(field)) > 0;
}

Result<std::string> KvStore::Lpop(std::string_view key) {
  const Written written{this, key};
  Value* v = Mutable(key);
  if (v == nullptr) {
    return NotFoundError("no such key");
  }
  auto* l = std::get_if<ListValue>(v);
  if (l == nullptr) {
    return Result<std::string>(FailedPreconditionError("wrong type"));
  }
  if (l->empty()) {
    return NotFoundError("empty list");
  }
  std::string out = std::move(l->front());
  l->pop_front();
  return out;
}

Result<size_t> KvStore::Llen(std::string_view key) const {
  const Slot* slot = Find(key);
  if (slot == nullptr) {
    return size_t{0};
  }
  if (slot->type() != kList) {
    return Result<size_t>(FailedPreconditionError("wrong type"));
  }
  return ElementCount(*slot);
}

Result<bool> KvStore::Sadd(std::string_view key, std::string_view member) {
  const Written written{this, key};
  Value* v = Mutable(key);
  if (v == nullptr) {
    SetValue set;
    set.emplace(member);
    map_.emplace(std::string(key), std::move(set));
    return true;
  }
  auto* set = std::get_if<SetValue>(v);
  if (set == nullptr) {
    return Result<bool>(FailedPreconditionError("wrong type"));
  }
  return set->emplace(member).second;
}

Result<bool> KvStore::Srem(std::string_view key, std::string_view member) {
  const Written written{this, key};
  Value* v = Mutable(key);
  if (v == nullptr) {
    return NotFoundError("no such key");
  }
  auto* set = std::get_if<SetValue>(v);
  if (set == nullptr) {
    return Result<bool>(FailedPreconditionError("wrong type"));
  }
  return set->erase(std::string(member)) > 0;
}

Result<bool> KvStore::Sismember(std::string_view key, std::string_view member) const {
  const Slot* slot = Find(key);
  if (slot == nullptr) {
    return false;
  }
  if (slot->type() != kSet) {
    return Result<bool>(FailedPreconditionError("wrong type"));
  }
  Value temp;
  return std::get<SetValue>(Decoded(*slot, temp)).count(std::string(member)) > 0;
}

Result<size_t> KvStore::Scard(std::string_view key) const {
  const Slot* slot = Find(key);
  if (slot == nullptr) {
    return size_t{0};
  }
  if (slot->type() != kSet) {
    return Result<size_t>(FailedPreconditionError("wrong type"));
  }
  return ElementCount(*slot);
}

namespace {

// The smallest encodings, which bound how many elements the remaining bytes
// can hold: a decoder reserves no more than that, so a forged count fails on
// the missing bytes instead of on the allocation.
constexpr size_t kMinMemberBytes = 4;                     // empty string
constexpr size_t kMinFieldBytes = 2 * kMinMemberBytes;    // field + value
constexpr size_t kMinEntryBytes = kMinMemberBytes + 1 + kMinMemberBytes;  // key, tag, ""

// Writes one key's entry to `out`: a BufferWriter, or one of the sinks below
// (EntryMatcher, EntrySizer, EntryDigest) that take the same calls.
template <typename Out>
void SerializeEntry(Out& out, const std::string& key, const KvStore::Value& value) {
  out.PutString(key);
  out.PutU8(static_cast<uint8_t>(value.index()));
  if (const auto* s = std::get_if<KvStore::StringValue>(&value)) {
    out.PutString(*s);
  } else if (const auto* h = std::get_if<KvStore::HashValue>(&value)) {
    out.PutU64(h->size());
    for (const auto& [field, v] : *h) {
      out.PutString(field);
      out.PutString(v);
    }
  } else if (const auto* l = std::get_if<KvStore::ListValue>(&value)) {
    out.PutU64(l->size());
    for (const std::string& item : *l) {
      out.PutString(item);
    }
  } else if (const auto* set = std::get_if<KvStore::SetValue>(&value)) {
    out.PutU64(set->size());
    for (const std::string& member : *set) {
      out.PutString(member);
    }
  }
}

// Compares the bytes SerializeEntry writes against a part in place, field by
// field: no allocation and no CRC pass.
class EntryMatcher {
 public:
  explicit EntryMatcher(const Body& part) : pos_(part.begin()), end_(part.end()) {}

  void PutU8(uint8_t v) { Match(&v, sizeof(v)); }
  void PutU64(uint64_t v) {
    v = LittleEndian(v);
    Match(&v, sizeof(v));
  }
  void PutString(std::string_view s) {
    const uint32_t len = LittleEndian(static_cast<uint32_t>(s.size()));
    Match(&len, sizeof(len));
    Match(s.data(), s.size());
  }
  void PutBytes(std::span<const uint8_t> bytes) { Match(bytes.data(), bytes.size()); }

  // Whether the part held exactly the bytes put, and nothing after them.
  bool matched() const { return ok_ && pos_ == end_; }

 private:
  void Match(const void* bytes, size_t n) {
    ok_ = ok_ && static_cast<size_t>(end_ - pos_) >= n && std::memcmp(pos_, bytes, n) == 0;
    if (ok_) {
      pos_ += n;
    }
  }

  const uint8_t* pos_;
  const uint8_t* end_;
  bool ok_ = true;
};

// Counts the bytes SerializeEntry writes.
class EntrySizer {
 public:
  void PutU8(uint8_t) { size_ += 1; }
  void PutU64(uint64_t) { size_ += 8; }
  void PutString(std::string_view s) { size_ += 4 + s.size(); }
  void PutBytes(std::span<const uint8_t> bytes) { size_ += bytes.size(); }
  size_t size() const { return size_; }

 private:
  size_t size_ = 0;
};

// One key's ContentDigest term, folded from the strings SerializeEntry puts
// (the key first), so an encoded part is hashed in place. Hash fields and
// set members fold in order-insensitively, list items in order.
class EntryDigest {
 public:
  void PutU8(uint8_t tag) {
    tag_ = tag;
    seq_ = h_ ^ 3;
  }
  void PutU64(uint64_t) {}
  void PutString(std::string_view s) {
    if (!keyed_) {
      h_ = Fnv1aHash(s);
      keyed_ = true;
      return;
    }
    switch (tag_) {
      case kString:
        h_ = Fnv1aHash(s, h_ ^ 1);
        break;
      case kHash:
        if (field_) {
          field_seed_ = Fnv1aHash(s) ^ 2;
        } else {
          inner_ ^= Fnv1aHash(s, field_seed_);
        }
        field_ = !field_;
        break;
      case kList:
        seq_ = Fnv1aHash(s, seq_);
        break;
      default:
        inner_ ^= Fnv1aHash(s, h_ ^ 4);
        break;
    }
  }
  // u32-prefixed strings, back to back.
  void PutBytes(std::span<const uint8_t> bytes) {
    BufferReader in(bytes);
    while (!in.AtEnd()) {
      std::string_view s;
      HC_CHECK(in.GetStringView(s).ok());
      PutString(s);
    }
  }
  uint64_t term() const { return tag_ == kList ? seq_ : h_ ^ inner_; }

 private:
  uint8_t tag_ = kString;
  bool keyed_ = false;
  bool field_ = true;  // a hash's next string is a field
  uint64_t h_ = 0;
  uint64_t seq_ = 0;
  uint64_t inner_ = 0;
  uint64_t field_seed_ = 0;
};

// An entry's tag and value, after its key.
Status DeserializeValue(BufferReader& in, KvStore::Value& value) {
  uint8_t tag = 0;
  if (Status s = in.GetU8(tag); !s.ok()) {
    return s;
  }
  switch (tag) {
    case kString: {
      std::string v;
      if (Status s = in.GetString(v); !s.ok()) {
        return s;
      }
      value = std::move(v);
      return Status::Ok();
    }
    case kHash: {
      uint64_t n = 0;
      if (Status s = in.GetU64(n); !s.ok()) {
        return s;
      }
      KvStore::HashValue h;
      h.reserve(std::min<uint64_t>(n, in.remaining() / kMinFieldBytes));
      for (uint64_t j = 0; j < n; ++j) {
        std::string field;
        std::string v;
        if (Status s = in.GetString(field); !s.ok()) {
          return s;
        }
        if (Status s = in.GetString(v); !s.ok()) {
          return s;
        }
        h.emplace(std::move(field), std::move(v));
      }
      value = std::move(h);
      return Status::Ok();
    }
    case kList: {
      uint64_t n = 0;
      if (Status s = in.GetU64(n); !s.ok()) {
        return s;
      }
      KvStore::ListValue l;
      for (uint64_t j = 0; j < n; ++j) {
        std::string item;
        if (Status s = in.GetString(item); !s.ok()) {
          return s;
        }
        l.push_back(std::move(item));
      }
      value = std::move(l);
      return Status::Ok();
    }
    case kSet: {
      uint64_t n = 0;
      if (Status s = in.GetU64(n); !s.ok()) {
        return s;
      }
      KvStore::SetValue set;
      set.reserve(std::min<uint64_t>(n, in.remaining() / kMinMemberBytes));
      for (uint64_t j = 0; j < n; ++j) {
        std::string member;
        if (Status s = in.GetString(member); !s.ok()) {
          return s;
        }
        set.insert(std::move(member));
      }
      value = std::move(set);
      return Status::Ok();
    }
    default:
      return InvalidArgumentError("unknown kv value tag");
  }
}

Status DeserializeEntry(BufferReader& in, std::string& key, KvStore::Value& value) {
  if (Status s = in.GetString(key); !s.ok()) {
    return s;
  }
  return DeserializeValue(in, value);
}

// A clean key's value, decoded from its part (which SerializeEntry wrote).
KvStore::Value DecodePart(const Body& part) {
  BufferReader in(part.bytes());
  std::string_view key;
  HC_CHECK(in.GetStringView(key).ok());
  KvStore::Value value;
  HC_CHECK(DeserializeValue(in, value).ok());
  return value;
}

}  // namespace

template <typename Out>
void KvStore::Slot::Encode(Out& out, const std::string& key) const {
  if (part == nullptr) {
    SerializeEntry(out, key, value);
    return;
  }
  const EntryReader r(part);
  out.PutString(key);
  out.PutU8(r.tag());
  if (r.tag() != kString) {
    out.PutU64(ElementCount(*this));
  }
  // The part's elements: a prefixed list's up to its prefix.
  const size_t end = prefixed() ? prefix_end : part.size();
  out.PutBytes(part.bytes().subspan(r.offset(), end - r.offset()));
  if (const auto* tail = std::get_if<ListValue>(&value)) {  // a prefixed list's
    for (const std::string& item : *tail) {
      out.PutString(item);
    }
  }
}

size_t KvStore::Slot::EncodedSize(const std::string& key) const {
  EntrySizer sizer;
  Encode(sizer, key);
  return sizer.size();
}

uint64_t KvStore::ContentDigest() const {
  uint64_t digest = 0;
  for (const auto& [key, slot] : map_) {
    EntryDigest term;
    slot.Encode(term, key);
    digest ^= term.term();  // order-insensitive across keys
  }
  return digest;
}

KvStore::Value* KvStore::Mutable(std::string_view key) {
  auto it = map_.find(key);
  if (it == map_.end()) {
    return nullptr;
  }
  Slot& slot = it->second;
  if (slot.prefixed()) {
    ListValue l;
    EntryReader r(slot.part);
    for (uint32_t i = 0; i < slot.prefix; ++i) {
      l.emplace_back(r.Next());
    }
    if (auto* tail = std::get_if<ListValue>(&slot.value)) {
      for (std::string& item : *tail) {
        l.push_back(std::move(item));
      }
    }
    slot.value = std::move(l);
    slot.part = nullptr;
  } else if (slot.clean()) {
    slot.value = DecodePart(slot.part);
    slot.part = nullptr;
  }
  return &slot.value;
}

bool KvStore::Replay(Slot& slot, std::string_view item) {
  BufferReader rest(slot.part.bytes().subspan(slot.prefix_end));
  std::string_view next;
  if (!rest.GetStringView(next).ok() || next != item) {
    return false;
  }
  ++slot.prefix;
  slot.prefix_end = static_cast<uint32_t>(slot.part.size() - rest.remaining());
  if (rest.AtEnd()) {
    // Replayed in full (a replaying prefix has no tail): clean, the part
    // its only copy.
    slot.prefix = 0;
    slot.prefix_end = 0;
  }
  return true;
}

const KvStore::Value& KvStore::Decoded(const Slot& slot, Value& temp) {
  if (!slot.clean()) {
    return slot.value;
  }
  temp = DecodePart(slot.part);
  return temp;
}

void KvStore::SerializeTo(BufferWriter& out) const {
  out.PutU64(map_.size());
  for (const auto& [key, slot] : map_) {
    slot.Encode(out, key);
  }
}

bool KvStore::AdoptPublished(const std::string& key, const Slot& slot) const {
  const Image::Part* published = shared_ != nullptr ? shared_->Find(key) : nullptr;
  // The size check rules out the usual stale part, a list before its latest
  // append, without comparing its bytes.
  if (published == nullptr || published->bytes.size() != slot.EncodedSize(key)) {
    return false;
  }
  EntryMatcher matcher(published->bytes);
  slot.Encode(matcher, key);
  if (!matcher.matched()) {
    return false;
  }
  // Another replica encoded these very bytes: hold its part, as the key's
  // only copy.
  slot.Hold(published->bytes, published->crc);
  return true;
}

void KvStore::AdoptBeforeFirstImage(std::string_view key) {
  // After the first image a key stays dirty until the next one: adopting
  // then would make its next write decode the whole value again.
  if (shared_ == nullptr || imaged_) {
    return;
  }
  // A prefixed list holds a part already, and adopts at the image.
  auto it = map_.find(key);
  if (it != map_.end() && it->second.part == nullptr) {
    AdoptPublished(it->first, it->second);
  }
}

Image KvStore::SerializeImage(BufferWriter head) const {
  imaged_ = true;
  head.PutU64(map_.size());
  Image image;
  image.Reserve(1 + map_.size());
  const Body head_part = head.TakeBody();
  image.Append(head_part, Crc32c(head_part.bytes()));
  for (const auto& [key, slot] : map_) {
    if (!slot.clean() && !AdoptPublished(key, slot)) {
      const size_t size = slot.EncodedSize(key);
      BufferWriter w(size);
      slot.Encode(w, key);
      HC_CHECK_EQ(w.size(), size);
      Body part = w.TakeBody();
      // Checksummed now, while the bytes are still in cache.
      const uint32_t crc = Crc32c(part.bytes());
      if (shared_ != nullptr) {
        shared_->Publish(key, Image::Part{part, crc});
      }
      slot.Hold(std::move(part), crc);  // the part is now the key's only copy
    }
    image.Append(slot.part, slot.crc);
  }
  return image;
}

Status KvStore::DeserializeFrom(BufferReader& in) {
  uint64_t count = 0;
  if (Status s = in.GetU64(count); !s.ok()) {
    return s;
  }
  decltype(map_) fresh;
  fresh.reserve(std::min<uint64_t>(count, in.remaining() / kMinEntryBytes));
  for (uint64_t i = 0; i < count; ++i) {
    std::string key;
    Value value;
    if (Status s = DeserializeEntry(in, key, value); !s.ok()) {
      return s;
    }
    fresh.insert_or_assign(std::move(key), Slot(std::move(value)));
  }
  map_ = std::move(fresh);
  return Status::Ok();
}

Body KvStore::SerializePart(const KeyPredicate& pred) const {
  std::vector<const decltype(map_)::value_type*> matched;
  size_t size = 8;
  for (const auto& entry : map_) {
    if (pred(entry.first)) {
      matched.push_back(&entry);
      size += entry.second.EncodedSize(entry.first);
    }
  }
  BufferWriter out(size);
  out.PutU64(matched.size());
  for (const auto* entry : matched) {
    entry->second.Encode(out, entry->first);
  }
  HC_CHECK_EQ(out.size(), size);
  return out.TakeBody();
}

Status KvStore::MergeFrom(BufferReader& in) {
  uint64_t count = 0;
  if (Status s = in.GetU64(count); !s.ok()) {
    return s;
  }
  for (uint64_t i = 0; i < count; ++i) {
    std::string key;
    Value value;
    if (Status s = DeserializeEntry(in, key, value); !s.ok()) {
      return s;
    }
    map_.insert_or_assign(std::move(key), Slot(std::move(value)));
  }
  return Status::Ok();
}

size_t KvStore::EraseIf(const KeyPredicate& pred) {
  size_t erased = 0;
  for (auto it = map_.begin(); it != map_.end();) {
    if (pred(it->first)) {
      it = map_.erase(it);
      ++erased;
    } else {
      ++it;
    }
  }
  return erased;
}

}  // namespace hovercraft
