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

size_t KvStore::Slot::type() const { return clean() ? EntryReader(part).tag() : value.index(); }

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
  if (slot.clean()) {
    EntryReader r(slot.part);
    r.Skip(first);
    for (size_t i = 0; i < count; ++i) {
      out.emplace_back(r.Next());
    }
  } else {
    const auto& l = std::get<ListValue>(slot.value);
    const auto begin = l.begin() + static_cast<ptrdiff_t>(first);
    out.assign(begin, begin + static_cast<ptrdiff_t>(count));
  }
  return out;
}

size_t KvStore::ElementCount(const Slot& slot) {
  if (slot.clean()) {
    return EntryReader(slot.part).count();
  }
  return std::visit([](const auto& v) { return v.size(); }, slot.value);
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
  Value* v = Mutable(key);
  if (v == nullptr) {
    ListValue l;
    l.emplace_back(value);
    map_.emplace(std::string(key), std::move(l));
    return size_t{1};
  }
  auto* l = std::get_if<ListValue>(v);
  if (l == nullptr) {
    return Result<size_t>(FailedPreconditionError("wrong type"));
  }
  l->emplace_back(value);
  return l->size();
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

uint64_t KvStore::ContentDigest() const {
  uint64_t digest = 0;
  for (const auto& [key, slot] : map_) {
    Value temp;
    const Value& value = Decoded(slot, temp);
    uint64_t h = Fnv1aHash(key);
    if (const auto* s = std::get_if<StringValue>(&value)) {
      h = Fnv1aHash(*s, h ^ 1);
    } else if (const auto* hv = std::get_if<HashValue>(&value)) {
      uint64_t inner = 0;
      for (const auto& [f, val] : *hv) {
        inner ^= Fnv1aHash(val, Fnv1aHash(f) ^ 2);
      }
      h ^= inner;
    } else if (const auto* l = std::get_if<ListValue>(&value)) {
      uint64_t seq = h ^ 3;
      for (const std::string& item : *l) {
        seq = Fnv1aHash(item, seq);
      }
      h = seq;
    } else if (const auto* set = std::get_if<SetValue>(&value)) {
      uint64_t inner = 0;
      for (const std::string& member : *set) {
        inner ^= Fnv1aHash(member, h ^ 4);  // order-insensitive within the set
      }
      h ^= inner;
    }
    digest ^= h;  // order-insensitive across keys
  }
  return digest;
}

namespace {

// The smallest encodings, which bound how many elements the remaining bytes
// can hold: a decoder reserves no more than that, so a forged count fails on
// the missing bytes instead of on the allocation.
constexpr size_t kMinMemberBytes = 4;                     // empty string
constexpr size_t kMinFieldBytes = 2 * kMinMemberBytes;    // field + value
constexpr size_t kMinEntryBytes = kMinMemberBytes + 1 + kMinMemberBytes;  // key, tag, ""

// Writes one key's entry to `out`: a BufferWriter, or an EntryMatcher that
// compares the same bytes against a published part.
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

// Bytes SerializeEntry appends for one key: mirrors its layout field by
// field (u32-prefixed strings, u8 tag, u64 element counts).
size_t SerializedEntrySize(const std::string& key, const KvStore::Value& value) {
  constexpr size_t kLen = 4;
  constexpr size_t kCount = 8;
  size_t n = kLen + key.size() + 1;
  if (const auto* s = std::get_if<KvStore::StringValue>(&value)) {
    n += kLen + s->size();
  } else if (const auto* h = std::get_if<KvStore::HashValue>(&value)) {
    n += kCount;
    for (const auto& [field, v] : *h) {
      n += kLen + field.size() + kLen + v.size();
    }
  } else if (const auto* l = std::get_if<KvStore::ListValue>(&value)) {
    n += kCount;
    for (const std::string& item : *l) {
      n += kLen + item.size();
    }
  } else if (const auto* set = std::get_if<KvStore::SetValue>(&value)) {
    n += kCount;
    for (const std::string& member : *set) {
      n += kLen + member.size();
    }
  }
  return n;
}

// Whether `part` holds exactly the bytes SerializeEntry writes for the key.
bool Matches(const Body& part, const std::string& key, const KvStore::Value& value) {
  EntryMatcher matcher(part);
  SerializeEntry(matcher, key, value);
  return matcher.matched();
}

}  // namespace

size_t KvStore::Slot::EncodedSize(const std::string& key) const {
  return clean() ? part.size() : SerializedEntrySize(key, value);
}

void KvStore::Slot::EncodeTo(BufferWriter& out, const std::string& key) const {
  if (clean()) {
    out.PutBytes(part.bytes());
  } else {
    SerializeEntry(out, key, value);
  }
}

KvStore::Value* KvStore::Mutable(std::string_view key) {
  auto it = map_.find(key);
  if (it == map_.end()) {
    return nullptr;
  }
  Slot& slot = it->second;
  if (slot.clean()) {
    slot.value = DecodePart(slot.part);
    slot.part = nullptr;
  }
  return &slot.value;
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
    slot.EncodeTo(out, key);
  }
}

bool KvStore::AdoptPublished(const std::string& key, const Slot& slot) const {
  const Image::Part* published = shared_ != nullptr ? shared_->Find(key) : nullptr;
  // The size check rules out the usual stale part, a list before its latest
  // append, without comparing its bytes.
  if (published == nullptr || published->bytes.size() != SerializedEntrySize(key, slot.value) ||
      !Matches(published->bytes, key, slot.value)) {
    return false;
  }
  // Another replica encoded these very bytes: hold its part, as the key's
  // only copy.
  slot.part = published->bytes;
  slot.crc = published->crc;
  slot.value = Value{};
  return true;
}

void KvStore::AdoptBeforeFirstImage(std::string_view key) {
  // After the first image a key stays dirty until the next one: adopting
  // then would make its next write decode the whole value again.
  if (shared_ == nullptr || imaged_) {
    return;
  }
  auto it = map_.find(key);
  if (it != map_.end() && !it->second.clean()) {
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
      const size_t size = SerializedEntrySize(key, slot.value);
      BufferWriter w(size);
      SerializeEntry(w, key, slot.value);
      HC_CHECK_EQ(w.size(), size);
      slot.part = w.TakeBody();
      // Checksummed now, while the bytes are still in cache.
      slot.crc = Crc32c(slot.part.bytes());
      if (shared_ != nullptr) {
        shared_->Publish(key, Image::Part{slot.part, slot.crc});
      }
      slot.value = Value{};  // the part is now the key's only copy
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
    entry->second.EncodeTo(out, entry->first);
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
