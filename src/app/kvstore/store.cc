#include "src/app/kvstore/store.h"

#include <algorithm>
#include <charconv>

#include "src/common/buffer.h"
#include "src/common/check.h"
#include "src/common/checksum.h"

namespace hovercraft {

const KvStore::Value* KvStore::Find(std::string_view key) const {
  auto it = map_.find(key);
  return it == map_.end() ? nullptr : &it->second.value;
}

KvStore::Value* KvStore::Find(std::string_view key) {
  auto it = map_.find(key);
  if (it == map_.end()) {
    return nullptr;
  }
  it->second.part = nullptr;
  return &it->second.value;
}

void KvStore::Set(std::string_view key, std::string_view value) {
  Slot& slot = map_[std::string(key)];
  slot.value = StringValue(value);
  slot.part = nullptr;
}

Result<std::string> KvStore::Get(std::string_view key) const {
  const Value* v = Find(key);
  if (v == nullptr) {
    return NotFoundError("no such key");
  }
  const auto* s = std::get_if<StringValue>(v);
  if (s == nullptr) {
    return FailedPreconditionError("wrong type");
  }
  return *s;
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
  Value* v = Find(key);
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
  const Value* v = Find(key);
  if (v == nullptr) {
    return NotFoundError("no such key");
  }
  const auto* h = std::get_if<HashValue>(v);
  if (h == nullptr) {
    return FailedPreconditionError("wrong type");
  }
  auto it = h->find(std::string(field));
  if (it == h->end()) {
    return NotFoundError("no such field");
  }
  return it->second;
}

Result<size_t> KvStore::Rpush(std::string_view key, std::string_view value) {
  Value* v = Find(key);
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
  const Value* v = Find(key);
  if (v == nullptr) {
    return NotFoundError("no such key");
  }
  const auto* l = std::get_if<ListValue>(v);
  if (l == nullptr) {
    return Result<std::vector<std::string>>(FailedPreconditionError("wrong type"));
  }
  const int64_t n = static_cast<int64_t>(l->size());
  int64_t a = start < 0 ? n + start : start;
  int64_t b = stop < 0 ? n + stop : stop;
  a = std::clamp<int64_t>(a, 0, n);
  b = std::clamp<int64_t>(b, -1, n - 1);
  std::vector<std::string> out;
  for (int64_t i = a; i <= b; ++i) {
    out.push_back((*l)[static_cast<size_t>(i)]);
  }
  return out;
}

Result<std::vector<std::string>> KvStore::ScanTail(std::string_view key, int32_t limit) const {
  const Value* v = Find(key);
  if (v == nullptr) {
    return NotFoundError("no such key");
  }
  const auto* l = std::get_if<ListValue>(v);
  if (l == nullptr) {
    return Result<std::vector<std::string>>(FailedPreconditionError("wrong type"));
  }
  const size_t count = std::min<size_t>(static_cast<size_t>(std::max(limit, 0)), l->size());
  std::vector<std::string> out;
  out.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    out.push_back((*l)[l->size() - 1 - i]);  // newest first
  }
  return out;
}


Result<int64_t> KvStore::Incr(std::string_view key) {
  Value* v = Find(key);
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
  Value* v = Find(key);
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
  if (Exists(key)) {
    return false;
  }
  map_.emplace(std::string(key), StringValue(value));
  return true;
}

Result<bool> KvStore::Hdel(std::string_view key, std::string_view field) {
  Value* v = Find(key);
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
  Value* v = Find(key);
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
  const Value* v = Find(key);
  if (v == nullptr) {
    return size_t{0};
  }
  const auto* l = std::get_if<ListValue>(v);
  if (l == nullptr) {
    return Result<size_t>(FailedPreconditionError("wrong type"));
  }
  return l->size();
}

Result<bool> KvStore::Sadd(std::string_view key, std::string_view member) {
  Value* v = Find(key);
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
  Value* v = Find(key);
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
  const Value* v = Find(key);
  if (v == nullptr) {
    return false;
  }
  const auto* set = std::get_if<SetValue>(v);
  if (set == nullptr) {
    return Result<bool>(FailedPreconditionError("wrong type"));
  }
  return set->count(std::string(member)) > 0;
}

Result<size_t> KvStore::Scard(std::string_view key) const {
  const Value* v = Find(key);
  if (v == nullptr) {
    return size_t{0};
  }
  const auto* set = std::get_if<SetValue>(v);
  if (set == nullptr) {
    return Result<size_t>(FailedPreconditionError("wrong type"));
  }
  return set->size();
}

uint64_t KvStore::ContentDigest() const {
  uint64_t digest = 0;
  for (const auto& [key, slot] : map_) {
    const Value& value = slot.value;
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

enum class ValueTag : uint8_t { kString = 0, kHash = 1, kList = 2, kSet = 3 };

// The smallest encodings, which bound how many elements the remaining bytes
// can hold: a decoder reserves no more than that, so a forged count fails on
// the missing bytes instead of on the allocation.
constexpr size_t kMinMemberBytes = 4;                     // empty string
constexpr size_t kMinFieldBytes = 2 * kMinMemberBytes;    // field + value
constexpr size_t kMinEntryBytes = kMinMemberBytes + 1 + kMinMemberBytes;  // key, tag, ""

void SerializeEntry(BufferWriter& out, const std::string& key, const KvStore::Value& value) {
  out.PutString(key);
  if (const auto* s = std::get_if<KvStore::StringValue>(&value)) {
    out.PutU8(static_cast<uint8_t>(ValueTag::kString));
    out.PutString(*s);
  } else if (const auto* h = std::get_if<KvStore::HashValue>(&value)) {
    out.PutU8(static_cast<uint8_t>(ValueTag::kHash));
    out.PutU64(h->size());
    for (const auto& [field, v] : *h) {
      out.PutString(field);
      out.PutString(v);
    }
  } else if (const auto* l = std::get_if<KvStore::ListValue>(&value)) {
    out.PutU8(static_cast<uint8_t>(ValueTag::kList));
    out.PutU64(l->size());
    for (const std::string& item : *l) {
      out.PutString(item);
    }
  } else if (const auto* set = std::get_if<KvStore::SetValue>(&value)) {
    out.PutU8(static_cast<uint8_t>(ValueTag::kSet));
    out.PutU64(set->size());
    for (const std::string& member : *set) {
      out.PutString(member);
    }
  }
}

Status DeserializeEntry(BufferReader& in, std::string& key, KvStore::Value& value) {
  uint8_t tag = 0;
  if (Status s = in.GetString(key); !s.ok()) {
    return s;
  }
  if (Status s = in.GetU8(tag); !s.ok()) {
    return s;
  }
  switch (static_cast<ValueTag>(tag)) {
    case ValueTag::kString: {
      std::string v;
      if (Status s = in.GetString(v); !s.ok()) {
        return s;
      }
      value = std::move(v);
      return Status::Ok();
    }
    case ValueTag::kHash: {
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
    case ValueTag::kList: {
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
    case ValueTag::kSet: {
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

}  // namespace

void KvStore::SerializeTo(BufferWriter& out) const {
  out.PutU64(map_.size());
  for (const auto& [key, slot] : map_) {
    SerializeEntry(out, key, slot.value);
  }
}

Image KvStore::SerializeImage(BufferWriter head) const {
  head.PutU64(map_.size());
  Image image;
  image.Reserve(1 + map_.size());
  const Body head_part = MakeBody(head.TakeBytes());
  image.Append(head_part, Crc32c(head_part.bytes()));
  for (const auto& [key, slot] : map_) {
    if (slot.part == nullptr) {
      const size_t size = SerializedEntrySize(key, slot.value);
      BufferWriter w(size);
      SerializeEntry(w, key, slot.value);
      HC_CHECK_EQ(w.size(), size);
      slot.part = MakeBody(w.TakeBytes());
      // Checksummed now, while the bytes are still in cache.
      slot.crc = Crc32c(slot.part.bytes());
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

std::vector<uint8_t> KvStore::SerializePart(const KeyPredicate& pred) const {
  std::vector<const decltype(map_)::value_type*> matched;
  size_t size = 8;
  for (const auto& entry : map_) {
    if (pred(entry.first)) {
      matched.push_back(&entry);
      size += SerializedEntrySize(entry.first, entry.second.value);
    }
  }
  BufferWriter out(size);
  out.PutU64(matched.size());
  for (const auto* entry : matched) {
    SerializeEntry(out, entry->first, entry->second.value);
  }
  HC_CHECK_EQ(out.size(), size);
  return out.TakeBytes();
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
