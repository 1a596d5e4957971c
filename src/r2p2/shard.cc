#include "src/r2p2/shard.h"

#include <span>
#include <utility>

namespace hovercraft {

uint64_t ShardKeyHash(std::string_view key) {
  // FNV-1a 64-bit.
  uint64_t h = 0xCBF29CE484222325ull;
  for (char c : key) {
    h ^= static_cast<uint8_t>(c);
    h *= 0x100000001B3ull;
  }
  return h;
}

uint64_t ShardCtlKeyOf(uint64_t move_id, ShardOpKind kind) {
  // Step ordinals within one move; the two abort ops share the top ordinal
  // (they target different groups) so an abort fences every parked op of its
  // own move.
  uint64_t step = 0;
  switch (kind) {
    case ShardOpKind::kFreeze:
      step = 0;
      break;
    case ShardOpKind::kInstall:
      step = 1;
      break;
    case ShardOpKind::kGc:
      step = 2;
      break;
    case ShardOpKind::kUnfreeze:
    case ShardOpKind::kUninstall:
      step = 3;
      break;
  }
  return move_id * 4 + step;
}

Body EncodeShardOp(const ShardOp& op) {
  BufferWriter w(40 + (op.payload == nullptr ? 0 : op.payload->size()));
  w.PutU8(static_cast<uint8_t>(op.kind));
  w.PutU64(op.move_id);
  w.PutU32(op.lo);
  w.PutU32(op.hi);
  if (op.payload == nullptr) {
    w.PutU32(0);
  } else {
    w.PutU32(static_cast<uint32_t>(op.payload->size()));
    w.PutBytes(op.payload->bytes());
  }
  return w.TakeBody();
}

Status DecodeShardOp(const Body& body, ShardOp* out) {
  if (body == nullptr) {
    return InvalidArgumentError("shard op with no body");
  }
  BufferReader r(body->bytes());
  uint8_t kind = 0;
  uint32_t payload_len = 0;
  if (Status s = r.GetU8(kind); !s.ok()) {
    return s;
  }
  if (kind > static_cast<uint8_t>(ShardOpKind::kUninstall)) {
    return InvalidArgumentError("bad shard op kind");
  }
  if (Status s = r.GetU64(out->move_id); !s.ok()) {
    return s;
  }
  if (Status s = r.GetU32(out->lo); !s.ok()) {
    return s;
  }
  if (Status s = r.GetU32(out->hi); !s.ok()) {
    return s;
  }
  if (out->lo > out->hi || out->hi >= kShardSlots) {
    return InvalidArgumentError("bad shard op slot range");
  }
  if (Status s = r.GetU32(payload_len); !s.ok()) {
    return s;
  }
  std::span<const uint8_t> payload;
  if (Status s = r.GetBytes(payload_len, payload); !s.ok()) {
    return s;
  }
  out->kind = static_cast<ShardOpKind>(kind);
  // The payload (a range capture, possibly large) shares the op's storage.
  out->payload = payload_len == 0
                     ? Body(nullptr)
                     : body.Slice(static_cast<size_t>(payload.data() - body.data()), payload_len);
  if (!r.AtEnd()) {
    return InvalidArgumentError("trailing bytes after shard op");
  }
  return Status::Ok();
}

void ShardServeState::Freeze(uint32_t lo, uint32_t hi) {
  for (uint32_t s = lo; s <= hi && s < kShardSlots; ++s) {
    frozen_.insert(s);
  }
}

void ShardServeState::Drop(uint32_t lo, uint32_t hi) {
  for (uint32_t s = lo; s <= hi && s < kShardSlots; ++s) {
    frozen_.erase(s);
    dropped_.insert(s);
  }
}

void ShardServeState::Install(uint32_t lo, uint32_t hi) {
  for (uint32_t s = lo; s <= hi && s < kShardSlots; ++s) {
    frozen_.erase(s);
    dropped_.erase(s);
  }
}

void ShardServeState::Unfreeze(uint32_t lo, uint32_t hi) {
  for (uint32_t s = lo; s <= hi && s < kShardSlots; ++s) {
    frozen_.erase(s);
  }
}

bool ShardServeState::AdvanceCtlWatermark(uint64_t key) {
  if (key <= ctl_watermark_) {
    return false;
  }
  ctl_watermark_ = key;
  return true;
}

void ShardServeState::Serialize(BufferWriter* w) const {
  w->PutU64(ctl_watermark_);
  w->PutU32(static_cast<uint32_t>(frozen_.size()));
  for (uint32_t s : frozen_) {
    w->PutU32(s);
  }
  w->PutU32(static_cast<uint32_t>(dropped_.size()));
  for (uint32_t s : dropped_) {
    w->PutU32(s);
  }
}

Status ShardServeState::Restore(BufferReader* r) {
  std::set<uint32_t> frozen;
  std::set<uint32_t> dropped;
  uint64_t watermark = 0;
  uint32_t n = 0;
  if (Status s = r->GetU64(watermark); !s.ok()) {
    return s;
  }
  if (Status s = r->GetU32(n); !s.ok()) {
    return s;
  }
  if (n > kShardSlots) {
    return InvalidArgumentError("bad frozen slot count");
  }
  for (uint32_t i = 0; i < n; ++i) {
    uint32_t slot = 0;
    if (Status s = r->GetU32(slot); !s.ok()) {
      return s;
    }
    frozen.insert(slot);
  }
  if (Status s = r->GetU32(n); !s.ok()) {
    return s;
  }
  if (n > kShardSlots) {
    return InvalidArgumentError("bad dropped slot count");
  }
  for (uint32_t i = 0; i < n; ++i) {
    uint32_t slot = 0;
    if (Status s = r->GetU32(slot); !s.ok()) {
      return s;
    }
    dropped.insert(slot);
  }
  frozen_ = std::move(frozen);
  dropped_ = std::move(dropped);
  ctl_watermark_ = watermark;
  return Status::Ok();
}

}  // namespace hovercraft
