#include "src/app/lock_service.h"

#include <algorithm>
#include <utility>

#include "src/common/buffer.h"
#include "src/common/check.h"

namespace hovercraft {

Body EncodeLockCommand(const LockCommand& cmd) {
  BufferWriter w(cmd.lock.size() + cmd.owner.size() + 16);
  w.PutU8(static_cast<uint8_t>(cmd.op));
  w.PutString(cmd.lock);
  w.PutString(cmd.owner);
  return w.TakeBody();
}

Result<LockCommand> DecodeLockCommand(const Body& body) {
  if (body == nullptr) {
    return InvalidArgumentError("null lock command");
  }
  BufferReader r(*body);
  uint8_t op = 0;
  if (Status s = r.GetU8(op); !s.ok()) {
    return s;
  }
  if (op > static_cast<uint8_t>(LockOpcode::kGetHolder)) {
    return InvalidArgumentError("unknown lock opcode");
  }
  LockCommand cmd;
  cmd.op = static_cast<LockOpcode>(op);
  if (Status s = r.GetString(cmd.lock); !s.ok()) {
    return s;
  }
  if (Status s = r.GetString(cmd.owner); !s.ok()) {
    return s;
  }
  if (cmd.lock.empty()) {
    return InvalidArgumentError("empty lock name");
  }
  return cmd;
}

Body EncodeLockReply(const LockReply& reply) {
  BufferWriter w(reply.holder.size() + 16);
  w.PutU8(static_cast<uint8_t>(reply.status));
  w.PutString(reply.holder);
  w.PutU64(reply.fencing_token);
  return w.TakeBody();
}

Result<LockReply> DecodeLockReply(const Body& body) {
  if (body == nullptr) {
    return InvalidArgumentError("null lock reply");
  }
  BufferReader r(*body);
  uint8_t status = 0;
  if (Status s = r.GetU8(status); !s.ok()) {
    return s;
  }
  if (status > static_cast<uint8_t>(LockReplyStatus::kError)) {
    return InvalidArgumentError("unknown lock reply status");
  }
  LockReply reply;
  reply.status = static_cast<LockReplyStatus>(status);
  if (Status s = r.GetString(reply.holder); !s.ok()) {
    return s;
  }
  if (Status s = r.GetU64(reply.fencing_token); !s.ok()) {
    return s;
  }
  return reply;
}

LockReply LockService::Apply(const LockCommand& cmd) {
  LockReply reply;
  switch (cmd.op) {
    case LockOpcode::kAcquire: {
      auto it = holders_.find(cmd.lock);
      if (it == holders_.end()) {
        const uint64_t token = next_token_++;
        holders_.emplace(cmd.lock, Holder{cmd.owner, token});
        reply.status = LockReplyStatus::kGranted;
        reply.holder = cmd.owner;
        reply.fencing_token = token;
      } else if (it->second.owner == cmd.owner) {
        // Re-acquisition by the holder is idempotent (same token), so a
        // client retrying a lost reply does not deadlock against itself.
        reply.status = LockReplyStatus::kGranted;
        reply.holder = cmd.owner;
        reply.fencing_token = it->second.token;
      } else {
        reply.status = LockReplyStatus::kHeld;
        reply.holder = it->second.owner;
        reply.fencing_token = it->second.token;
      }
      break;
    }
    case LockOpcode::kRelease: {
      auto it = holders_.find(cmd.lock);
      if (it != holders_.end() && it->second.owner == cmd.owner) {
        holders_.erase(it);
        reply.status = LockReplyStatus::kReleased;
      } else {
        reply.status = LockReplyStatus::kNotHolder;
        if (it != holders_.end()) {
          reply.holder = it->second.owner;
        }
      }
      break;
    }
    case LockOpcode::kGetHolder: {
      auto it = holders_.find(cmd.lock);
      if (it == holders_.end()) {
        reply.status = LockReplyStatus::kFree;
      } else {
        reply.status = LockReplyStatus::kHolder;
        reply.holder = it->second.owner;
        reply.fencing_token = it->second.token;
      }
      break;
    }
  }
  return reply;
}

ExecResult LockService::Execute(const RpcRequest& request) {
  Result<LockCommand> cmd = DecodeLockCommand(request.body());
  HC_CHECK(cmd.ok());
  HC_CHECK(!request.read_only() || cmd.value().IsReadOnly());
  const LockReply reply = Apply(cmd.value());
  if (!cmd.value().IsReadOnly()) {
    ++applied_;
  }
  const TimeNs cost =
      kBaseNs + static_cast<TimeNs>(kNameByteNs * static_cast<double>(cmd.value().lock.size() +
                                                                       cmd.value().owner.size()));
  return ExecResult{cost, EncodeLockReply(reply)};
}

uint64_t LockService::Digest() const {
  uint64_t digest = Fnv1aHash("lock-service") ^ next_token_ ^ (applied_ << 17);
  for (const auto& [lock, holder] : holders_) {
    digest ^= Fnv1aHash(holder.owner, Fnv1aHash(lock) ^ holder.token);
  }
  return digest;
}

Body LockService::SnapshotState() const {
  BufferWriter w(64 + holders_.size() * 48);
  w.PutU64(next_token_);
  w.PutU64(applied_);
  w.PutU64(holders_.size());
  for (const auto& [lock, holder] : holders_) {
    w.PutString(lock);
    w.PutString(holder.owner);
    w.PutU64(holder.token);
  }
  return w.TakeBody();
}

Status LockService::RestoreState(const Body& snapshot) {
  if (snapshot == nullptr) {
    return InvalidArgumentError("null snapshot");
  }
  BufferReader r(*snapshot);
  uint64_t next_token = 0;
  uint64_t applied = 0;
  uint64_t count = 0;
  if (Status s = r.GetU64(next_token); !s.ok()) {
    return s;
  }
  if (Status s = r.GetU64(applied); !s.ok()) {
    return s;
  }
  if (Status s = r.GetU64(count); !s.ok()) {
    return s;
  }
  // A holder encodes as two u32-prefixed strings and a u64 token, so the
  // remaining bytes bound the count: a forged one fails on the missing
  // bytes below instead of on the allocation.
  constexpr size_t kMinHolderBytes = 4 + 4 + 8;
  decltype(holders_) fresh;
  fresh.reserve(std::min<uint64_t>(count, r.remaining() / kMinHolderBytes));
  for (uint64_t i = 0; i < count; ++i) {
    std::string lock;
    Holder holder;
    if (Status s = r.GetString(lock); !s.ok()) {
      return s;
    }
    if (Status s = r.GetString(holder.owner); !s.ok()) {
      return s;
    }
    if (Status s = r.GetU64(holder.token); !s.ok()) {
      return s;
    }
    fresh.emplace(std::move(lock), std::move(holder));
  }
  holders_ = std::move(fresh);
  next_token_ = next_token;
  applied_ = applied;
  return Status::Ok();
}

}  // namespace hovercraft
