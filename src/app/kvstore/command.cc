#include "src/app/kvstore/command.h"

#include <utility>

#include "src/common/buffer.h"

namespace hovercraft {

Body EncodeKvCommand(const KvCommand& cmd) {
  BufferWriter w(cmd.key.size() + cmd.field.size() + cmd.value.size() + 32);
  w.PutU8(static_cast<uint8_t>(cmd.op));
  w.PutString(cmd.key);
  switch (cmd.op) {
    case KvOpcode::kSet:
    case KvOpcode::kRpush:
    case KvOpcode::kYInsert:
    case KvOpcode::kAppend:
    case KvOpcode::kSetnx:
    case KvOpcode::kSadd:
    case KvOpcode::kSrem:
    case KvOpcode::kSismember:
      w.PutString(cmd.value);
      break;
    case KvOpcode::kHset:
      w.PutString(cmd.field);
      w.PutString(cmd.value);
      break;
    case KvOpcode::kHget:
    case KvOpcode::kHdel:
      w.PutString(cmd.field);
      break;
    case KvOpcode::kLrange:
      w.PutU32(static_cast<uint32_t>(cmd.range_start));
      w.PutU32(static_cast<uint32_t>(cmd.range_stop));
      break;
    case KvOpcode::kYScan:
      w.PutU32(static_cast<uint32_t>(cmd.scan_limit));
      break;
    case KvOpcode::kGet:
    case KvOpcode::kDel:
    case KvOpcode::kIncr:
    case KvOpcode::kExists:
    case KvOpcode::kLpop:
    case KvOpcode::kLlen:
    case KvOpcode::kScard:
      break;
  }
  return w.TakeBody();
}

Result<KvCommand> DecodeKvCommand(const Body& body) {
  if (body == nullptr) {
    return InvalidArgumentError("null command body");
  }
  BufferReader r(*body);
  uint8_t op_raw = 0;
  if (Status s = r.GetU8(op_raw); !s.ok()) {
    return s;
  }
  if (op_raw > static_cast<uint8_t>(KvOpcode::kScard)) {
    return InvalidArgumentError("unknown kv opcode");
  }
  KvCommand cmd;
  cmd.op = static_cast<KvOpcode>(op_raw);
  if (Status s = r.GetString(cmd.key); !s.ok()) {
    return s;
  }
  Status s = Status::Ok();
  switch (cmd.op) {
    case KvOpcode::kSet:
    case KvOpcode::kRpush:
    case KvOpcode::kYInsert:
    case KvOpcode::kAppend:
    case KvOpcode::kSetnx:
    case KvOpcode::kSadd:
    case KvOpcode::kSrem:
    case KvOpcode::kSismember:
      s = r.GetString(cmd.value);
      break;
    case KvOpcode::kHset:
      s = r.GetString(cmd.field);
      if (s.ok()) {
        s = r.GetString(cmd.value);
      }
      break;
    case KvOpcode::kHget:
    case KvOpcode::kHdel:
      s = r.GetString(cmd.field);
      break;
    case KvOpcode::kLrange: {
      uint32_t a = 0;
      uint32_t b = 0;
      s = r.GetU32(a);
      if (s.ok()) {
        s = r.GetU32(b);
      }
      cmd.range_start = static_cast<int32_t>(a);
      cmd.range_stop = static_cast<int32_t>(b);
      break;
    }
    case KvOpcode::kYScan: {
      uint32_t limit = 0;
      s = r.GetU32(limit);
      cmd.scan_limit = static_cast<int32_t>(limit);
      break;
    }
    case KvOpcode::kGet:
    case KvOpcode::kDel:
    case KvOpcode::kIncr:
    case KvOpcode::kExists:
    case KvOpcode::kLpop:
    case KvOpcode::kLlen:
    case KvOpcode::kScard:
      break;
  }
  if (!s.ok()) {
    return s;
  }
  return cmd;
}

Body EncodeKvReply(const KvReply& reply) {
  size_t reserve = 8;
  for (const std::string& v : reply.values) {
    reserve += v.size() + 4;
  }
  BufferWriter w(reserve);
  w.PutU8(static_cast<uint8_t>(reply.status));
  w.PutU32(static_cast<uint32_t>(reply.values.size()));
  for (const std::string& v : reply.values) {
    w.PutString(v);
  }
  return w.TakeBody();
}

Result<KvReply> DecodeKvReply(const Body& body) {
  if (body == nullptr) {
    return InvalidArgumentError("null reply body");
  }
  BufferReader r(*body);
  uint8_t status_raw = 0;
  if (Status s = r.GetU8(status_raw); !s.ok()) {
    return s;
  }
  if (status_raw > static_cast<uint8_t>(KvReplyStatus::kError)) {
    return InvalidArgumentError("unknown kv reply status");
  }
  KvReply reply;
  reply.status = static_cast<KvReplyStatus>(status_raw);
  uint32_t count = 0;
  if (Status s = r.GetU32(count); !s.ok()) {
    return s;
  }
  reply.values.resize(count);
  for (uint32_t i = 0; i < count; ++i) {
    if (Status s = r.GetString(reply.values[i]); !s.ok()) {
      return s;
    }
  }
  return reply;
}

}  // namespace hovercraft
