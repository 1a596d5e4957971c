#include "src/app/kvstore/service.h"

#include <utility>

#include "src/common/buffer.h"
#include "src/common/check.h"
#include "src/r2p2/shard.h"

namespace hovercraft {

KvReply KvService::Apply(const KvCommand& cmd, TimeNs* cost_out) {
  KvReply reply;
  TimeNs cost = kBaseNs;
  switch (cmd.op) {
    case KvOpcode::kSet: {
      store_.Set(cmd.key, cmd.value);
      cost += static_cast<TimeNs>(kWriteByteNs *
                                  static_cast<double>(cmd.key.size() + cmd.value.size()));
      break;
    }
    case KvOpcode::kGet: {
      Result<std::string> r = store_.Get(cmd.key);
      if (r.ok()) {
        cost += static_cast<TimeNs>(kReadByteNs * static_cast<double>(r.value().size()));
        reply.values.push_back(r.TakeValue());
      } else {
        reply.status = r.status().code() == StatusCode::kNotFound ? KvReplyStatus::kNotFound
                                                                  : KvReplyStatus::kWrongType;
      }
      break;
    }
    case KvOpcode::kDel: {
      if (!store_.Del(cmd.key)) {
        reply.status = KvReplyStatus::kNotFound;
      }
      break;
    }
    case KvOpcode::kHset: {
      Status s = store_.Hset(cmd.key, cmd.field, cmd.value);
      if (!s.ok()) {
        reply.status = KvReplyStatus::kWrongType;
      } else {
        cost += static_cast<TimeNs>(kWriteByteNs *
                                    static_cast<double>(cmd.field.size() + cmd.value.size()));
      }
      break;
    }
    case KvOpcode::kHget: {
      Result<std::string> r = store_.Hget(cmd.key, cmd.field);
      if (r.ok()) {
        cost += static_cast<TimeNs>(kReadByteNs * static_cast<double>(r.value().size()));
        reply.values.push_back(r.TakeValue());
      } else {
        reply.status = r.status().code() == StatusCode::kNotFound ? KvReplyStatus::kNotFound
                                                                  : KvReplyStatus::kWrongType;
      }
      break;
    }
    case KvOpcode::kRpush:
    case KvOpcode::kYInsert: {
      Result<size_t> r = store_.Rpush(cmd.key, cmd.value);
      if (!r.ok()) {
        reply.status = KvReplyStatus::kWrongType;
      } else {
        cost += static_cast<TimeNs>(kWriteByteNs * static_cast<double>(cmd.value.size()));
        reply.values.push_back(std::to_string(r.value()));
      }
      break;
    }
    case KvOpcode::kIncr: {
      Result<int64_t> r = store_.Incr(cmd.key);
      if (!r.ok()) {
        reply.status = KvReplyStatus::kWrongType;
      } else {
        reply.values.push_back(std::to_string(r.value()));
      }
      break;
    }
    case KvOpcode::kAppend: {
      Result<size_t> r = store_.Append(cmd.key, cmd.value);
      if (!r.ok()) {
        reply.status = KvReplyStatus::kWrongType;
      } else {
        cost += static_cast<TimeNs>(kWriteByteNs * static_cast<double>(cmd.value.size()));
        reply.values.push_back(std::to_string(r.value()));
      }
      break;
    }
    case KvOpcode::kSetnx: {
      Result<bool> r = store_.Setnx(cmd.key, cmd.value);
      if (r.value()) {
        cost += static_cast<TimeNs>(kWriteByteNs *
                                    static_cast<double>(cmd.key.size() + cmd.value.size()));
      }
      reply.values.push_back(r.value() ? "1" : "0");
      break;
    }
    case KvOpcode::kExists: {
      reply.values.push_back(store_.Exists(cmd.key) ? "1" : "0");
      break;
    }
    case KvOpcode::kHdel: {
      Result<bool> r = store_.Hdel(cmd.key, cmd.field);
      if (!r.ok()) {
        reply.status = r.status().code() == StatusCode::kNotFound ? KvReplyStatus::kNotFound
                                                                  : KvReplyStatus::kWrongType;
      } else {
        reply.values.push_back(r.value() ? "1" : "0");
      }
      break;
    }
    case KvOpcode::kLpop: {
      Result<std::string> r = store_.Lpop(cmd.key);
      if (!r.ok()) {
        reply.status = r.status().code() == StatusCode::kNotFound ? KvReplyStatus::kNotFound
                                                                  : KvReplyStatus::kWrongType;
      } else {
        cost += static_cast<TimeNs>(kReadByteNs * static_cast<double>(r.value().size()));
        reply.values.push_back(r.TakeValue());
      }
      break;
    }
    case KvOpcode::kLlen: {
      Result<size_t> r = store_.Llen(cmd.key);
      if (!r.ok()) {
        reply.status = KvReplyStatus::kWrongType;
      } else {
        reply.values.push_back(std::to_string(r.value()));
      }
      break;
    }
    case KvOpcode::kSadd: {
      Result<bool> r = store_.Sadd(cmd.key, cmd.value);
      if (!r.ok()) {
        reply.status = KvReplyStatus::kWrongType;
      } else {
        if (r.value()) {
          cost += static_cast<TimeNs>(kWriteByteNs * static_cast<double>(cmd.value.size()));
        }
        reply.values.push_back(r.value() ? "1" : "0");
      }
      break;
    }
    case KvOpcode::kSrem: {
      Result<bool> r = store_.Srem(cmd.key, cmd.value);
      if (!r.ok()) {
        reply.status = r.status().code() == StatusCode::kNotFound ? KvReplyStatus::kNotFound
                                                                  : KvReplyStatus::kWrongType;
      } else {
        reply.values.push_back(r.value() ? "1" : "0");
      }
      break;
    }
    case KvOpcode::kSismember: {
      Result<bool> r = store_.Sismember(cmd.key, cmd.value);
      if (!r.ok()) {
        reply.status = KvReplyStatus::kWrongType;
      } else {
        reply.values.push_back(r.value() ? "1" : "0");
      }
      break;
    }
    case KvOpcode::kScard: {
      Result<size_t> r = store_.Scard(cmd.key);
      if (!r.ok()) {
        reply.status = KvReplyStatus::kWrongType;
      } else {
        reply.values.push_back(std::to_string(r.value()));
      }
      break;
    }
    case KvOpcode::kLrange: {
      Result<std::vector<std::string>> r = store_.Lrange(cmd.key, cmd.range_start, cmd.range_stop);
      if (!r.ok()) {
        reply.status = r.status().code() == StatusCode::kNotFound ? KvReplyStatus::kNotFound
                                                                  : KvReplyStatus::kWrongType;
      } else {
        for (std::string& v : r.value()) {
          cost += kScanRecordNs +
                  static_cast<TimeNs>(kReadByteNs * static_cast<double>(v.size()));
          reply.values.push_back(std::move(v));
        }
      }
      break;
    }
    case KvOpcode::kYScan: {
      Result<std::vector<std::string>> r = store_.ScanTail(cmd.key, cmd.scan_limit);
      if (!r.ok()) {
        // An empty conversation is a normal YCSB-E outcome, not an error.
        reply.status = r.status().code() == StatusCode::kNotFound ? KvReplyStatus::kNotFound
                                                                  : KvReplyStatus::kWrongType;
        // Scans over missing threads still pay the probe.
        cost += kScanRecordNs;
      } else {
        for (std::string& v : r.value()) {
          cost += kScanRecordNs +
                  static_cast<TimeNs>(kReadByteNs * static_cast<double>(v.size()));
          reply.values.push_back(std::move(v));
        }
      }
      break;
    }
  }
  if (cost_out != nullptr) {
    *cost_out = cost;
  }
  return reply;
}

Image KvService::SnapshotImage() const {
  // [applied][mutation digest] ahead of the store's bytes. The head is fresh
  // every time; the store reuses the part of every key that did not change.
  BufferWriter head(24);
  head.PutU64(applied_);
  head.PutU64(mutation_digest_);
  return store_.SerializeImage(std::move(head));
}

Body KvService::SnapshotState() const { return SnapshotImage().Flatten(); }

Status KvService::RestoreState(const Body& snapshot) {
  if (snapshot == nullptr) {
    return InvalidArgumentError("null snapshot");
  }
  BufferReader r(*snapshot);
  uint64_t applied = 0;
  uint64_t digest = 0;
  if (Status s = r.GetU64(applied); !s.ok()) {
    return s;
  }
  if (Status s = r.GetU64(digest); !s.ok()) {
    return s;
  }
  if (Status s = store_.DeserializeFrom(r); !s.ok()) {
    return s;
  }
  applied_ = applied;
  mutation_digest_ = digest;
  return Status::Ok();
}

Body KvService::CaptureRange(uint32_t lo_slot, uint32_t hi_slot) const {
  return store_.SerializePart([lo_slot, hi_slot](std::string_view key) {
    const uint32_t slot = ShardSlotOf(key);
    return slot >= lo_slot && slot <= hi_slot;
  });
}

Status KvService::InstallRange(const Body& range) {
  if (range == nullptr) {
    return InvalidArgumentError("null range payload");
  }
  BufferReader r(*range);
  // Installed keys do not bump applied_ or mutation_digest_: those track the
  // group's own executed log, and all replicas install the same bytes from
  // the same log entry, so digests stay converged either way.
  return store_.MergeFrom(r);
}

Status KvService::DropRange(uint32_t lo_slot, uint32_t hi_slot) {
  store_.EraseIf([lo_slot, hi_slot](std::string_view key) {
    const uint32_t slot = ShardSlotOf(key);
    return slot >= lo_slot && slot <= hi_slot;
  });
  return Status::Ok();
}

ExecResult KvService::Execute(const RpcRequest& request) {
  Result<KvCommand> cmd = DecodeKvCommand(request.body());
  HC_CHECK(cmd.ok());
  // Guard the determinism contract: a request tagged read-only must carry a
  // read-only command (the "catastrophic inconsistency" of section 5 is a
  // client bug we surface loudly).
  HC_CHECK(!request.read_only() || cmd.value().IsReadOnly());
  TimeNs cost = 0;
  KvReply reply = Apply(cmd.value(), &cost);
  if (!cmd.value().IsReadOnly()) {
    ++applied_;
    mutation_digest_ ^= RequestIdHash()(request.rid()) + (mutation_digest_ << 6);
    mutation_digest_ *= 0x100000001B3ull;
  }
  return ExecResult{cost, EncodeKvReply(reply)};
}

}  // namespace hovercraft
