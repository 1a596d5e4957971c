#include "src/raft/wal_codec.h"

#include <utility>

namespace hovercraft {

namespace {
constexpr uint8_t kHasRequest = 1 << 0;
constexpr uint8_t kHasConfig = 1 << 1;
constexpr uint8_t kIsNoop = 1 << 2;
constexpr uint8_t kIsReadOnly = 1 << 3;
}  // namespace

void EncodeConfig(const MembershipConfig& config, BufferWriter* w) {
  w->PutU32(static_cast<uint32_t>(config.voters.size()));
  for (NodeId v : config.voters) {
    w->PutI64(static_cast<int64_t>(v));
  }
  w->PutU32(static_cast<uint32_t>(config.learners.size()));
  for (NodeId l : config.learners) {
    w->PutI64(static_cast<int64_t>(l));
  }
}

MembershipConfigPtr DecodeConfig(BufferReader* r) {
  uint32_t nv = 0;
  if (!r->GetU32(nv).ok() || nv > 4096) {
    return nullptr;
  }
  std::vector<NodeId> voters;
  voters.reserve(nv);
  for (uint32_t i = 0; i < nv; ++i) {
    int64_t v = 0;
    if (!r->GetI64(v).ok()) {
      return nullptr;
    }
    voters.push_back(static_cast<NodeId>(v));
  }
  uint32_t nl = 0;
  if (!r->GetU32(nl).ok() || nl > 4096) {
    return nullptr;
  }
  std::vector<NodeId> learners;
  learners.reserve(nl);
  for (uint32_t i = 0; i < nl; ++i) {
    int64_t l = 0;
    if (!r->GetI64(l).ok()) {
      return nullptr;
    }
    learners.push_back(static_cast<NodeId>(l));
  }
  return MakeMembershipConfig(std::move(voters), std::move(learners));
}

Body EncodeWalEntry(const LogEntry& entry, const MembershipConfig* config) {
  BufferWriter w(64);
  uint8_t flags = 0;
  if (entry.request != nullptr) {
    flags |= kHasRequest;
  }
  if (config != nullptr) {
    flags |= kHasConfig;
  }
  if (entry.noop) {
    flags |= kIsNoop;
  }
  if (entry.read_only) {
    flags |= kIsReadOnly;
  }
  w.PutU8(flags);
  w.PutI64(static_cast<int64_t>(entry.rid.client));
  w.PutU64(entry.rid.seq);
  w.PutU64(entry.body_hash);
  w.PutU64(entry.ack_watermark);
  if (entry.request != nullptr) {
    const RpcRequest& req = *entry.request;
    w.PutU8(static_cast<uint8_t>(req.policy()));
    w.PutU32(req.attempt());
    w.PutU64(req.ack_watermark());
    w.PutU32(req.shard_slot());
    if (req.body() != nullptr) {
      w.PutU32(static_cast<uint32_t>(req.body()->size()));
      w.PutBytes(*req.body());
    } else {
      w.PutU32(0);
    }
  }
  if (config != nullptr) {
    EncodeConfig(*config, &w);
  }
  return w.TakeBody();
}

bool DecodeWalEntry(std::span<const uint8_t> bytes, LogEntry* out, MembershipConfigPtr* config) {
  BufferReader r(bytes);
  uint8_t flags = 0;
  int64_t client = 0;
  if (!r.GetU8(flags).ok() || !r.GetI64(client).ok() || !r.GetU64(out->rid.seq).ok() ||
      !r.GetU64(out->body_hash).ok() || !r.GetU64(out->ack_watermark).ok()) {
    return false;
  }
  out->rid.client = static_cast<HostId>(client);
  out->noop = (flags & kIsNoop) != 0;
  out->read_only = (flags & kIsReadOnly) != 0;
  if ((flags & kHasRequest) != 0) {
    uint8_t policy = 0;
    uint32_t attempt = 0;
    uint64_t ack = 0;
    uint32_t shard_slot = 0;
    uint32_t body_len = 0;
    if (!r.GetU8(policy).ok() || !r.GetU32(attempt).ok() || !r.GetU64(ack).ok() ||
        !r.GetU32(shard_slot).ok() || !r.GetU32(body_len).ok() || r.remaining() < body_len) {
      return false;
    }
    std::span<const uint8_t> body;
    if (!r.GetBytes(body_len, body).ok()) {
      return false;
    }
    out->request = MakeMessage<RpcRequest>(out->rid, static_cast<R2p2Policy>(policy),
                                           Body::CopyOf(body), attempt, ack, shard_slot);
  }
  *config = nullptr;
  if ((flags & kHasConfig) != 0) {
    *config = DecodeConfig(&r);
    if (*config == nullptr) {
      return false;
    }
  }
  return r.AtEnd();
}

}  // namespace hovercraft
