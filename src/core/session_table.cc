#include "src/core/session_table.h"

#include <span>
#include <utility>
#include <vector>

namespace hovercraft {

void SessionTable::Record(const RequestId& rid, Body reply, uint32_t slot) {
  ClientSession& session = sessions_[rid.client];
  if (rid.seq <= session.ack_watermark) {
    return;  // already acknowledged; nothing can still ask for this reply
  }
  session.replies[rid.seq] = Cached{std::move(reply), slot};
}

bool SessionTable::Executed(const RequestId& rid) const {
  auto it = sessions_.find(rid.client);
  if (it == sessions_.end()) {
    return false;
  }
  const ClientSession& session = it->second;
  return rid.seq <= session.ack_watermark || session.replies.count(rid.seq) > 0;
}

Body SessionTable::CachedReply(const RequestId& rid) const {
  auto it = sessions_.find(rid.client);
  if (it == sessions_.end()) {
    return nullptr;
  }
  auto reply = it->second.replies.find(rid.seq);
  return reply == it->second.replies.end() ? nullptr : reply->second.reply;
}

void SessionTable::Acknowledge(HostId client, uint64_t watermark) {
  if (watermark == 0) {
    return;
  }
  ClientSession& session = sessions_[client];
  if (watermark <= session.ack_watermark) {
    return;  // watermarks are monotone; an older attempt carries a stale one
  }
  session.ack_watermark = watermark;
  session.replies.erase(session.replies.begin(),
                        session.replies.upper_bound(watermark));
}

namespace {

void PutCached(BufferWriter* w, uint64_t seq, uint32_t slot, const Body& reply) {
  w->PutU64(seq);
  w->PutU32(slot);
  if (reply == nullptr) {
    w->PutU32(0);
  } else {
    w->PutU32(static_cast<uint32_t>(reply->size()));
    w->PutBytes(*reply);
  }
}

}  // namespace

void SessionTable::Serialize(BufferWriter* w) const {
  w->PutU32(static_cast<uint32_t>(sessions_.size()));
  for (const auto& [client, session] : sessions_) {
    w->PutI64(static_cast<int64_t>(client));
    w->PutU64(session.ack_watermark);
    w->PutU32(static_cast<uint32_t>(session.replies.size()));
    for (const auto& [seq, entry] : session.replies) {
      PutCached(w, seq, entry.slot, entry.reply);
    }
  }
}

Status SessionTable::Restore(BufferReader* r) {
  std::map<HostId, ClientSession> restored;
  uint32_t client_count = 0;
  if (Status s = r->GetU32(client_count); !s.ok()) {
    return s;
  }
  for (uint32_t c = 0; c < client_count; ++c) {
    int64_t client = 0;
    ClientSession session;
    uint32_t reply_count = 0;
    if (Status s = r->GetI64(client); !s.ok()) {
      return s;
    }
    if (Status s = r->GetU64(session.ack_watermark); !s.ok()) {
      return s;
    }
    if (Status s = r->GetU32(reply_count); !s.ok()) {
      return s;
    }
    for (uint32_t i = 0; i < reply_count; ++i) {
      uint64_t seq = 0;
      uint32_t slot = kNoShardSlot;
      uint32_t len = 0;
      if (Status s = r->GetU64(seq); !s.ok()) {
        return s;
      }
      if (Status s = r->GetU32(slot); !s.ok()) {
        return s;
      }
      if (Status s = r->GetU32(len); !s.ok()) {
        return s;
      }
      std::span<const uint8_t> bytes;
      if (Status s = r->GetBytes(len, bytes); !s.ok()) {
        return s;
      }
      session.replies[seq] = Cached{Body::CopyOf(bytes), slot};
    }
    restored[static_cast<HostId>(client)] = std::move(session);
  }
  sessions_ = std::move(restored);
  return Status::Ok();
}

void SessionTable::SerializeRange(BufferWriter* w, uint32_t lo, uint32_t hi) const {
  uint32_t client_count = 0;
  for (const auto& [client, session] : sessions_) {
    for (const auto& [seq, entry] : session.replies) {
      if (entry.slot >= lo && entry.slot <= hi) {
        ++client_count;
        break;
      }
    }
  }
  w->PutU32(client_count);
  for (const auto& [client, session] : sessions_) {
    uint32_t in_range = 0;
    for (const auto& [seq, entry] : session.replies) {
      if (entry.slot >= lo && entry.slot <= hi) {
        ++in_range;
      }
    }
    if (in_range == 0) {
      continue;
    }
    w->PutI64(static_cast<int64_t>(client));
    w->PutU32(in_range);
    for (const auto& [seq, entry] : session.replies) {
      if (entry.slot >= lo && entry.slot <= hi) {
        PutCached(w, seq, entry.slot, entry.reply);
      }
    }
  }
}

Status SessionTable::MergeRange(BufferReader* r) {
  uint32_t client_count = 0;
  if (Status s = r->GetU32(client_count); !s.ok()) {
    return s;
  }
  for (uint32_t c = 0; c < client_count; ++c) {
    int64_t client = 0;
    uint32_t reply_count = 0;
    if (Status s = r->GetI64(client); !s.ok()) {
      return s;
    }
    if (Status s = r->GetU32(reply_count); !s.ok()) {
      return s;
    }
    for (uint32_t i = 0; i < reply_count; ++i) {
      uint64_t seq = 0;
      uint32_t slot = kNoShardSlot;
      uint32_t len = 0;
      if (Status s = r->GetU64(seq); !s.ok()) {
        return s;
      }
      if (Status s = r->GetU32(slot); !s.ok()) {
        return s;
      }
      if (Status s = r->GetU32(len); !s.ok()) {
        return s;
      }
      std::span<const uint8_t> bytes;
      if (Status s = r->GetBytes(len, bytes); !s.ok()) {
        return s;
      }
      ClientSession& session = sessions_[static_cast<HostId>(client)];
      if (seq <= session.ack_watermark || session.replies.count(seq) > 0) {
        continue;  // locally resolved or locally recorded — local state wins
      }
      session.replies[seq] = Cached{Body::CopyOf(bytes), slot};
    }
  }
  return Status::Ok();
}

void SessionTable::DropRange(uint32_t lo, uint32_t hi) {
  for (auto it = sessions_.begin(); it != sessions_.end();) {
    ClientSession& session = it->second;
    for (auto reply = session.replies.begin(); reply != session.replies.end();) {
      if (reply->second.slot >= lo && reply->second.slot <= hi) {
        reply = session.replies.erase(reply);
      } else {
        ++reply;
      }
    }
    if (session.replies.empty() && session.ack_watermark == 0) {
      it = sessions_.erase(it);
    } else {
      ++it;
    }
  }
}

size_t SessionTable::cached_replies() const {
  size_t total = 0;
  for (const auto& [client, session] : sessions_) {
    total += session.replies.size();
  }
  return total;
}

uint64_t SessionTable::AckWatermark(HostId client) const {
  auto it = sessions_.find(client);
  return it == sessions_.end() ? 0 : it->second.ack_watermark;
}

}  // namespace hovercraft
