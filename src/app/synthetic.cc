#include "src/app/synthetic.h"

#include <algorithm>

#include "src/common/buffer.h"
#include "src/common/check.h"

namespace hovercraft {

Body EncodeSyntheticOp(const SyntheticOp& op, int32_t total_bytes) {
  const int32_t size = std::max(total_bytes, kSyntheticHeaderBytes);
  BufferWriter w(static_cast<size_t>(size));
  w.PutI64(op.service_time);
  w.PutU32(static_cast<uint32_t>(op.reply_bytes));
  w.PutZeros(static_cast<size_t>(size) - w.size());
  return w.TakeBody();
}

Result<SyntheticOp> DecodeSyntheticOp(const Body& body) {
  if (body == nullptr) {
    return InvalidArgumentError("null synthetic body");
  }
  BufferReader r(*body);
  SyntheticOp op;
  if (Status s = r.GetI64(op.service_time); !s.ok()) {
    return s;
  }
  uint32_t reply_bytes = 0;
  if (Status s = r.GetU32(reply_bytes); !s.ok()) {
    return s;
  }
  op.reply_bytes = static_cast<int32_t>(reply_bytes);
  if (op.service_time < 0) {
    return InvalidArgumentError("negative service time");
  }
  return op;
}

ExecResult SyntheticService::Execute(const RpcRequest& request) {
  Result<SyntheticOp> op = DecodeSyntheticOp(request.body());
  HC_CHECK(op.ok());
  if (!request.read_only()) {
    ++applied_;
    // Order-sensitive digest: hash the request identity into the rolling
    // state so replicas that applied a different sequence diverge.
    digest_ ^= RequestIdHash()(request.rid()) + 0x9E3779B97F4A7C15ull + (digest_ << 6);
    digest_ *= 0x100000001B3ull;
  }
  return ExecResult{op.value().service_time, ReplyOfSize(op.value().reply_bytes)};
}

Body SyntheticService::SnapshotState() const {
  BufferWriter w(16);
  w.PutU64(applied_);
  w.PutU64(digest_);
  return w.TakeBody();
}

Status SyntheticService::RestoreState(const Body& snapshot) {
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
  applied_ = applied;
  digest_ = digest;
  return Status::Ok();
}

Body SyntheticService::ReplyOfSize(int32_t bytes) {
  auto it = reply_cache_.find(bytes);
  if (it != reply_cache_.end()) {
    return it->second;
  }
  Body body = MakeBody(std::vector<uint8_t>(static_cast<size_t>(std::max(bytes, 1)), 0));
  reply_cache_.emplace(bytes, body);
  return body;
}

}  // namespace hovercraft
