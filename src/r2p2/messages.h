// R2P2-level messages exchanged between clients, servers and middleboxes.
#ifndef SRC_R2P2_MESSAGES_H_
#define SRC_R2P2_MESSAGES_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "src/common/body.h"
#include "src/net/message.h"
#include "src/r2p2/request_id.h"

namespace hovercraft {

// R2P2 POLICY field values relevant to HovercRaft (paper section 6.1).
// kUnrestricted requests are served without consensus (possible staleness);
// kReplicatedReq requests read-modify the state machine; kReplicatedReqRo
// requests are read-only but still totally ordered.
enum class R2p2Policy : uint8_t {
  kUnrestricted = 0,
  kReplicatedReq = 1,
  kReplicatedReqRo = 2,
};

// Only kReplicatedReq requests may mutate the state machine: kReplicatedReqRo
// is a totally-ordered read, and kUnrestricted requests bypass consensus and
// must therefore be stale-tolerant reads (client contract, section 6.1).
inline bool IsReadOnly(R2p2Policy p) { return p != R2p2Policy::kReplicatedReq; }

inline int32_t BodySize(const Body& body) {
  return body == nullptr ? 0 : static_cast<int32_t>(body->size());
}

// Shard routing (src/r2p2/shard.h, src/shard): requests carry the hash slot
// of the key they touch so middleboxes and servers can reject misrouted
// traffic without decoding the application body. kNoShardSlot marks an
// unsharded request (single-group deployments, synthetic workloads) and is
// never gated.
constexpr uint32_t kNoShardSlot = 0xFFFFFFFFu;

class RpcRequest final : public Message {
 public:
  static constexpr MessageKind kKind = MessageKind::kRequest;
  // `attempt` counts transmissions of this rid (1 = original send); clients
  // bump it on every retransmission so servers can tell a retry from a fresh
  // request. `ack_watermark` is the client's acknowledged-sequence floor:
  // every seq <= watermark has been resolved at the client (reply or NACK
  // received), so servers may garbage-collect cached replies at or below it
  // (Raft section 8 client sessions). `shard_slot` is the key's hash slot
  // for sharded deployments (kNoShardSlot = unsharded, never gated).
  RpcRequest(RequestId rid, R2p2Policy policy, Body body, uint32_t attempt = 1,
             uint64_t ack_watermark = 0, uint32_t shard_slot = kNoShardSlot)
      : Message(kKind),
        policy_(policy),
        rid_(rid),
        body_(std::move(body)),
        attempt_(attempt),
        shard_slot_(shard_slot),
        ack_watermark_(ack_watermark) {}

  int32_t PayloadBytes() const override { return BodySize(body_); }

  const RequestId& rid() const { return rid_; }
  R2p2Policy policy() const { return policy_; }
  const Body& body() const { return body_; }
  bool read_only() const { return IsReadOnly(policy_); }
  uint32_t attempt() const { return attempt_; }
  bool is_retransmit() const { return attempt_ > 1; }
  uint64_t ack_watermark() const { return ack_watermark_; }
  uint32_t shard_slot() const { return shard_slot_; }

 private:
  // Ordered for packing: the policy byte shares a word with the kind tag.
  R2p2Policy policy_;
  RequestId rid_;
  Body body_;
  uint32_t attempt_;
  uint32_t shard_slot_;
  uint64_t ack_watermark_;
};
static_assert(sizeof(RpcRequest) <= 72, "a request and its control block fill 88 pool bytes");

class RpcResponse final : public Message {
 public:
  static constexpr MessageKind kKind = MessageKind::kResponse;
  RpcResponse(RequestId rid, Body body) : Message(kKind), rid_(rid), body_(std::move(body)) {}

  int32_t PayloadBytes() const override { return BodySize(body_); }

  const RequestId& rid() const { return rid_; }
  const Body& body() const { return body_; }

 private:
  RequestId rid_;
  Body body_;
};

// R2P2 FEEDBACK, repurposed by HovercRaft as the flow-control decrement
// (paper section 6.3).
class FeedbackMsg final : public Message {
 public:
  static constexpr MessageKind kKind = MessageKind::kFeedback;
  explicit FeedbackMsg(RequestId rid) : Message(kKind), rid_(rid) {}

  int32_t PayloadBytes() const override { return 16; }

  const RequestId& rid() const { return rid_; }

 private:
  RequestId rid_;
};

// Sent by the flow-control middlebox when the in-flight cap is reached.
class NackMsg final : public Message {
 public:
  static constexpr MessageKind kKind = MessageKind::kNack;
  explicit NackMsg(RequestId rid) : Message(kKind), rid_(rid) {}

  int32_t PayloadBytes() const override { return 16; }

  const RequestId& rid() const { return rid_; }

 private:
  RequestId rid_;
};

// Sent to the client when a request's shard slot is not served where it
// landed (stale ShardMap at the client, or a range frozen mid-move). The
// client refreshes its map view and re-sends; unlike a flow NACK this does
// not resolve the operation. `epoch` is the sender's map-epoch hint when it
// has one (middlebox gate) or 0 when it only knows "not mine" (server apply
// path); clients refetch on any wrong-shard NACK, so the hint is advisory.
class WrongShardNack final : public Message {
 public:
  static constexpr MessageKind kKind = MessageKind::kWrongShardNack;
  WrongShardNack(RequestId rid, uint64_t epoch) : Message(kKind), rid_(rid), epoch_(epoch) {}

  int32_t PayloadBytes() const override { return 24; }

  const RequestId& rid() const { return rid_; }
  uint64_t epoch() const { return epoch_; }

 private:
  RequestId rid_;
  uint64_t epoch_;
};

// --- flow-control ledger reconciliation (failover repair) -------------------
// A replica that wins an election tells the middlebox, which then asks the
// new leader to classify every admission slot still open in its ledger:
// requests whose designated replier died would otherwise never send FEEDBACK
// and would pin the admission window shut (DESIGN.md section 5c).

// New leader -> middlebox: "reconcile your ledger against my state".
class FcLeaderChangeMsg final : public Message {
 public:
  static constexpr MessageKind kKind = MessageKind::kFcLeader;
  explicit FcLeaderChangeMsg(HostId leader) : Message(kKind), leader_(leader) {}

  int32_t PayloadBytes() const override { return 16; }

  HostId leader() const { return leader_; }

 private:
  HostId leader_;
};

// Middlebox -> leader: the rids of all still-open admission slots.
class FcReconcileReq final : public Message {
 public:
  static constexpr MessageKind kKind = MessageKind::kFcReconcileReq;
  explicit FcReconcileReq(std::vector<RequestId> rids) : Message(kKind), rids_(std::move(rids)) {}

  int32_t PayloadBytes() const override {
    return 16 + 16 * static_cast<int32_t>(rids_.size());
  }

  const std::vector<RequestId>& rids() const { return rids_; }

 private:
  std::vector<RequestId> rids_;
};

// Per-rid resolution in the reconcile reply.
enum class FcSlotState : uint8_t {
  kExecuted = 0,  // applied (or reply cached): the slot is repaid, release it
  kPending = 1,   // ordered or still in the unordered set: FEEDBACK will come
  kUnknown = 2,   // the leader has no trace of it: the request is lost, release
};

class FcReconcileRep final : public Message {
 public:
  static constexpr MessageKind kKind = MessageKind::kFcReconcileRep;
  FcReconcileRep(std::vector<RequestId> rids, std::vector<FcSlotState> states)
      : Message(kKind), rids_(std::move(rids)), states_(std::move(states)) {}

  int32_t PayloadBytes() const override {
    return 16 + 17 * static_cast<int32_t>(rids_.size());
  }

  const std::vector<RequestId>& rids() const { return rids_; }
  const std::vector<FcSlotState>& states() const { return states_; }

 private:
  std::vector<RequestId> rids_;
  std::vector<FcSlotState> states_;
};

}  // namespace hovercraft

#endif  // SRC_R2P2_MESSAGES_H_
