// Base type for everything that travels over the simulated fabric.
//
// The simulator carries typed message objects end-to-end (the way ns-3 does)
// instead of serializing on the hot path; each message declares the payload
// size it would occupy on the wire, and the wire codecs in src/r2p2 are
// exercised by their own tests and microbenchmarks.
//
// The message set is closed: every concrete message carries one MessageKind
// tag, set through the Message constructor, and receivers dispatch with a
// `switch (msg->kind())` plus static_cast, or probe one kind with As<T>().
// To add a kind: append an enumerator to MessageKind (before kBatch), add its
// exported name to the table in MessageKindName() at the same position, and
// pass the kind to Message's constructor from the new class. The names feed
// the exported net.bytes_on_wire.{tx,rx}.<NAME> metrics, so never rename one.
#ifndef SRC_NET_MESSAGE_H_
#define SRC_NET_MESSAGE_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/common/slab_pool.h"

namespace hovercraft {

enum class MessageKind : uint8_t {
  // R2P2 (src/r2p2/messages.h).
  kRequest,
  kResponse,
  kFeedback,
  kNack,
  kWrongShardNack,
  kFcLeader,
  kFcReconcileReq,
  kFcReconcileRep,
  // Raft and the aggregator (src/raft/messages.h). Pre-vote and vote share
  // a class per direction and differ only in kind.
  kAeReq,
  kAeRep,
  kVoteReq,
  kPreVoteReq,
  kVoteRep,
  kPreVoteRep,
  kReadIndexGrant,
  kAggCommit,
  kAggVoteReq,
  kAggVoteRep,
  kSnapshotReq,
  kSnapshotRep,
  kRecoveryReq,
  kRecoveryRep,
  // Transport coalescing frame (BatchMsg below); always last.
  kBatch,
};

constexpr size_t kMessageKindCount = static_cast<size_t>(MessageKind::kBatch) + 1;

constexpr size_t KindIndex(MessageKind kind) { return static_cast<size_t>(kind); }

// Stable short name used for per-type message accounting (Table 1).
inline const char* MessageKindName(MessageKind kind) {
  static constexpr const char* kNames[] = {
      "REQUEST", "RESPONSE", "FEEDBACK", "NACK", "NACK_WRONG_SHARD", "FC_LEADER",
      "FC_RECONCILE_REQ", "FC_RECONCILE_REP",
      "AE_REQ", "AE_REP", "VOTE_REQ", "PREVOTE_REQ", "VOTE_REP", "PREVOTE_REP",
      "READ_INDEX_GRANT", "AGG_COMMIT", "AGG_VOTE_REQ", "AGG_VOTE_REP", "SNAPSHOT_REQ",
      "SNAPSHOT_REP", "RECOVERY_REQ", "RECOVERY_REP",
      "BATCH",
  };
  static_assert(sizeof(kNames) / sizeof(kNames[0]) == kMessageKindCount,
                "one name per MessageKind");
  return kNames[KindIndex(kind)];
}

class Message {
 public:
  virtual ~Message() = default;

  // Bytes of R2P2 payload this message occupies on the wire (headers and
  // framing are accounted separately by the cost model).
  virtual int32_t PayloadBytes() const = 0;

  MessageKind kind() const { return kind_; }
  const char* Name() const { return MessageKindName(kind_); }

 protected:
  explicit Message(MessageKind kind) : kind_(kind) {}

 private:
  MessageKind kind_;
};

using MessagePtr = std::shared_ptr<const Message>;

// Builds a message. The shared_ptr's control block and the message share one
// block from the per-thread SlabPool (src/common/slab_pool.h), so a message
// costs no general-purpose allocation. The handle stays a std::shared_ptr,
// which code outside src/ builds with std::make_shared as well.
template <typename T, typename... Args>
std::shared_ptr<T> MakeMessage(Args&&... args) {
  static_assert(std::is_base_of_v<Message, T>, "MakeMessage builds messages");
  return std::allocate_shared<T>(SlabAllocator<T>(), std::forward<Args>(args)...);
}

// Checked downcast for single-kind classes (those that declare kKind):
// `msg` as a T, or nullptr when it is of another kind.
template <typename T>
const T* As(const Message& msg) {
  return msg.kind() == T::kKind ? static_cast<const T*>(&msg) : nullptr;
}

// A coalesced transport frame: several small logical messages to the same
// destination packed into one physical frame (eRPC-style TX batching, see
// CostModel::tx_batching). Each member costs a small sub-header on the wire;
// counters treat the members as the logical messages and the BatchMsg itself
// as one physical frame. Never constructed unless batching is enabled, and
// never nested.
class BatchMsg final : public Message {
 public:
  static constexpr MessageKind kKind = MessageKind::kBatch;
  // Per-member sub-header: u16 length + u8 type + u8 reserved.
  static constexpr int32_t kPerMessageHeaderBytes = 4;

  explicit BatchMsg(std::vector<MessagePtr> msgs) : Message(kKind), msgs_(std::move(msgs)) {
    for (const MessagePtr& m : msgs_) {
      total_ += m->PayloadBytes() + kPerMessageHeaderBytes;
    }
  }

  int32_t PayloadBytes() const override { return total_; }

  const std::vector<MessagePtr>& messages() const { return msgs_; }

 private:
  std::vector<MessagePtr> msgs_;
  int32_t total_ = 0;
};

}  // namespace hovercraft

#endif  // SRC_NET_MESSAGE_H_
