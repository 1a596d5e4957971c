// The flow-control middlebox (paper section 6.3).
//
// HovercRaft replaces the implicit backpressure of a single leader with an
// explicit in-network counter: clients address requests to the middlebox,
// which rewrites the destination to the fault-tolerance group's multicast IP
// while the number of outstanding requests is under the threshold, and NACKs
// new requests otherwise. R2P2 FEEDBACK messages sent by repliers decrement
// the counter. Like the aggregator, this is a line-rate device with a single
// register of soft state.
//
// The ledger is a set of request ids rather than a bare counter, so FEEDBACK
// and forwarding are idempotent per rid, and so the slots left open by a
// failover (a designated replier that died never sends FEEDBACK) can be
// reconciled: a new leader announces itself, the middlebox sends it the open
// rids, and the leader classifies each as executed / pending / unknown.
// Executed and unknown slots are released immediately; pending ones are
// re-queried until they drain, with a bounded force-release backstop.
#ifndef SRC_CORE_FLOW_CONTROL_H_
#define SRC_CORE_FLOW_CONTROL_H_

#include <cstdint>
#include <functional>
#include <unordered_set>
#include <vector>

#include "src/common/types.h"
#include "src/net/host.h"
#include "src/obs/flight_recorder.h"
#include "src/r2p2/request_id.h"

namespace hovercraft {

class FlowControl final : public Host {
 public:
  // threshold <= 0 disables the cap (pure forwarder).
  FlowControl(Simulator* sim, const CostModel& costs, Addr group, int64_t threshold);

  void HandleMessage(HostId src, const MessagePtr& msg) override;

  // Sharding (src/shard): consulted BEFORE admission for data slots. Returns
  // 0 when this group serves the slot per the authoritative ShardMap, else
  // the map's current epoch — the request is answered with a
  // WrongShardNack(epoch) and no admission slot is ever charged, so a
  // redirect can never leak ledger state.
  using ShardGateFn = std::function<uint64_t(uint32_t slot)>;
  void set_shard_gate(ShardGateFn gate) { shard_gate_ = std::move(gate); }

  // Observability namespace for ledger events. Default kInvalidNode (the
  // historic single-group stream); sharded runs assign each group's
  // middlebox a pseudo-node inside the group's obs range so its node-
  // filtered watchdog still sees the flow-balance stream.
  void set_obs_node(NodeId node) { obs_node_ = node; }

  int64_t outstanding() const { return static_cast<int64_t>(open_.size()); }
  uint64_t forwarded() const { return forwarded_; }
  uint64_t nacked() const { return nacked_; }
  uint64_t wrong_shard_nacked() const { return wrong_shard_nacked_; }
  uint64_t reconciles_started() const { return reconciles_started_; }
  uint64_t reconciled_released() const { return reconciled_released_; }
  uint64_t force_released() const { return force_released_; }

 private:
  // Re-queries pending slots at the heartbeat-ish cadence until the ledger
  // converges; after this many rounds the remaining slots are force-released
  // (and counted — a healthy run never gets there).
  static constexpr int32_t kMaxReconcileRounds = 16;
  static constexpr TimeNs kReconcileInterval = Millis(1);

  void SendReconcileQuery();
  // Flight-recorder ledger event (open/close/nack/force-release), feeding the
  // watchdog's flow-balance invariant. Called only on actual state changes.
  void RecordFlowOp(obs::FrFlowOp op);

  Addr group_;
  int64_t threshold_;
  ShardGateFn shard_gate_;
  NodeId obs_node_ = kInvalidNode;
  std::unordered_set<RequestId, RequestIdHash> open_;
  uint64_t forwarded_ = 0;
  uint64_t nacked_ = 0;
  uint64_t wrong_shard_nacked_ = 0;

  // Reconcile state (one in flight at a time; a new leader restarts it).
  HostId leader_ = kInvalidHost;
  std::vector<RequestId> reconcile_pending_;
  int32_t reconcile_rounds_ = 0;
  EventId reconcile_timer_ = kInvalidEvent;
  uint64_t reconciles_started_ = 0;
  uint64_t reconciled_released_ = 0;
  uint64_t force_released_ = 0;
};

}  // namespace hovercraft

#endif  // SRC_CORE_FLOW_CONTROL_H_
