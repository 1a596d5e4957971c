// The in-network aggregator (HovercRaft++, paper sections 4 and 6.4).
//
// Models the Tofino P4 pipeline as a line-rate device holding only soft
// state: per-follower match registers (ingress), per-follower completed
// registers (egress), the current term, and the pending flag. It fans the
// leader's single append_entries out to the follower multicast group,
// absorbs the fan-in of replies, and multicasts AGG_COMMIT when the quorum
// commit index advances. All state is flushed when a higher term appears
// (new leader election) — a replacement switch can take over from empty
// state, which is the paper's argument against sequencer-style designs.
#ifndef SRC_CORE_AGGREGATOR_H_
#define SRC_CORE_AGGREGATOR_H_

#include <vector>

#include "src/common/types.h"
#include "src/net/host.h"
#include "src/raft/messages.h"

namespace hovercraft {

class Aggregator final : public Host {
 public:
  Aggregator(Simulator* sim, const CostModel& costs, int32_t cluster_size);

  // Wiring, called by the cluster builder after network attachment:
  // host id of each Raft node, the all-nodes multicast group, and one group
  // per node that excludes it (the fan-out target for that node as leader).
  // `voters` is the initial voter set; empty means every node votes.
  void Configure(std::vector<HostId> node_hosts, Addr group_all,
                 std::vector<Addr> groups_excluding, std::vector<NodeId> voters = {});

  // Installs the committed voter set for config epoch `epoch` (the log index
  // of the committed config entry). Registers are rebuilt from empty under
  // the same soft-state rule as a term change: a quorum must never mix match
  // indices counted under two different voter sets. Idempotent per epoch.
  void Reconfigure(const std::vector<NodeId>& voters, LogIndex epoch);

  void HandleMessage(HostId src, const MessagePtr& msg) override;

  struct AggStats {
    uint64_t ae_forwarded = 0;
    uint64_t replies_absorbed = 0;
    uint64_t commits_sent = 0;
    uint64_t flushes = 0;
    uint64_t reconfigures = 0;
  };
  const AggStats& agg_stats() const { return stats_; }
  Term term() const { return term_; }
  LogIndex commit() const { return commit_; }
  LogIndex epoch() const { return epoch_; }

 private:
  NodeId NodeOfHost(HostId host) const;
  void Flush(Term term);
  // Empties the soft-state registers (term change or reconfiguration).
  void ResetRegisters();
  void OnLeaderAppend(HostId src, const AppendEntriesReq& req);
  void OnFollowerReply(HostId src, const AppendEntriesRep& rep);
  void SendAggCommit();

  int32_t cluster_size_;
  std::vector<HostId> node_hosts_;
  Addr group_all_ = kInvalidHost;
  std::vector<Addr> groups_excluding_;

  // Control-plane config: the voter set the quorum is counted over, and the
  // config epoch it belongs to (stamped into every AGG_COMMIT so replicas can
  // reject quorums computed under a stale membership).
  std::vector<NodeId> voters_;
  LogIndex epoch_ = 0;

  // Soft state (the P4 registers).
  Term term_ = 0;
  NodeId leader_ = kInvalidNode;
  std::vector<LogIndex> match_;      // ingress registers
  // Egress registers: each follower's greatest progress stamp, 0 until its
  // first success reply since a reset.
  std::vector<uint64_t> completed_;
  LogIndex leader_last_ = 0;
  LogIndex last_announced_ = 0;
  LogIndex commit_ = 0;
  bool pending_ = false;

  AggStats stats_;
};

}  // namespace hovercraft

#endif  // SRC_CORE_AGGREGATOR_H_
