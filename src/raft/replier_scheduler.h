// Replier assignment with bounded queues (paper sections 3.3, 3.4, 3.6).
//
// The leader tracks, per node, the entries it has announced with that node as
// designated replier but which the node has not yet applied. A node is
// eligible for new work while that backlog is below the bound; JBSQ picks the
// eligible node with the shortest backlog, RANDOM picks uniformly.
#ifndef SRC_RAFT_REPLIER_SCHEDULER_H_
#define SRC_RAFT_REPLIER_SCHEDULER_H_

#include <cstdint>
#include <deque>
#include <vector>

#include "src/common/random.h"
#include "src/common/types.h"

namespace hovercraft {

class ReplierScheduler {
 public:
  ReplierScheduler(int32_t cluster_size, NodeId self, ReplierPolicy policy, int64_t bound,
                   uint64_t seed);

  // Records that node `node` has applied the log through `applied`: its
  // assignments at or below it are done. The leader passes each rise of its
  // progress record. A restarted node's lower index pops nothing: the earlier
  // one left only assignments above it, and later ones lie above the commit
  // index, which no report exceeds.
  void UpdateApplied(NodeId node, LogIndex applied);

  // Picks a replier for log index `idx` and records the assignment, or
  // returns kInvalidNode when no node is eligible (the caller must retry
  // after applied progress — never a liveness problem per section 3.4).
  NodeId Assign(LogIndex idx);

  // Backlog of announced-but-unapplied assignments for `node`.
  int64_t PendingOf(NodeId node) const;

  // Forgets all assignments (leadership change).
  void Reset();

  // Restricts eligibility to `members` (dynamic membership): non-members are
  // skipped by Assign and their outstanding assignments are dropped — a
  // removed replier will never reply, so its backlog must not count against
  // the JBSQ shortest-queue comparison. Ids outside [0, cluster_size) are
  // ignored. The default is all nodes eligible.
  void SetMembers(const std::vector<NodeId>& members);

  ReplierPolicy policy() const { return policy_; }
  int64_t bound() const { return bound_; }

 private:
  bool Eligible(NodeId node) const;

  int32_t cluster_size_;
  NodeId self_;
  ReplierPolicy policy_;
  int64_t bound_;
  Rng rng_;
  // Per node: assigned log indices not yet covered by its applied index.
  std::vector<std::deque<LogIndex>> assigned_;
  // Eligibility bitmap (1 = member). Checked before the per-node RNG draw so
  // that with all nodes member (the static default) the draw sequence is
  // identical to a build without membership support.
  std::vector<uint8_t> is_member_;
};

}  // namespace hovercraft

#endif  // SRC_RAFT_REPLIER_SCHEDULER_H_
