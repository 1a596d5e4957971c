// Configuration of a Raft node: the values a deployment tunes (RaftTuning)
// and the ones the deployment derives for each node (RaftOptions), including
// the HovercRaft extension switches that SetMode() derives from the mode.
#ifndef SRC_RAFT_OPTIONS_H_
#define SRC_RAFT_OPTIONS_H_

#include <algorithm>
#include <cstdint>

#include "src/common/types.h"

namespace hovercraft {

// The values a deployment tunes. ClusterConfig::raft holds exactly these,
// and Cluster copies them into every node's RaftOptions unchanged (node 0's
// election timeouts aside; see ClusterConfig::stagger_first_election).
struct RaftTuning {
  // Election timeout is drawn uniformly from [min, max] and re-armed on any
  // valid leader contact. The heartbeat doubles as the retransmission timer.
  TimeNs election_timeout_min = Millis(5);
  TimeNs election_timeout_max = Millis(10);
  TimeNs heartbeat_interval = Millis(1);

  // Replication pipelining: entries per append_entries and outstanding
  // append_entries per peer (per-stream for the aggregator path). The
  // product bounds entries in flight per round-trip; production Rafts
  // pipeline so queueing delay at a follower does not cap throughput.
  uint32_t max_entries_per_ae = 64;
  uint32_t max_outstanding_ae = 2;

  // Compaction retention: CompactLog always keeps at least this many of the
  // newest entries so a fresh leader can repair lagging followers. It also
  // sets the length bound: the server compacts once the prefix it may drop
  // holds this many entries, so a log stays within twice this plus its
  // unapplied tail whatever the offered rate.
  LogIndex log_retention_entries = 4096;

  // --- Adversarial hardening (dissertation sections 9.6 and 6.4; see
  // docs/hardening.md). Each defense is independently toggleable so the
  // chaos battery can run attack schedules with and without it. ---

  // PreVote: before a real election, poll a pre-election at term+1 that
  // mutates no persistent state. A node that cannot win (stale log, or peers
  // still hear a live leader) never increments its term, so a rejoining
  // partitioned node cannot depose a healthy leader (term-storm defense).
  bool pre_vote = true;

  // CheckQuorum: a leader that has not heard from a quorum of the active
  // config's voters within an election timeout steps down, bounding the
  // stale-leader window. It also enables leader stickiness on the receive
  // side: a follower in contact with a live leader ignores RequestVote
  // outright (before the term comparison), defeating forged or replayed
  // vote pressure. Stickiness without CheckQuorum would risk wedging a
  // half-connected cluster, which is why the two share one flag.
  bool check_quorum = true;

  // ReadIndex + leader lease: serve linearizable read-only requests from the
  // leader's commit index (or forward grants to caught-up repliers) without
  // appending log entries. Off by default: the stock HovercRaft RO path
  // load-balances reads *through* the log (sections 3.3/3.5) and fig11
  // measures exactly that; ReadIndex is the opt-in fast path that takes
  // read-mostly traffic off the ordering plane.
  bool read_index = false;

  // Leader lease window for ReadIndex: a read is granted only if a quorum of
  // voters responded within this window (and after the last config commit).
  // 0 means "use election_timeout_min", the largest window that is safe —
  // a new leader cannot exist before that much silence. Tests inject lease
  // "clock skew" by widening it past the safe bound.
  TimeNs read_lease_timeout = 0;

  // Durability model: time to persist appended entries to the local write-
  // ahead log before acknowledging them (paper section 2.3). 0 models NVM /
  // battery-backed memory (the paper's assumption); ~10us models an NVMe
  // SSD; ~100us a SATA-era device. The leader's own write overlaps the
  // replication round-trip; a follower's write delays its append_entries
  // reply. See bench/ablation_persistence.
  TimeNs persist_latency = 0;
};

// A node's full options: the tuning plus what the deployment derives for the
// node (Cluster fills these in; tests that build a RaftNode directly set them
// all).
struct RaftOptions : RaftTuning {
  NodeId id = kInvalidNode;
  int32_t cluster_size = 3;

  // Offset added to `id` for every flight-recorder / stage-mark emission.
  // Raft node ids are group-local (0..n-1); when several consensus groups
  // share one fabric (src/shard) each group gets a disjoint base so their
  // rings, watchdog invariants and dumps never alias. 0 = the historic
  // single-group namespace.
  NodeId obs_node_base = 0;

  NodeId obs_id() const { return obs_node_base + id; }

  // Dynamic membership: number of nodes in the initial voter configuration.
  // 0 means "all cluster_size nodes vote" (the static-membership default).
  // When smaller than cluster_size, nodes [initial_voters, cluster_size) are
  // spares: they run the full message handlers but hold no vote and arm no
  // election timer until a committed config adds them (docs/membership.md).
  int32_t initial_voters = 0;

  // HovercRaft: separate request replication (client multicast) from
  // ordering; append_entries carries request metadata only (section 3.2).
  bool metadata_only = false;

  // HovercRaft: delegate client replies / read-only execution (section 3.3,
  // 3.5) with bounded queues (section 3.4).
  bool assign_repliers = false;
  ReplierPolicy replier_policy = ReplierPolicy::kLeaderOnly;
  int64_t bounded_queue_depth = 128;

  // HovercRaft++: route the append_entries fan-out/fan-in through the
  // in-network aggregator (section 4).
  bool use_aggregator = false;

  // The paper's mode table, and the one place the extension switches are
  // set. Unreplicated and vanilla Raft set none of them (vanilla's leader
  // answers every client). HovercRaft orders metadata only and, unless
  // `policy` is kLeaderOnly (the "reply load balancing disabled" baseline of
  // section 7.1), assigns repliers with queues bounded at `queue_depth`;
  // HovercRaft++ adds the aggregator.
  void SetMode(ClusterMode mode, ReplierPolicy policy, int64_t queue_depth) {
    const bool multicast = mode == ClusterMode::kHovercRaft || mode == ClusterMode::kHovercRaftPP;
    metadata_only = multicast;
    assign_repliers = multicast && policy != ReplierPolicy::kLeaderOnly;
    use_aggregator = mode == ClusterMode::kHovercRaftPP;
    replier_policy = multicast ? policy : ReplierPolicy::kLeaderOnly;
    if (multicast) {
      bounded_queue_depth = queue_depth;
    }
  }

  // The initial voter count: initial_voters, or every node when it is 0.
  int32_t InitialVoterCount() const {
    return initial_voters > 0 ? std::min(initial_voters, cluster_size) : cluster_size;
  }
};

}  // namespace hovercraft

#endif  // SRC_RAFT_OPTIONS_H_
