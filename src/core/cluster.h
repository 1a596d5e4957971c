// Builds and owns a complete simulated deployment: N server hosts running one
// of the four cluster modes, the client-side middleboxes (flow control,
// aggregator) the mode needs, and the multicast groups, all on one Fabric
// (src/core/fabric.h). The benches, examples and integration tests all start
// from here.
#ifndef SRC_CORE_CLUSTER_H_
#define SRC_CORE_CLUSTER_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/app/state_machine.h"
#include "src/common/types.h"
#include "src/core/aggregator.h"
#include "src/core/fabric.h"
#include "src/core/flow_control.h"
#include "src/core/server.h"
#include "src/net/network.h"
#include "src/sim/cost_model.h"
#include "src/sim/simulator.h"

namespace hovercraft {

namespace obs {
class CriticalPath;
class MetricsRegistry;
class Watchdog;
}  // namespace obs

struct ClusterConfig {
  ClusterMode mode = ClusterMode::kHovercRaft;
  int32_t nodes = 3;
  // Extra servers built, wired and started alongside the initial `nodes`
  // members, but passive: they hold no vote, receive no replication traffic
  // and never campaign until AddServer() brings them into the config
  // (dynamic membership). Ignored by kUnreplicated.
  int32_t spare_nodes = 0;
  // Invoked once per node so every replica owns its own state, and again by
  // a replica whose recovery finds its on-disk snapshot unreadable.
  std::function<std::unique_ptr<StateMachine>()> app_factory;

  // Reply / read-only load balancing (paper sections 3.3-3.6). kLeaderOnly
  // reproduces the "load balancing disabled" baseline of section 7.1.
  ReplierPolicy replier_policy = ReplierPolicy::kLeaderOnly;
  int64_t bounded_queue_depth = 128;

  // Flow control threshold (paper section 6.3); <= 0 disables the cap.
  int64_t flow_control_threshold = 0;

  CostModel costs;
  // Every node's tuning; the rest of its options (id, cluster size, voters,
  // RaftOptions::SetMode's switches) comes from the fields above.
  RaftTuning raft;
  ServerTuning server_template;
  uint64_t seed = 1;

  // Stagger node 0's election timeout low so the first election is prompt
  // and deterministic (pure convenience for experiments; disable to test
  // real contention).
  bool stagger_first_election = true;

  // Prefix for metric names in ExportMetrics and the queue-depth samplers,
  // e.g. "hovercraft/r80000/"; lets several load points share one registry
  // without colliding.
  std::string obs_scope;

  // Optional online sinks (non-owning), attached to the fabric's recorder for
  // the cluster's lifetime. The watchdog checks cross-node safety invariants
  // on every event; the critical-path analyzer accumulates per-stage tail
  // attribution. A sharded group (ShardGroupSpec) filters its watchdog to
  // the group's own obs-node range, so per-group watchdogs can share one
  // recorder.
  obs::Watchdog* watchdog = nullptr;
  obs::CriticalPath* critical_path = nullptr;
};

// What makes a cluster one consensus group of a sharded deployment
// (src/shard/sharded_cluster.h): the start of its disjoint obs-node range
// and the slots it serves from the start.
struct ShardGroupSpec {
  NodeId obs_node_base = 0;
  std::vector<uint32_t> owned_slots;
};

class Cluster {
 public:
  // Standalone: builds and owns a default Fabric (network seeded from
  // config.seed, default recorder depth, no observability bundle).
  explicit Cluster(const ClusterConfig& config);
  // On a shared fabric, which must outlive the cluster; as one group of a
  // sharded deployment when `shard` is set.
  Cluster(Fabric& fabric, const ClusterConfig& config, const ShardGroupSpec* shard = nullptr);
  ~Cluster();
  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  Simulator& sim() { return fabric_->sim(); }
  Network& network() { return fabric_->network(); }
  const ClusterConfig& config() const { return config_; }

  // Runs the simulator until a leader exists (replicated modes). Returns the
  // leader's node id.
  NodeId WaitForLeader(TimeNs deadline = Seconds(2));

  // Current leader, or kInvalidNode.
  NodeId LeaderId() const;

  // Where clients should address requests in the current mode: the server
  // (UnRep), the leader (VanillaRaft), or the flow-control middlebox
  // (HovercRaft/++ — it rewrites to the multicast group).
  Addr ClientTarget() const;

  // Where client retransmissions go. In the multicast modes they address the
  // replication group directly, bypassing the flow-control middlebox: the
  // first attempt already consumed (and will repay) the admission slot, so
  // re-admitting a retry would leak slots and double-count load. In the
  // other modes retries follow ClientTarget(), which re-resolves the leader.
  Addr RetryTarget() const;

  // Crash injection (fail-stop). Killing an already-dead node is a no-op;
  // killing every node (including the last majority member) stalls progress
  // but never crashes the simulation. KillLeader with no live leader is a
  // no-op.
  void KillNode(NodeId node);
  void KillLeader() { KillNode(LeaderId()); }

  // Power loss: like KillNode, but the node's simulated disk crashes too —
  // the unsynced WAL suffix (and any not-yet-durable acknowledgement) is
  // genuinely lost, and RestartNode will run WAL recovery instead of
  // resuming from process memory. No-op on an already-failed node. Needs
  // server_template.disk_faults: only such a disk keeps bytes to recover.
  void PowerFailNode(NodeId node);

  // Restarts a killed node. After a fail-stop kill, process memory is intact
  // and the node resumes where it halted. After PowerFailNode, only what was
  // fsynced survives: the node replays its WAL (hard state, log, snapshot),
  // CRC-validates every record, truncates any torn unsynced tail, reloads
  // app + session state from its latest local snapshot, and rejoins as a
  // follower — suspect (barred from campaigning) if durable bytes were lost,
  // until the leader's AppendEntries / InstallSnapshot path has re-fetched
  // them. Soft state (the unordered set) is lost either way. No-op on a
  // live node.
  void RestartNode(NodeId node);

  // Number of nodes currently not failed.
  int32_t LiveNodeCount() const;

  // --- dynamic membership (management plane) -------------------------------
  // Asks the current leader to add `node` (a built server, typically a
  // spare) to the replication group, or to remove a member. The leader is
  // resolved at call time; if there is none, or it rejects the change
  // (another change already in flight), the request retries every 1ms until
  // the config reflects the goal or the retry budget runs out. Use
  // sim().After(...) to schedule calls at a point in virtual time.
  void AddServer(NodeId node);
  void RemoveServer(NodeId node);

  // The member set (voters + learners) of the latest config this cluster
  // observed committing, and the log index of that config entry.
  const std::vector<NodeId>& Members() const { return members_; }
  bool IsMember(NodeId node) const;
  LogIndex applied_config_idx() const { return applied_config_idx_; }

  int32_t node_count() const { return config_.nodes; }
  // Total servers built, including spares not (yet) in the config.
  int32_t total_node_count() const { return static_cast<int32_t>(servers_.size()); }
  ReplicatedServer& server(NodeId node) { return *servers_[static_cast<size_t>(node)]; }
  const ReplicatedServer& server(NodeId node) const {
    return *servers_[static_cast<size_t>(node)];
  }
  HostId server_host(NodeId node) const { return server_hosts_[static_cast<size_t>(node)]; }
  Aggregator* aggregator() { return aggregator_.get(); }
  FlowControl* flow_control() { return flow_control_.get(); }

  // Sum of a per-server statistic across live nodes.
  uint64_t TotalReplies() const;
  uint64_t TotalExecuted() const;

  // Snapshots every counter this deployment maintains (net, server, raft,
  // flow control, aggregator, fabric) into `metrics`, each name prefixed
  // with config().obs_scope. Idempotent: counters are Set, not Added.
  void ExportMetrics(obs::MetricsRegistry* metrics);

 private:
  // Builds the servers, middleboxes and multicast groups on fabric_ and
  // attaches the configured sinks (both constructors end here).
  void Build(const ShardGroupSpec* shard);
  // Registers the periodic queue-depth samplers on the fabric's obs bundle
  // (called from Build when there is one).
  void InstallObservability();
  // Proposes add/remove to the leader, retrying every 1ms until the active
  // config reflects the goal (a change may already be in flight, or no
  // leader may exist yet).
  void TryConfigChange(NodeId node, bool add, int32_t attempts_left);
  // Installed on every server as the config-committed callback: applies a
  // newly committed membership config to the cluster-level machinery
  // (multicast groups, aggregator epoch, retiring removed servers).
  // Idempotent per config index — every replica reports the same commit.
  void ApplyCommittedConfig(NodeId self, const MembershipConfig& config, LogIndex idx);

  ClusterConfig config_;
  // Set only by the standalone constructor; fabric_ points at whichever
  // fabric the cluster runs on. Declared before servers_ so it outlives them.
  std::unique_ptr<Fabric> owned_fabric_;
  Fabric* fabric_;
  std::vector<std::unique_ptr<ReplicatedServer>> servers_;
  std::vector<HostId> server_hosts_;
  std::unique_ptr<Aggregator> aggregator_;
  std::unique_ptr<FlowControl> flow_control_;
  Addr group_all_ = kInvalidHost;
  // Per-node multicast group excluding that node (aggregator fan-out
  // targets); rebuilt on every committed config change.
  std::vector<Addr> groups_excluding_;
  // Latest committed membership this cluster observed (see Members()).
  std::vector<NodeId> members_;
  LogIndex applied_config_idx_ = 0;
};

}  // namespace hovercraft

#endif  // SRC_CORE_CLUSTER_H_
