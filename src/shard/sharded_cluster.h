// Multi-Raft sharding: N independent HovercRaft consensus groups composed
// over ONE simulated fabric and one virtual clock (docs/sharding.md).
//
// Each group is an ordinary Cluster on the ShardedCluster's one Fabric (shared
// clock, network and flight recorder), built from one ClusterConfig template,
// with its own Raft instance, session tables, flow-control ledger, aggregator
// epoch, node-filtered watchdog and metrics namespace ("shard<g>."). Group
// identity is a first-class GroupId; nothing about a group's internals knows
// its global position except through two narrow seams:
//   - the obs-node base: group g's nodes record flight-recorder/metrics
//     events as obs ids [g*stride, g*stride+nodes), with one extra pseudo-
//     node per group for its flow-control middlebox, so per-group watchdogs
//     can filter the shared event stream without cross-group aliasing;
//   - the shard gates: each group's middlebox consults the authoritative
//     ShardMap before admission and redirects wrong-shard requests.
//
// Determinism contract: group 0's execution (and its recorded event stream)
// is byte-identical whether 1 or 4 groups share the fabric, provided group
// 0's traffic is identical. This holds because groups are built in order
// (group 0's host ids never depend on how many groups follow — attach group
// clients from the per_group_hook for the same reason), per-group seeds
// derive from the group id alone, and the fault-free fabric consumes no
// shared randomness.
#ifndef SRC_SHARD_SHARDED_CLUSTER_H_
#define SRC_SHARD_SHARDED_CLUSTER_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/core/cluster.h"
#include "src/loadgen/client.h"
#include "src/shard/coordinator.h"
#include "src/shard/shard_map.h"

namespace hovercraft {

namespace obs {
class FlightRecorder;
class MetricsRegistry;
class Watchdog;
}  // namespace obs

// The ClusterConfig base is the template every group is built from; the
// FabricConfig base configures the one fabric the groups share. Group g gets
// the template's `nodes` replicas, its own seed (derived from `seed` and g),
// obs base, owned slots and the metrics scope "<obs_scope>shard<g>.". The
// sharded cluster attaches one watchdog per group itself, so the template
// carries no sinks and no spares.
struct ShardedClusterConfig : ClusterConfig, FabricConfig {
  ShardedClusterConfig() { replier_policy = ReplierPolicy::kJbsq; }

  int32_t groups = 2;

  // Invoked right after each group's cluster is built, in group order. Attach
  // group-local clients here: host ids are allocated in attach order, so a
  // client attached from the hook gets the same id regardless of how many
  // groups are built afterwards (the determinism contract above).
  std::function<void(GroupId, Cluster&)> per_group_hook;
};

class ShardedCluster {
 public:
  explicit ShardedCluster(const ShardedClusterConfig& config);
  ~ShardedCluster();
  ShardedCluster(const ShardedCluster&) = delete;
  ShardedCluster& operator=(const ShardedCluster&) = delete;

  Fabric& fabric() { return fabric_; }
  Simulator& sim() { return fabric_.sim(); }
  Network& network() { return fabric_.network(); }
  const ShardedClusterConfig& config() const { return config_; }

  int32_t group_count() const { return config_.groups; }
  Cluster& group(GroupId g) { return *groups_[static_cast<size_t>(g.value)]; }
  const Cluster& group(GroupId g) const { return *groups_[static_cast<size_t>(g.value)]; }

  ShardMap& shard_map() { return map_; }
  const ShardMap& shard_map() const { return map_; }
  ShardCoordinator& coordinator() { return *coordinator_; }

  // Obs-node numbering: a sharded Cluster records under [base, base + nodes]
  // (its nodes, then its middlebox pseudo-node), so the stride is nodes + 1.
  int32_t ObsStride() const { return config_.nodes + 1; }
  NodeId ObsBaseOf(GroupId g) const { return g.value * ObsStride(); }

  obs::FlightRecorder* flight_recorder() { return fabric_.recorder(); }
  bool AllWatchdogsOk() const;
  std::string WatchdogSummary() const;

  // Runs the simulator until every group elected a leader (or deadline).
  // Returns true when all groups have one.
  bool WaitForAllLeaders(TimeNs deadline = Seconds(2));

  // Current route for a slot against the authoritative map: owner group's
  // admission ingress and retry path plus the map epoch. Plug straight into
  // ClientHost::EnableSharding.
  ClientHost::ShardRoute RouteOf(uint32_t slot) const;

  // Kicks off a two-phase move of [lo, hi] to `dest` (FIFO behind any move
  // already in flight).
  void StartMove(uint32_t lo, uint32_t hi, GroupId dest) {
    coordinator_->StartMove(lo, hi, dest);
  }

  // Cross-group sums.
  uint64_t TotalExecuted() const;
  uint64_t TotalReplies() const;
  uint64_t TotalWrongShardNacks() const;  // middlebox + server gates
  uint64_t TotalDoubleApplies() const;

  // Every group's counters under "<obs_scope>shard<g>." plus the shard-wide
  // control-plane counters under "<obs_scope>shard/".
  void ExportMetrics(obs::MetricsRegistry* metrics);

 private:
  ShardedClusterConfig config_;
  Fabric fabric_;
  // One per group when the fabric records, attached by the group's cluster.
  // Declared before groups_ so each outlives the cluster that detaches it.
  std::vector<std::unique_ptr<obs::Watchdog>> watchdogs_;
  ShardMap map_;
  std::vector<std::unique_ptr<Cluster>> groups_;
  std::unique_ptr<ShardCoordinator> coordinator_;
};

}  // namespace hovercraft

#endif  // SRC_SHARD_SHARDED_CLUSTER_H_
