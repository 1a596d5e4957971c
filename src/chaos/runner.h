// One chaos run, end to end: build a deployment, drive a KV workload from
// open-loop clients while the nemesis injects faults (or, sharded, while the
// coordinator moves slot ranges between groups), settle, then check.
//
// Shared by the chaos tests and tools/chaos_runner so a failing seed from CI
// replays identically from the command line:
//
//   chaos_runner --schedule=partition-leader --seed=42 --mode=hovercraft
//   chaos_runner --groups=2 --seed=5 --kill-leader-mid-move
//
// Pass criteria (ok()): every group ends with a live leader and converged
// replica digests, the client history is linearizable and the check
// conclusive, no server ever double-applied, and the watchdog stayed silent.
#ifndef SRC_CHAOS_RUNNER_H_
#define SRC_CHAOS_RUNNER_H_

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "src/chaos/linearizability.h"
#include "src/common/types.h"
#include "src/core/cluster.h"
#include "src/core/fabric.h"
#include "src/loadgen/experiment.h"

namespace hovercraft {

namespace obs {
class FlightRecorder;
}  // namespace obs

// A scripted shard move: slots [lo, hi] to group `dest`, `at` after the start
// of the load window.
struct ShardMove {
  TimeNs at = 0;
  uint32_t lo = 0;
  uint32_t hi = 0;
  int32_t dest = 0;
};

// "T:LO:HI:D" — T microseconds in: one item of the --move-at-us flag.
bool ParseShardMove(std::string_view item, ShardMove* out);

struct ChaosRunConfig {
  // The chaos defaults on top of ClusterConfig's: JBSQ repliers with queues
  // of 64, symmetric election timeouts (stagger_first_election off), disks
  // that keep their bytes (server_template.disk_faults, which Check()
  // requires) and a KvService per node.
  ChaosRunConfig();

  // The deployment: one group, or in a sharded run the template of every
  // group (src/shard/sharded_cluster.h). Its seed is the run's: it also
  // seeds the clients and the nemesis. Its watchdog stays unset (the run
  // attaches its own; see `watchdog`); everything else is used as set:
  //  - costs.tx_batching / tx_batch_delay_ns: batching must be verdict-
  //    invariant; the transport-batching tests run every schedule batched
  //    and not and require identical chaos outcomes;
  //  - server_template.dedup_enabled: off with retries on demonstrates the
  //    double-apply anomaly (ServerStats::double_applies, and typically a
  //    linearizability violation);
  //  - raft.pre_vote / check_quorum / read_index / read_lease_timeout
  //    (docs/hardening.md): the attack schedules run with the relevant
  //    defense off as the control (the attack visibly succeeds) and on as
  //    the proof (no disruption, no stale read);
  //  - raft.persist_latency, server_template.fsync_policy / wal_recovery
  //    (docs/durability.md): the disk-* schedules run the defaults as the
  //    defended proof and kAckBeforeSync or wal_recovery=false as the control
  //    whose violations show the fault genuinely bites;
  //  - spare_nodes: servers outside the initial config that the churn
  //    schedules and the scripted membership events below draw on;
  //  - app_factory: tests plant a deliberately broken state machine here to
  //    prove the checker catches it;
  //  - critical_path (unsharded runs): attached to the recorder for the run.
  ClusterConfig cluster;
  // The run's fabric. The recorder depth (0 disables recording and with it
  // the watchdog) is independent of `obs`; when `obs` is set the run samples
  // queue depths into it and exports the cluster counters at the end.
  // Nemesis faults are recorded as notes.
  FabricConfig fabric;

  std::string schedule = "random";

  // Consensus groups. Above 1 the run is sharded (src/shard): `groups`
  // groups of cluster.nodes replicas share one fabric, every op resolves its
  // owner through the shard map, and the coordinator runs the move script
  // below. A sharded run takes the "none" schedule, a multicast mode, no
  // spares and no membership events or injected violations (see Check()).
  int32_t groups = 1;
  int32_t clients = 2;
  double rate_rps_per_client = 4'000;
  int32_t keys = 8;
  // Per-client concurrency bound + abandonment timeout (see ClientHost::
  // set_outstanding_limit). Keeps the number of forever-open operations —
  // requests swallowed by a partition — small enough to check exhaustively.
  size_t outstanding_limit = 4;
  TimeNs give_up = Millis(30);

  TimeNs duration = Millis(150);  // nemesis + load window
  TimeNs settle = Millis(100);    // quiet period before the final checks

  // Client retransmission (exactly-once stress). Disabled by default: the
  // legacy schedules run fire-and-forget clients; the reply-facing schedules
  // need retries to make progress at all. Sharded runs always retry: a
  // request caught by a freeze window chases the moving range via
  // wrong-shard redirects, and past the redirect cap the backoff timer
  // re-resolves the route until the cutover lands.
  bool retry_enabled = false;
  TimeNs retry_initial_backoff = Micros(500);
  uint32_t retry_max_attempts = 0;  // 0 = bounded by give_up only

  uint64_t checker_max_states = 4'000'000;

  // Scripted membership events, offset from the start of the load window
  // (the same clock base the nemesis uses); fired through the cluster's
  // management plane, which retries until the change commits. Composable
  // with any schedule — including one of the churn-* schedules, though
  // mixing the two makes the event log harder to read.
  std::vector<MembershipEvent> add_server_at;
  std::vector<MembershipEvent> remove_server_at;

  // Sharded runs: scripted moves, offset from the start of the load window.
  // Empty = the there-and-back default: group 0's whole initial range to
  // group 1 a third of the way in and back at two thirds, so install and GC
  // both run in both directions while every affected key stays contended.
  std::vector<ShardMove> moves;
  // Kill the first move's source-group leader 1 ms after the move starts and
  // restart it 20 ms later: freeze, failover and flow-ledger reconcile all
  // overlap.
  bool kill_leader_mid_move = false;

  // Online invariant watchdog over the recorder stream (docs/observability.md
  // has the invariant catalog). On by default: every defended chaos run is
  // expected to be violation-free, and a violation fails ok(). Controls that
  // intentionally break an invariant keep it on and assert it fires. A
  // sharded run checks each group with its own node-filtered watchdog.
  bool watchdog = true;
  // Called once at the end of the run, before the deployment is torn down,
  // with the fabric's recorder (not called when recording is off): how a
  // caller exports the run's events.
  std::function<void(const obs::FlightRecorder&)> inspect_recorder;
  // Mutation testing: at the midpoint of the load window, inject a synthetic
  // event stream that violates exactly one invariant, proving the watchdog
  // detects it. Codes: dual-leader, commit-regression, lease-overlap,
  // double-apply, flow-leak. Empty = no injection.
  std::string inject_violation;
  // Flight-recorder dump file written on the first violation/CHECK failure
  // ("" = stderr summary only) and the repro command printed with it.
  std::string dump_path;
  std::string repro;

  // Sharded-run defaults: a hotter load (4 clients x 20 kRPS over 16 keys,
  // 8 outstanding each) over a shorter window, no nemesis, JBSQ queues of
  // 128 as in ShardedClusterConfig.
  static ChaosRunConfig Sharded(int32_t groups);
  // Empty when the run is well-formed, else what is wrong with it.
  std::string Check() const;
};

struct ChaosRunResult {
  int32_t groups = 1;
  // Liveness after the window + settle (the nemesis healed everything): every
  // group has a live leader.
  bool leader_alive = false;
  // Within every group, all live members of the *final committed config*
  // applied the same state (order-sensitive digest match). Removed nodes and
  // unused spares are excluded: a retired replica legitimately stops
  // applying.
  bool digests_converged = false;
  // The committed member set at the end of an unsharded run, for asserting
  // that scripted/churned config changes actually landed.
  std::vector<NodeId> final_members;
  LogIndex final_config_idx = 0;

  LinearizabilityResult linearizability;

  size_t invoked = 0;
  size_t completed = 0;
  size_t nacked = 0;
  uint64_t dropped_by_fault = 0;
  // Client-side retry accounting (sums over all clients).
  uint64_t retransmits = 0;
  uint64_t completed_after_retry = 0;
  uint64_t abandoned = 0;
  uint64_t late_completions = 0;
  // Server-side exactly-once accounting (sums over all nodes).
  uint64_t dedup_hits = 0;
  uint64_t dedup_replies = 0;
  uint64_t double_applies = 0;
  // Adversarial-hardening accounting (sums over all nodes; docs/hardening.md).
  // leader_disruptions counts elections won beyond the initial one — the
  // metric the attack controls drive up and the defenses hold at zero.
  uint64_t leader_disruptions = 0;
  Term max_term = 0;
  uint64_t prevote_rounds = 0;
  uint64_t stepdowns_check_quorum = 0;
  uint64_t votes_ignored_sticky = 0;
  uint64_t read_index_served = 0;
  uint64_t read_index_rejected = 0;
  // Total log entries appended cluster-wide: with read_index on, pure-read
  // load must not grow it (reads never enter the log).
  uint64_t entries_appended = 0;
  // Durability accounting (sums over all nodes; docs/durability.md).
  uint64_t wal_recoveries = 0;
  uint64_t torn_truncations = 0;
  uint64_t corrupt_records = 0;
  uint64_t suspect_recoveries = 0;
  uint64_t suspect_repaired = 0;
  uint64_t acks_deferred_persist = 0;
  uint64_t acks_dropped_crash = 0;
  uint64_t disk_bytes_lost = 0;
  // Entries below a node's commit index overwritten by a new leader — the
  // committed-data-loss anomaly itself. Zero in every defended run; the
  // unsafe controls drive it (see RaftStats::committed_overwritten).
  uint64_t committed_overwritten = 0;
  // Sharded runs: the coordinator's move accounting and the map epoch at the
  // end, client-side wrong-shard redirect resends and the NACK(wrong_shard)
  // count of every gate (middleboxes + servers).
  uint64_t moves_started = 0;
  uint64_t moves_completed = 0;
  uint64_t moves_failed = 0;
  uint64_t final_epoch = 0;
  uint64_t capture_bytes = 0;
  uint64_t redirects = 0;
  uint64_t wrong_shard_nacks = 0;
  std::vector<std::string> nemesis_events;
  // Per node: "node 2: term=5 leader alive digest=..." — final state, for
  // diagnosing a failed run.
  std::vector<std::string> node_states;

  // Watchdog verdict (zero violations required when the watchdog ran; a run
  // with the watchdog off reports watchdog_ok=true and summary "off").
  bool watchdog_ok = true;
  uint64_t watchdog_events = 0;
  uint64_t watchdog_checks = 0;
  uint64_t watchdog_violations = 0;
  std::string watchdog_summary = "off";
  // Total flight-recorder events this run produced (0 when depth=0).
  uint64_t recorder_events = 0;

  bool ok() const {
    return leader_alive && digests_converged && linearizability.linearizable &&
           linearizability.conclusive() && watchdog_ok && double_applies == 0;
  }
  // Multi-line report for test failure messages.
  std::string Describe() const;
};

ChaosRunResult RunChaosSchedule(const ChaosRunConfig& config);

}  // namespace hovercraft

#endif  // SRC_CHAOS_RUNNER_H_
