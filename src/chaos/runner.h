// One chaos run, end to end: build a cluster, drive a KV workload from
// open-loop clients while the nemesis injects faults, settle, then check.
//
// Shared by tests/chaos_test.cc and tools/chaos_runner so a failing seed
// from CI replays identically from the command line:
//
//   chaos_runner --schedule=partition-leader --seed=42 --mode=hovercraft
#ifndef SRC_CHAOS_RUNNER_H_
#define SRC_CHAOS_RUNNER_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/chaos/linearizability.h"
#include "src/common/types.h"
#include "src/loadgen/experiment.h"
#include "src/storage/fsync_policy.h"

namespace hovercraft {

class StateMachine;

namespace obs {
class Observability;
}  // namespace obs

struct ChaosRunConfig {
  ClusterMode mode = ClusterMode::kHovercRaft;
  std::string schedule = "random";
  uint64_t seed = 1;

  int32_t nodes = 3;
  // Extra servers built but outside the initial config; the churn schedules
  // and the scripted membership events below draw on them (see
  // ClusterConfig::spare_nodes).
  int32_t spare_nodes = 0;
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

  // <= 0 disables the flow-control cap (HovercRaft modes only).
  int64_t flow_control_threshold = 0;
  int64_t bounded_queue_depth = 64;

  // eRPC-style transport batching (CostModel::tx_batching), forwarded into
  // the cluster's cost model. Batching must be verdict-invariant: the
  // transport-batching tests run every schedule twice — batched and not —
  // and require identical chaos outcomes.
  bool tx_batching = false;
  TimeNs tx_batch_delay_ns = 0;

  // Client retransmission (exactly-once stress). Disabled by default: the
  // legacy schedules run fire-and-forget clients; the reply-facing schedules
  // need retries to make progress at all.
  bool retry_enabled = false;
  TimeNs retry_initial_backoff = Micros(500);
  TimeNs retry_max_backoff = Millis(4);
  uint32_t retry_max_attempts = 0;  // 0 = bounded by give_up only
  // Server-side session dedup. Turning it off with retries on demonstrates
  // the double-apply anomaly (ServerStats::double_applies, and typically a
  // linearizability violation).
  bool dedup_enabled = true;

  // Adversarial hardening toggles (docs/hardening.md), forwarded into every
  // node's RaftOptions. The attack schedules ("rejoin-storm", "forged-vote",
  // "timer-skew", "stale-read-probe") are meant to run twice: the relevant
  // defense off as the control (the attack visibly succeeds) and on as the
  // proof (no disruption, no stale read).
  bool pre_vote = true;
  bool check_quorum = true;
  bool read_index = false;
  // 0 keeps the strict election_timeout_min lease; widening it past the
  // election timeout models lease clock skew (the stale-read control).
  TimeNs read_lease_timeout = 0;

  // Durability knobs (docs/durability.md), forwarded into every node's disk
  // and storage layer. The disk-* schedules run paired: defaults as the
  // defended proof (zero violations), fsync_policy=kAckBeforeSync (for the
  // power-fail/torn/stall faults) or wal_recovery=false (for corruption) as
  // the control whose violations show the fault genuinely bites.
  TimeNs persist_latency = 0;
  FsyncPolicy fsync_policy = FsyncPolicy::kGroupCommit;
  bool wal_recovery = true;

  // Override the replicated application; defaults to a KvService per node.
  // Exists so tests can plant a deliberately broken state machine and prove
  // the checker catches it.
  std::function<std::unique_ptr<StateMachine>()> app_factory;

  uint64_t checker_max_states = 4'000'000;

  // Scripted membership events, offset from the start of the load window
  // (the same clock base the nemesis uses); fired through the cluster's
  // management plane, which retries until the change commits. Composable
  // with any schedule — including one of the churn-* schedules, though
  // mixing the two makes the event log harder to read.
  std::vector<MembershipEvent> add_server_at;
  std::vector<MembershipEvent> remove_server_at;

  // Optional observability bundle (metrics + samplers). Non-owning; when
  // set, the run samples queue depths into it and exports the cluster
  // counters at the end.
  obs::Observability* obs = nullptr;

  // Always-on flight recorder: per-node ring depth (0 disables recording and
  // with it the watchdog). Independent of `obs`. Nemesis faults are recorded
  // as notes.
  size_t flight_recorder_depth = 512;
  // Caller-owned recorder (non-owning) to record into instead of building
  // one of flight_recorder_depth, so the caller can attach its own sinks and
  // export the events after the run.
  obs::FlightRecorder* flight_recorder = nullptr;
  // Online invariant watchdog over the recorder stream (docs/observability.md
  // has the invariant catalog). On by default: every defended chaos run is
  // expected to be violation-free, and a violation fails ok(). Controls that
  // intentionally break an invariant keep it on and assert it fires.
  bool watchdog = true;
  // Mutation testing: at the midpoint of the load window, inject a synthetic
  // event stream that violates exactly one invariant, proving the watchdog
  // detects it. Codes: dual-leader, commit-regression, lease-overlap,
  // double-apply, flow-leak. Empty = no injection.
  std::string inject_violation;
  // Flight-recorder dump file written on the first violation/CHECK failure
  // ("" = stderr summary only) and the repro command printed with it.
  std::string dump_path;
  std::string repro;
};

struct ChaosRunResult {
  // Liveness after the window + settle (the nemesis healed everything).
  bool leader_alive = false;
  // All live members of the *final committed config* applied the same state
  // (order-sensitive digest match). Removed nodes and unused spares are
  // excluded: a retired replica legitimately stops applying.
  bool digests_converged = false;
  // The committed member set at the end of the run, for asserting that
  // scripted/churned config changes actually landed.
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
           linearizability.conclusive() && watchdog_ok;
  }
  // Multi-line report for test failure messages.
  std::string Describe() const;
};

ChaosRunResult RunChaosSchedule(const ChaosRunConfig& config);

}  // namespace hovercraft

#endif  // SRC_CHAOS_RUNNER_H_
