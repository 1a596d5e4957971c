#include "src/chaos/runner.h"

#include <algorithm>
#include <sstream>
#include <utility>

#include "src/app/kvstore/service.h"
#include "src/chaos/history.h"
#include "src/chaos/kv_workload.h"
#include "src/chaos/nemesis.h"
#include "src/core/cluster.h"
#include "src/loadgen/client.h"
#include "src/obs/flight_recorder.h"
#include "src/obs/observability.h"
#include "src/obs/watchdog.h"

namespace hovercraft {

std::string ChaosRunResult::Describe() const {
  std::ostringstream out;
  out << "leader_alive=" << leader_alive << " digests_converged=" << digests_converged
      << " linearizable=" << linearizability.linearizable
      << " conclusive=" << linearizability.conclusive() << "\n"
      << "ops: invoked=" << invoked << " completed=" << completed << " nacked=" << nacked
      << " open=" << linearizability.open_ops << " keys=" << linearizability.keys
      << " states=" << linearizability.states_explored << "\n";
  if (!linearizability.failure_key.empty()) {
    out << "non-linearizable key: " << linearizability.failure_key << "\n";
  }
  out << "dropped_by_fault=" << dropped_by_fault << "\n"
      << "members (config idx " << final_config_idx << "):";
  for (NodeId m : final_members) {
    out << " " << m;
  }
  out << "\n"
      << "hardening: disruptions=" << leader_disruptions << " max_term=" << max_term
      << " prevote_rounds=" << prevote_rounds
      << " stepdowns_cq=" << stepdowns_check_quorum
      << " votes_ignored=" << votes_ignored_sticky
      << " reads_served=" << read_index_served
      << " reads_rejected=" << read_index_rejected << "\n"
      << "retry: retransmits=" << retransmits
      << " completed_after_retry=" << completed_after_retry << " abandoned=" << abandoned
      << " late_completions=" << late_completions << "\n"
      << "dedup: hits=" << dedup_hits << " cached_replies=" << dedup_replies
      << " double_applies=" << double_applies << "\n"
      << "storage: recoveries=" << wal_recoveries << " torn=" << torn_truncations
      << " corrupt=" << corrupt_records << " suspect=" << suspect_recoveries
      << " repaired=" << suspect_repaired
      << " acks_deferred=" << acks_deferred_persist
      << " acks_dropped=" << acks_dropped_crash
      << " bytes_lost=" << disk_bytes_lost
      << " committed_overwritten=" << committed_overwritten << "\n"
      << "watchdog: " << watchdog_summary << "\n";
  for (const std::string& state : node_states) {
    out << state << "\n";
  }
  out << "nemesis events:\n";
  for (const std::string& event : nemesis_events) {
    out << "  " << event << "\n";
  }
  return out.str();
}

ChaosRunResult RunChaosSchedule(const ChaosRunConfig& config) {
  ClusterConfig cc;
  cc.mode = config.mode;
  cc.nodes = config.nodes;
  cc.spare_nodes = config.spare_nodes;
  cc.seed = config.seed;
  cc.replier_policy = ReplierPolicy::kJbsq;
  cc.bounded_queue_depth = config.bounded_queue_depth;
  cc.flow_control_threshold = config.flow_control_threshold;
  cc.app_factory = config.app_factory
                       ? config.app_factory
                       : []() { return std::make_unique<KvService>(); };
  cc.server_template.dedup_enabled = config.dedup_enabled;
  cc.costs.tx_batching = config.tx_batching;
  cc.costs.tx_batch_delay_ns = config.tx_batch_delay_ns;
  cc.raft.pre_vote = config.pre_vote;
  cc.raft.check_quorum = config.check_quorum;
  cc.raft.read_index = config.read_index;
  cc.raft.read_lease_timeout = config.read_lease_timeout;
  cc.raft.persist_latency = config.persist_latency;
  cc.server_template.fsync_policy = config.fsync_policy;
  cc.server_template.wal_recovery = config.wal_recovery;
  // The stagger shortcut gives node 0 a permanently shorter election timeout.
  // Without pre-vote, a healed-but-stale node 0 then livelocks elections:
  // its 1-2 ms timer bumps the term faster than the 5-10 ms peers can elect.
  // Chaos runs need the symmetric timeouts real deployments would have.
  cc.stagger_first_election = false;
  cc.obs = config.obs;

  // Flight recorder + watchdog. The runner owns the recorder (rather than
  // letting the cluster build its default) so the watchdog can dump it on a
  // violation, and so the dump carries the repro command for this run.
  std::unique_ptr<obs::FlightRecorder> owned_recorder;
  obs::FlightRecorder* flight_recorder = config.flight_recorder;
  if (flight_recorder == nullptr && config.flight_recorder_depth > 0) {
    owned_recorder = std::make_unique<obs::FlightRecorder>(config.flight_recorder_depth);
    flight_recorder = owned_recorder.get();
  }
  std::unique_ptr<obs::Watchdog> watchdog;
  if (flight_recorder != nullptr) {
    flight_recorder->set_repro(config.repro);
    flight_recorder->set_dump_path(config.dump_path);
    if (config.watchdog) {
      watchdog = std::make_unique<obs::Watchdog>(flight_recorder);
    }
  }
  cc.flight_recorder_depth = config.flight_recorder_depth;
  cc.flight_recorder = flight_recorder;
  cc.watchdog = watchdog.get();
  Cluster cluster(cc);

  ChaosRunResult result;
  if (cluster.WaitForLeader() == kInvalidNode) {
    if (watchdog != nullptr) {
      result.watchdog_ok = watchdog->ok();
      result.watchdog_summary = watchdog->Summary();
    }
    if (flight_recorder != nullptr) {
      flight_recorder->DumpNow("chaos run failed to elect a leader");
    }
    return result;  // leader_alive stays false
  }

  KvHistoryRecorder recorder;
  std::vector<std::unique_ptr<ClientHost>> clients;
  for (int32_t i = 0; i < config.clients; ++i) {
    ChaosKvWorkloadConfig wc;
    wc.keys = config.keys;
    wc.value_tag = static_cast<uint64_t>(i);  // written values unique per client
    auto client = std::make_unique<ClientHost>(
        &cluster.sim(), cluster.config().costs, [&cluster]() { return cluster.ClientTarget(); },
        std::make_unique<ChaosKvWorkload>(wc), config.rate_rps_per_client,
        config.seed * 1000 + static_cast<uint64_t>(i));
    client->set_outstanding_limit(config.outstanding_limit, config.give_up);
    if (config.retry_enabled) {
      ClientHost::RetryPolicy rp;
      rp.enabled = true;
      rp.initial_backoff = config.retry_initial_backoff;
      rp.max_backoff = config.retry_max_backoff;
      rp.max_attempts = config.retry_max_attempts;
      client->set_retry_policy(rp);
      // Retries bypass the flow-control middlebox (see Cluster::RetryTarget):
      // the first attempt consumed the admission slot already.
      client->set_retry_target([&cluster]() { return cluster.RetryTarget(); });
    }
    client->set_observer(&recorder);
    cluster.network().Attach(client.get());
    clients.push_back(std::move(client));
  }

  const TimeNs t0 = cluster.sim().Now();
  NemesisConfig nc;
  nc.schedule = config.schedule;
  nc.seed = config.seed;
  nc.start = t0;
  nc.end = t0 + config.duration;
  for (const auto& client : clients) {
    nc.clients.push_back(client->id());
  }
  Nemesis nemesis(&cluster, nc);
  nemesis.Arm();

  // Scripted membership events share the nemesis clock base (offsets from
  // the start of the load window).
  for (const auto& ev : config.add_server_at) {
    cluster.sim().At(t0 + ev.at, [&cluster, ev]() { cluster.AddServer(ev.node); });
  }
  for (const auto& ev : config.remove_server_at) {
    cluster.sim().At(t0 + ev.at, [&cluster, ev]() { cluster.RemoveServer(ev.node); });
  }

  // Watchdog mutation testing: mid-window, record a synthetic event stream
  // that violates exactly one invariant. Node ids and terms sit far outside
  // anything the real run produces, so the injected violation is
  // attributable in the dump and collateral-free for per-node state.
  if (flight_recorder != nullptr && !config.inject_violation.empty()) {
    obs::FlightRecorder* fr = flight_recorder;
    Simulator* sim = &cluster.sim();
    const std::string code = config.inject_violation;
    sim->At(t0 + config.duration / 2, [fr, sim, code]() {
      const TimeNs now = sim->Now();
      constexpr uint64_t kBigTerm = 1'000'000'000ull;
      const auto leader = static_cast<uint64_t>(obs::FrRole::kLeader);
      if (code == "dual-leader") {
        // Two leaders claim the same term: election safety broken.
        fr->Record(now, 90, obs::FrType::kRole, kBigTerm, leader);
        fr->Record(now, 91, obs::FrType::kRole, kBigTerm, leader);
      } else if (code == "commit-regression") {
        // A new leader truncated the log below a node's commit index.
        fr->Record(now, 92, obs::FrType::kCommitLoss, 5, 10);
      } else if (code == "lease-overlap") {
        // A grant below the cluster commit watermark: a deposed leader's
        // lease overlapped the new leader's tenure (stale read hazard).
        fr->Record(now, 93, obs::FrType::kCommit, kBigTerm, kBigTerm);
        fr->Record(now, 94, obs::FrType::kLeaseGrant, 1, 94);
      } else if (code == "double-apply") {
        // The session table let an already-executed write re-apply.
        fr->Record(now, 95, obs::FrType::kApply, 999'999, 1, 1);
      } else if (code == "flow-leak") {
        // The ledger reports more open slots than the event stream sums.
        fr->Record(now, kInvalidNode, obs::FrType::kFlow, 1'000'000, 1,
                   static_cast<uint32_t>(obs::FrFlowOp::kClose));
      }
    });
  }

  if (config.obs != nullptr) {
    config.obs->StartSampling(&cluster.sim(), t0 + config.duration + config.settle);
  }

  for (auto& client : clients) {
    client->StartLoad(t0, t0 + config.duration);
  }
  cluster.sim().RunUntil(t0 + config.duration + config.settle);

  if (config.obs != nullptr) {
    cluster.ExportMetrics(&config.obs->metrics());
  }

  result.leader_alive = cluster.LeaderId() != kInvalidNode;
  result.final_members = cluster.Members();
  result.final_config_idx = cluster.applied_config_idx();
  // Convergence is judged over the live members of the final committed
  // config: a removed (retired) replica or an unused spare legitimately
  // stops at whatever state it last applied.
  std::vector<NodeId> check_set;
  for (NodeId node : result.final_members) {
    if (!cluster.server(node).failed()) {
      check_set.push_back(node);
    }
  }
  result.digests_converged = !check_set.empty();
  const uint64_t digest0 = check_set.empty() ? 0 : cluster.server(check_set[0]).app().Digest();
  for (NodeId node : check_set) {
    if (cluster.server(node).app().Digest() != digest0) {
      result.digests_converged = false;
    }
  }
  for (NodeId node = 0; node < cluster.total_node_count(); ++node) {
    const ReplicatedServer& server = cluster.server(node);
    std::ostringstream state;
    state << "node " << node << ": term=" << server.raft()->term()
          << (server.IsLeader() ? " leader" : "")
          << (server.failed() ? " dead" : "")
          << (cluster.IsMember(node) ? "" : " non-member")
          << " applied=" << server.app().ApplyCount() << " digest=" << std::hex
          << server.app().Digest();
    result.node_states.push_back(state.str());
  }

  result.invoked = recorder.invoked();
  result.completed = recorder.completed();
  result.nacked = recorder.nacked();
  result.dropped_by_fault = cluster.network().dropped_by_fault();
  for (const auto& client : clients) {
    result.retransmits += client->total_retransmits();
    result.completed_after_retry += client->completed_after_retry();
    result.abandoned += client->total_abandoned();
    result.late_completions += client->late_completions();
  }
  uint64_t times_leader = 0;
  for (NodeId node = 0; node < cluster.total_node_count(); ++node) {
    const ServerStats& stats = cluster.server(node).server_stats();
    result.dedup_hits += stats.dedup_hits;
    result.dedup_replies += stats.dedup_replies;
    result.double_applies += stats.double_applies;
    result.read_index_served += stats.read_index_local + stats.read_index_remote;
    const RaftStats& rs = cluster.server(node).raft()->stats();
    times_leader += rs.times_leader;
    result.prevote_rounds += rs.prevote_rounds;
    result.stepdowns_check_quorum += rs.stepdowns_check_quorum;
    result.votes_ignored_sticky += rs.votes_ignored_sticky;
    result.read_index_rejected += rs.read_index_rejected;
    result.entries_appended += rs.entries_appended;
    result.acks_deferred_persist += rs.acks_deferred_persist;
    result.acks_dropped_crash += rs.acks_dropped_crash;
    result.suspect_repaired += rs.suspect_repaired;
    result.committed_overwritten += rs.committed_overwritten;
    result.max_term = std::max(result.max_term, cluster.server(node).raft()->term());
    if (const StableStorage* storage = cluster.server(node).storage(); storage != nullptr) {
      const StorageStats& ss = storage->stats();
      result.wal_recoveries += ss.recoveries;
      result.torn_truncations += ss.torn_truncations;
      result.corrupt_records += ss.corrupt_records;
      result.suspect_recoveries += ss.suspect_recoveries;
      result.disk_bytes_lost += cluster.server(node).disk()->stats().bytes_lost;
    }
  }
  result.leader_disruptions = times_leader > 0 ? times_leader - 1 : 0;
  if (flight_recorder != nullptr) {
    result.recorder_events = flight_recorder->recorded();
  }
  if (watchdog != nullptr) {
    result.watchdog_ok = watchdog->ok();
    result.watchdog_events = watchdog->events();
    result.watchdog_checks = watchdog->checks();
    result.watchdog_violations = watchdog->violations_total();
    result.watchdog_summary = watchdog->Summary();
  }
  result.nemesis_events = nemesis.events();
  result.linearizability =
      CheckKvLinearizability(recorder.History(), config.checker_max_states);
  // A failed verdict dumps the black box (idempotent: a watchdog violation
  // or CHECK failure that already dumped wins, keeping the earliest window).
  if (flight_recorder != nullptr && !result.ok()) {
    flight_recorder->DumpNow("chaos verdict failure");
  }
  return result;
}

}  // namespace hovercraft
