#include "src/chaos/runner.h"

#include <algorithm>
#include <array>
#include <iterator>
#include <sstream>
#include <utility>

#include "src/app/kvstore/service.h"
#include "src/chaos/history.h"
#include "src/chaos/kv_workload.h"
#include "src/chaos/nemesis.h"
#include "src/common/check.h"
#include "src/common/flags.h"
#include "src/core/cluster.h"
#include "src/loadgen/client.h"
#include "src/obs/flight_recorder.h"
#include "src/obs/observability.h"
#include "src/obs/watchdog.h"
#include "src/shard/sharded_cluster.h"

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
  out << "dropped_by_fault=" << dropped_by_fault << "\n";
  if (groups > 1) {
    out << "moves: started=" << moves_started << " completed=" << moves_completed
        << " failed=" << moves_failed << " epoch=" << final_epoch
        << " capture_bytes=" << capture_bytes << "\n"
        << "shard: groups=" << groups << " redirects=" << redirects
        << " wrong_shard_nacks=" << wrong_shard_nacks;
  } else {
    out << "members (config idx " << final_config_idx << "):";
    for (NodeId m : final_members) {
      out << " " << m;
    }
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

bool ParseShardMove(std::string_view item, ShardMove* out) {
  std::string_view fields[4];
  int64_t at_us = 0;
  if (!SplitFields(item, ':', fields) || !ParseNumber(fields[0], &at_us) ||
      !ParseNumber(fields[1], &out->lo) || !ParseNumber(fields[2], &out->hi) ||
      !ParseNumber(fields[3], &out->dest)) {
    return false;
  }
  out->at = Micros(at_us);
  return true;
}

ChaosRunConfig::ChaosRunConfig() {
  cluster.replier_policy = ReplierPolicy::kJbsq;
  cluster.bounded_queue_depth = 64;
  // The stagger shortcut gives node 0 a permanently shorter election timeout.
  // Without pre-vote, a healed-but-stale node 0 then livelocks elections:
  // its 1-2 ms timer bumps the term faster than the 5-10 ms peers can elect.
  // Chaos runs need the symmetric timeouts real deployments would have.
  cluster.stagger_first_election = false;
  cluster.app_factory = []() { return std::make_unique<KvService>(); };
  cluster.server_template.disk_faults = true;  // the nemesis may power-fail or corrupt
}

ChaosRunConfig ChaosRunConfig::Sharded(int32_t groups) {
  ChaosRunConfig config;
  config.groups = groups;
  config.schedule = "none";
  config.clients = 4;
  config.rate_rps_per_client = 20'000;  // 80 kRPS aggregate
  config.keys = 16;
  config.outstanding_limit = 8;
  config.duration = Millis(120);
  config.settle = Millis(80);
  config.cluster.bounded_queue_depth = 128;
  return config;
}

std::string ChaosRunConfig::Check() const {
  if (!Nemesis::IsValidSchedule(schedule)) {
    return "unknown schedule '" + schedule + "'; try --list-schedules";
  }
  if (!inject_violation.empty()) {
    const char* const kCodes[] = {"dual-leader", "commit-regression", "lease-overlap",
                                  "double-apply", "flow-leak"};
    if (std::find(std::begin(kCodes), std::end(kCodes), inject_violation) == std::end(kCodes)) {
      return "unknown inject_violation '" + inject_violation +
             "' (want dual-leader | commit-regression | lease-overlap | double-apply | "
             "flow-leak)";
    }
    if (fabric.flight_recorder_depth == 0) {
      return "inject_violation needs the flight recorder on";
    }
  }
  if (!cluster.server_template.disk_faults) {
    return "the nemesis may power-fail or corrupt a disk, so disk_faults stays on";
  }
  if (cluster.watchdog != nullptr) {
    return "the run attaches its own watchdog (see `watchdog`); cluster.watchdog stays unset";
  }
  if (groups < 1) {
    return "groups must be at least 1";
  }
  if (groups == 1) {
    return moves.empty() && !kill_leader_mid_move ? "" : "shard moves need groups > 1";
  }
  if ((cluster.mode != ClusterMode::kHovercRaft && cluster.mode != ClusterMode::kHovercRaftPP) ||
      schedule != "none" || cluster.spare_nodes != 0 || !add_server_at.empty() ||
      !remove_server_at.empty() || !inject_violation.empty() ||
      cluster.critical_path != nullptr || !watchdog) {
    return "a sharded run (groups > 1) needs a multicast mode and schedule none, takes no "
           "spares, membership events, injected violation or critical-path sink, and keeps "
           "its watchdogs on";
  }
  return "";
}

namespace {

// Backoff cap of every retrying chaos client.
constexpr TimeNs kRetryMaxBackoff = Millis(4);

// What a run drives: one consensus group, or several sharing one fabric.
struct Deployment {
  Fabric& fabric;
  std::vector<Cluster*> groups;
  ShardedCluster* sharded = nullptr;  // null in an unsharded run
};

// Sums the groups' watchdogs; with none (recorder or watchdog off) the
// verdict stays ok with summary "off".
void RecordWatchdogVerdict(const Deployment& d, ChaosRunResult* result) {
  for (Cluster* group : d.groups) {
    if (const obs::Watchdog* wd = group->config().watchdog; wd != nullptr) {
      result->watchdog_ok = result->watchdog_ok && wd->ok();
      result->watchdog_events += wd->events();
      result->watchdog_checks += wd->checks();
      result->watchdog_violations += wd->violations_total();
      result->watchdog_summary =
          d.sharded != nullptr ? d.sharded->WatchdogSummary() : wd->Summary();
    }
  }
}

// Records a synthetic event stream mid-window that violates exactly one
// watchdog invariant (mutation testing). Node ids and terms sit far outside
// anything the real run produces, so the injected violation is attributable
// in the dump and collateral-free for per-node state.
void InjectViolation(Simulator* sim, obs::FlightRecorder* fr, const std::string& code,
                     TimeNs at) {
  sim->At(at, [fr, sim, code]() {
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

// Schedules the move script (sharded runs): the configured moves, or the
// there-and-back default, plus the optional mid-move leader kill.
void ArmMoves(const ChaosRunConfig& config, ShardedCluster& sharded, TimeNs t0) {
  std::vector<ShardMove> moves = config.moves;
  if (moves.empty()) {
    const std::vector<uint32_t> g0 = sharded.shard_map().SlotsOf(GroupId{0});
    moves = {{config.duration / 3, g0.front(), g0.back(), 1},
             {2 * config.duration / 3, g0.front(), g0.back(), 0}};
  }
  Simulator& sim = sharded.sim();
  for (const ShardMove& mv : moves) {
    sim.At(t0 + mv.at, [&sharded, mv]() { sharded.StartMove(mv.lo, mv.hi, GroupId{mv.dest}); });
  }
  if (!config.kill_leader_mid_move) {
    return;
  }
  const ShardMove first = moves.front();
  auto source = [&sharded, first]() -> Cluster& {
    const GroupId owner = sharded.shard_map().OwnerOf(first.lo);
    return sharded.group(owner.valid() ? owner : GroupId{0});
  };
  // By now the range is frozen and the owner unchanged; kill that group's
  // leader so the freeze/capture overlaps a failover.
  sim.At(t0 + first.at + Millis(1), [source]() { source().KillLeader(); });
  sim.At(t0 + first.at + Millis(21), [source]() {
    Cluster& cluster = source();
    for (NodeId n = 0; n < cluster.total_node_count(); ++n) {
      if (cluster.server(n).failed()) {
        cluster.RestartNode(n);
      }
    }
  });
}

ChaosRunResult Drive(const ChaosRunConfig& config, const Deployment& d) {
  Simulator& sim = d.fabric.sim();
  obs::FlightRecorder* flight_recorder = d.fabric.recorder();
  ChaosRunResult result;
  result.groups = config.groups;
  const bool elected = d.sharded != nullptr ? d.sharded->WaitForAllLeaders()
                                            : d.groups.front()->WaitForLeader() != kInvalidNode;
  if (!elected) {
    RecordWatchdogVerdict(d, &result);
    if (flight_recorder != nullptr) {
      flight_recorder->DumpNow("chaos run failed to elect a leader");
    }
    return result;  // leader_alive stays false
  }

  // Clients address group 0 (the only group of an unsharded run). In a
  // sharded run that target is a fallback only: every op carries a data slot
  // and resolves through the shard route.
  Cluster& home = *d.groups.front();
  const bool retries = config.retry_enabled || d.sharded != nullptr;
  KvHistoryRecorder recorder;
  std::vector<std::unique_ptr<ClientHost>> clients;
  for (int32_t i = 0; i < config.clients; ++i) {
    ChaosKvWorkloadConfig wc;
    wc.keys = config.keys;
    wc.value_tag = static_cast<uint64_t>(i);  // written values unique per client
    auto client = std::make_unique<ClientHost>(
        &sim, home.config().costs, [&home]() { return home.ClientTarget(); },
        std::make_unique<ChaosKvWorkload>(wc), config.rate_rps_per_client,
        config.cluster.seed * 1000 + static_cast<uint64_t>(i));
    if (d.sharded != nullptr) {
      // One-lookup-behind map cache: a resolve returns the previously
      // fetched route and refreshes the cache. Post-cutover sends therefore
      // hit the old owner first and take the NACK(wrong_shard) redirect
      // path, like a real client with a cached map would.
      ShardedCluster& sharded = *d.sharded;
      auto cache = std::make_shared<std::array<ClientHost::ShardRoute, kShardSlots>>();
      client->EnableSharding([&sharded, cache](uint32_t slot) {
        ClientHost::ShardRoute stale = (*cache)[slot];
        (*cache)[slot] = sharded.RouteOf(slot);
        return stale.epoch == 0 ? (*cache)[slot] : stale;
      });
    }
    client->set_outstanding_limit(config.outstanding_limit, config.give_up);
    if (retries) {
      ClientHost::RetryPolicy rp;
      rp.enabled = true;
      rp.initial_backoff = config.retry_initial_backoff;
      rp.max_backoff = kRetryMaxBackoff;
      rp.max_attempts = config.retry_max_attempts;
      client->set_retry_policy(rp);
      if (d.sharded == nullptr) {
        // Retries bypass the flow-control middlebox (see
        // Cluster::RetryTarget): the first attempt consumed the admission
        // slot already. Sharded retries follow the shard route instead.
        client->set_retry_target([&home]() { return home.RetryTarget(); });
      }
    }
    client->set_observer(&recorder);
    d.fabric.network().Attach(client.get());
    clients.push_back(std::move(client));
  }

  const TimeNs t0 = sim.Now();
  NemesisConfig nc;
  nc.schedule = config.schedule;
  nc.seed = config.cluster.seed;
  nc.start = t0;
  nc.end = t0 + config.duration;
  for (const auto& client : clients) {
    nc.clients.push_back(client->id());
  }
  Nemesis nemesis(&home, nc);
  nemesis.Arm();

  // Scripted membership events share the nemesis clock base (offsets from
  // the start of the load window).
  for (const auto& ev : config.add_server_at) {
    sim.At(t0 + ev.at, [&home, ev]() { home.AddServer(ev.node); });
  }
  for (const auto& ev : config.remove_server_at) {
    sim.At(t0 + ev.at, [&home, ev]() { home.RemoveServer(ev.node); });
  }
  if (d.sharded != nullptr) {
    ArmMoves(config, *d.sharded, t0);
  }
  if (flight_recorder != nullptr && !config.inject_violation.empty()) {
    InjectViolation(&sim, flight_recorder, config.inject_violation, t0 + config.duration / 2);
  }

  if (config.fabric.obs != nullptr) {
    config.fabric.obs->StartSampling(&sim, t0 + config.duration + config.settle);
  }

  for (auto& client : clients) {
    client->StartLoad(t0, t0 + config.duration);
  }
  sim.RunUntil(t0 + config.duration + config.settle);

  if (config.fabric.obs != nullptr) {
    if (d.sharded != nullptr) {
      d.sharded->ExportMetrics(&config.fabric.obs->metrics());
    } else {
      home.ExportMetrics(&config.fabric.obs->metrics());
    }
  }

  if (d.sharded == nullptr) {
    result.final_members = home.Members();
    result.final_config_idx = home.applied_config_idx();
  }
  result.leader_alive = true;
  result.digests_converged = true;
  uint64_t times_leader = 0;
  for (size_t g = 0; g < d.groups.size(); ++g) {
    Cluster& cluster = *d.groups[g];
    result.leader_alive = result.leader_alive && cluster.LeaderId() != kInvalidNode;
    // Convergence is judged over the live members of the final committed
    // config: a removed (retired) replica or an unused spare legitimately
    // stops at whatever state it last applied.
    std::vector<NodeId> check_set;
    for (NodeId node : cluster.Members()) {
      if (!cluster.server(node).failed()) {
        check_set.push_back(node);
      }
    }
    if (check_set.empty()) {
      result.digests_converged = false;
    }
    for (NodeId node : check_set) {
      if (cluster.server(node).app().Digest() != cluster.server(check_set[0]).app().Digest()) {
        result.digests_converged = false;
      }
    }
    const std::string group_prefix =
        d.sharded != nullptr ? "g" + std::to_string(g) + " " : std::string();
    for (NodeId node = 0; node < cluster.total_node_count(); ++node) {
      ReplicatedServer& server = cluster.server(node);
      std::ostringstream state;
      state << group_prefix << "node " << node << ": term=" << server.raft()->term()
            << (server.IsLeader() ? " leader" : "") << (server.failed() ? " dead" : "")
            << (cluster.IsMember(node) ? "" : " non-member")
            << " applied=" << server.app().ApplyCount() << " digest=" << std::hex
            << server.app().Digest();
      result.node_states.push_back(state.str());

      const ServerStats& stats = server.server_stats();
      result.dedup_hits += stats.dedup_hits;
      result.dedup_replies += stats.dedup_replies;
      result.double_applies += stats.double_applies;
      result.read_index_served += stats.read_index_local + stats.read_index_remote;
      const RaftStats& rs = server.raft()->stats();
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
      result.max_term = std::max(result.max_term, server.raft()->term());
      if (const StableStorage* storage = server.storage(); storage != nullptr) {
        const StorageStats& ss = storage->stats();
        result.wal_recoveries += ss.recoveries;
        result.torn_truncations += ss.torn_truncations;
        result.corrupt_records += ss.corrupt_records;
        result.suspect_recoveries += ss.suspect_recoveries;
        result.disk_bytes_lost += server.disk()->stats().bytes_lost;
      }
    }
  }
  // Every group's first election is expected; disruptions are the rest.
  const auto elections = static_cast<uint64_t>(d.groups.size());
  result.leader_disruptions = times_leader > elections ? times_leader - elections : 0;

  result.invoked = recorder.invoked();
  result.completed = recorder.completed();
  result.nacked = recorder.nacked();
  result.dropped_by_fault = d.fabric.network().dropped_by_fault();
  for (const auto& client : clients) {
    result.retransmits += client->total_retransmits();
    result.completed_after_retry += client->completed_after_retry();
    result.abandoned += client->total_abandoned();
    result.late_completions += client->late_completions();
    result.redirects += client->total_redirects();
  }
  if (d.sharded != nullptr) {
    const ShardCoordinator::CoordinatorStats& cs = d.sharded->coordinator().stats();
    result.moves_started = cs.moves_started;
    result.moves_completed = cs.moves_completed;
    result.moves_failed = cs.moves_failed;
    result.capture_bytes = cs.capture_bytes;
    result.final_epoch = d.sharded->shard_map().epoch();
    result.wrong_shard_nacks = d.sharded->TotalWrongShardNacks();
  }
  if (flight_recorder != nullptr) {
    result.recorder_events = flight_recorder->recorded();
  }
  RecordWatchdogVerdict(d, &result);
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

ChaosRunResult DriveAndInspect(const ChaosRunConfig& config, const Deployment& d) {
  ChaosRunResult result = Drive(config, d);
  if (config.inspect_recorder && d.fabric.recorder() != nullptr) {
    config.inspect_recorder(*d.fabric.recorder());
  }
  return result;
}

}  // namespace

ChaosRunResult RunChaosSchedule(const ChaosRunConfig& config) {
  HC_CHECK(config.Check().empty());  // Check() says what is wrong
  ClusterConfig cc = config.cluster;
  if (config.groups > 1) {
    ShardedClusterConfig sc;
    static_cast<ClusterConfig&>(sc) = cc;
    static_cast<FabricConfig&>(sc) = config.fabric;
    sc.groups = config.groups;
    ShardedCluster sharded(sc);
    Deployment d{sharded.fabric(), {}, &sharded};
    for (int32_t g = 0; g < config.groups; ++g) {
      d.groups.push_back(&sharded.group(GroupId{g}));
    }
    if (obs::FlightRecorder* fr = sharded.flight_recorder(); fr != nullptr) {
      fr->set_repro(config.repro);
      fr->set_dump_path(config.dump_path);
    }
    return DriveAndInspect(config, d);
  }

  // The run's own fabric, so the recorder carries this run's repro command
  // from the first event and the watchdog can dump it on a violation.
  Fabric fabric(cc.seed, config.fabric);
  std::unique_ptr<obs::Watchdog> watchdog;
  if (obs::FlightRecorder* fr = fabric.recorder(); fr != nullptr) {
    fr->set_repro(config.repro);
    fr->set_dump_path(config.dump_path);
    if (config.watchdog) {
      watchdog = std::make_unique<obs::Watchdog>(fr);
    }
  }
  cc.watchdog = watchdog.get();
  Cluster cluster(fabric, cc);
  return DriveAndInspect(config, Deployment{fabric, {&cluster}, nullptr});
}

}  // namespace hovercraft
