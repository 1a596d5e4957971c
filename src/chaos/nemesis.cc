#include "src/chaos/nemesis.h"

#include <algorithm>

#include "src/common/check.h"
#include "src/obs/flight_recorder.h"
#include "src/raft/messages.h"

namespace hovercraft {
namespace {

// Scripted fault kinds the "random" schedule draws from.
enum class RandomFault {
  kIsolateLeader = 0,
  kSplitHalves,
  kAsymLeader,
  kDelay,
  kReorder,
  kFlap,
  kCrashFollower,
  kCrashLeader,
  kCount,
};

std::string FormatMs(TimeNs t) {
  return std::to_string(t / 1'000'000) + "." + std::to_string((t / 100'000) % 10) + "ms";
}

}  // namespace

const std::vector<std::string>& Nemesis::ScheduleNames() {
  static const std::vector<std::string> kNames = {
      "none",           "partition-leader", "partition-halves",    "asym-leader",
      "delay",          "reorder",          "flap",                "crash-follower",
      "crash-leader",   "drop-replies",     "crash-replier",       "churn-cycle",
      "churn-remove-leader",                "churn-add-partition", "rejoin-storm",
      "forged-vote",    "timer-skew",       "stale-read-probe",    "disk-power-fail",
      "disk-torn-write",                    "disk-corrupt-entry",  "disk-fsync-stall",
      "disk-corrupt-snapshot",              "random",
  };
  return kNames;
}

bool Nemesis::IsValidSchedule(const std::string& name) {
  const auto& names = ScheduleNames();
  return std::find(names.begin(), names.end(), name) != names.end();
}

Nemesis::Nemesis(Cluster* cluster, const NemesisConfig& config)
    : cluster_(cluster), config_(config), rng_(config.seed ^ 0xC4A05C4A05ull) {
  HC_CHECK(IsValidSchedule(config_.schedule));
  HC_CHECK_LE(config_.start, config_.end);
}

void Nemesis::At(TimeNs when, std::function<void()> fn) {
  cluster_->sim().At(when, std::move(fn));
}

void Nemesis::Log(const std::string& text) {
  events_.push_back(FormatMs(cluster_->sim().Now()) + " " + text);
  // Nemesis faults double as recorder notes on the cluster-wide track.
  if (auto* fr = obs::FrOf(&cluster_->sim())) {
    fr->Note(cluster_->sim().Now(), kInvalidNode, "nemesis: " + text);
  }
}

NodeId Nemesis::CurrentLeaderOr(NodeId fallback) {
  const NodeId leader = cluster_->LeaderId();
  return leader == kInvalidNode ? fallback : leader;
}

NodeId Nemesis::PickFollower(NodeId leader) {
  // A live non-leader *member* if one exists; otherwise any non-leader
  // member. Spares and removed nodes are not followers — faulting them
  // would waste the fault on a node the cluster no longer depends on.
  std::vector<NodeId> live;
  std::vector<NodeId> any;
  for (NodeId node : cluster_->Members()) {
    if (node == leader) {
      continue;
    }
    any.push_back(node);
    if (!cluster_->server(node).failed()) {
      live.push_back(node);
    }
  }
  const auto& pool = live.empty() ? any : live;
  if (pool.empty()) {
    return leader;  // single-member cluster; callers degrade to a no-op fault
  }
  return pool[rng_.NextBelow(pool.size())];
}

NodeId Nemesis::PickSpare() {
  // A built-but-unconfigured server the management plane could add.
  std::vector<NodeId> spares;
  for (NodeId node = 0; node < cluster_->total_node_count(); ++node) {
    if (!cluster_->IsMember(node) && !cluster_->server(node).failed() &&
        cluster_->server(node).raft() != nullptr &&
        !cluster_->server(node).raft()->retired()) {
      spares.push_back(node);
    }
  }
  if (spares.empty()) {
    return kInvalidNode;
  }
  return spares[rng_.NextBelow(spares.size())];
}

void Nemesis::AddSpare() {
  const NodeId spare = PickSpare();
  if (spare == kInvalidNode) {
    Log("churn: add skipped (no spare available)");
    return;
  }
  cluster_->AddServer(spare);
  Log("churn: add node " + std::to_string(spare));
}

void Nemesis::RemoveOne(bool leader) {
  // Never churn below two members: the management plane would happily shrink
  // to a singleton, but a one-node "cluster" makes every later fault in the
  // schedule (and the post-window checks) degenerate.
  if (cluster_->Members().size() <= 2) {
    Log("churn: remove skipped (membership at minimum)");
    return;
  }
  const NodeId victim = leader ? CurrentLeaderOr(0) : PickFollower(CurrentLeaderOr(0));
  cluster_->RemoveServer(victim);
  Log("churn: remove node " + std::to_string(victim) + (leader ? " (leader)" : " (follower)"));
}

void Nemesis::IsolateLeader() {
  const NodeId leader = CurrentLeaderOr(0);
  cluster_->network().SetPartitions({{cluster_->server_host(leader)}});
  Log("partition: isolate node " + std::to_string(leader) + " (leader)");
}

void Nemesis::IsolateFollower() {
  // Rejoin-storm phase 1: cut a follower off completely. Without PreVote it
  // keeps timing out and bumping its term in the dark; the heal turns that
  // inflated term into a leader deposition. With PreVote its polls fail
  // (no quorum reachable) and the term never moves.
  const NodeId leader = CurrentLeaderOr(0);
  isolated_node_ = PickFollower(leader);
  cluster_->network().SetPartitions({{cluster_->server_host(isolated_node_)}});
  Log("rejoin-storm: isolate node " + std::to_string(isolated_node_) +
      " (term " + std::to_string(cluster_->server(isolated_node_).raft()->term()) + ")");
}

void Nemesis::HealIsolated() {
  if (isolated_node_ == kInvalidNode) {
    HealNetwork();
    return;
  }
  const Term term = cluster_->server(isolated_node_).raft()->term();
  cluster_->network().ClearFaults();
  cut_links_.clear();
  Log("rejoin-storm: heal, node " + std::to_string(isolated_node_) +
      " rejoins at term " + std::to_string(term));
  isolated_node_ = kInvalidNode;
}

void Nemesis::ForgedVotePressure() {
  // Inject a crafted RequestVote — higher term, a real member's identity, an
  // empty log — directly into every live server, modeling a spoofed or
  // replayed vote packet. With CheckQuorum stickiness the recipients ignore
  // it (live leader contact / own quorum evidence); without it the inflated
  // term deposes the leader even though the "candidate" could never win.
  const NodeId leader = CurrentLeaderOr(0);
  const NodeId forged_id = PickFollower(leader);
  Term max_term = 0;
  for (NodeId node : cluster_->Members()) {
    if (!cluster_->server(node).failed()) {
      max_term = std::max(max_term, cluster_->server(node).raft()->term());
    }
  }
  const RequestVoteReq forged(max_term + 100, forged_id, /*last_idx=*/0,
                              /*last_term=*/0);
  int injected = 0;
  for (NodeId node : cluster_->Members()) {
    if (node == forged_id || cluster_->server(node).failed()) {
      continue;
    }
    cluster_->server(node).raft()->OnMessage(forged, /*via_aggregator=*/false);
    ++injected;
  }
  Log("forged-vote: injected term " + std::to_string(max_term + 100) +
      " RequestVote as node " + std::to_string(forged_id) + " into " +
      std::to_string(injected) + " node(s)");
}

void Nemesis::SkewFollowerTimer(double scale) {
  // Timer-skew: shrink one follower's election timeout below the heartbeat
  // interval, so it fires mid-heartbeat-gap on a perfectly healthy network.
  // PreVote turns each firing into a failed poll; without it every firing is
  // a real term bump and an election the cluster must absorb.
  const NodeId victim = PickFollower(CurrentLeaderOr(0));
  cluster_->server(victim).raft()->SkewElectionTimer(scale);
  skewed_nodes_.push_back(victim);
  Log("timer-skew: node " + std::to_string(victim) + " election timer x" +
      std::to_string(scale));
}

void Nemesis::RestoreTimers() {
  for (NodeId node : skewed_nodes_) {
    cluster_->server(node).raft()->SkewElectionTimer(1.0);
  }
  Log("timer-skew: restore " + std::to_string(skewed_nodes_.size()) + " timer(s)");
  skewed_nodes_.clear();
}

void Nemesis::StaleReadPartition() {
  // Cut the leader's server-to-server links in both directions but leave its
  // client-facing links (and the middleboxes) intact: the deposed-but-unaware
  // leader keeps receiving multicast reads while the majority elects a new
  // leader and commits fresh writes. A leader that honors its read lease
  // refuses these reads once the lease expires; one that trusts a skewed
  // lease serves stale values the linearizability checker will flag.
  const NodeId leader = CurrentLeaderOr(0);
  const HostId src = cluster_->server_host(leader);
  for (NodeId node = 0; node < cluster_->total_node_count(); ++node) {
    if (node == leader) {
      continue;
    }
    const HostId dst = cluster_->server_host(node);
    cluster_->network().BlockLink(src, dst);
    cluster_->network().BlockLink(dst, src);
    cut_links_.emplace_back(src, dst);
    cut_links_.emplace_back(dst, src);
  }
  Log("stale-read-probe: cut node " + std::to_string(leader) +
      " (leader) from peers, client links stay up");
}

void Nemesis::SplitHalves() {
  // Cut off a minority that contains the current leader, forcing the
  // majority side (which also holds clients and middleboxes — they stay in
  // group 0) to elect a new leader.
  const NodeId leader = CurrentLeaderOr(0);
  const int32_t minority =
      (static_cast<int32_t>(cluster_->Members().size()) - 1) / 2;
  std::vector<HostId> cut = {cluster_->server_host(leader)};
  while (static_cast<int32_t>(cut.size()) < minority) {
    const NodeId extra = PickFollower(leader);
    const HostId host = cluster_->server_host(extra);
    if (std::find(cut.begin(), cut.end(), host) == cut.end()) {
      cut.push_back(host);
    }
  }
  cluster_->network().SetPartitions({cut});
  Log("partition: split off " + std::to_string(cut.size()) +
      " node(s) incl. leader node " + std::to_string(leader));
}

void Nemesis::AsymBlockLeader() {
  // One-way cut: the leader hears everyone but its own frames vanish.
  // Followers miss heartbeats and start an election; the stale leader learns
  // the new term from the inbound traffic it still receives.
  const NodeId leader = CurrentLeaderOr(0);
  const HostId src = cluster_->server_host(leader);
  for (NodeId node = 0; node < cluster_->total_node_count(); ++node) {
    if (node == leader) {
      continue;
    }
    const HostId dst = cluster_->server_host(node);
    cluster_->network().BlockLink(src, dst);
    cut_links_.emplace_back(src, dst);
  }
  Log("asym: block outbound links of node " + std::to_string(leader) + " (leader)");
}

void Nemesis::InjectDelay(TimeNs extra) {
  // Slow every server-to-server link (spares included, so learner catch-up
  // traffic is slowed too); client traffic keeps normal latency, so
  // replication lags the multicast data path (stresses the unordered store
  // and recovery).
  const int32_t n = cluster_->total_node_count();
  for (NodeId a = 0; a < n; ++a) {
    for (NodeId b = 0; b < n; ++b) {
      if (a != b) {
        cluster_->network().SetLinkDelay(cluster_->server_host(a), cluster_->server_host(b),
                                         extra);
      }
    }
  }
  Log("delay: +" + FormatMs(extra) + " on all server-server links");
}

void Nemesis::InjectReorder(double probability, TimeNs max_extra) {
  cluster_->network().SetReorder(probability, max_extra);
  Log("reorder: p=" + std::to_string(probability) + " max_extra=" + FormatMs(max_extra));
}

void Nemesis::FlapLink(bool block) {
  if (block) {
    const NodeId leader = CurrentLeaderOr(0);
    const NodeId follower = PickFollower(leader);
    const HostId a = cluster_->server_host(leader);
    const HostId b = cluster_->server_host(follower);
    cluster_->network().BlockLink(a, b);
    cluster_->network().BlockLink(b, a);
    cut_links_.emplace_back(a, b);
    cut_links_.emplace_back(b, a);
    Log("flap: cut link node " + std::to_string(leader) + " <-> node " +
        std::to_string(follower));
  } else {
    for (const auto& [src, dst] : cut_links_) {
      cluster_->network().UnblockLink(src, dst);
    }
    cut_links_.clear();
    Log("flap: restore links");
  }
}

void Nemesis::CrashOne(bool leader) {
  // Keep a majority of the current membership alive: only crash when every
  // member is up. (With the smallest practical cluster, n = 3, a second
  // simultaneous crash would stall the window and the post-settle liveness
  // check.) Dead spares don't count against the gate — the members carry
  // the quorum.
  for (NodeId node : cluster_->Members()) {
    if (cluster_->server(node).failed()) {
      Log("crash: skipped (a member is already down)");
      return;
    }
  }
  const NodeId victim =
      leader ? CurrentLeaderOr(0) : PickFollower(CurrentLeaderOr(0));
  cluster_->KillNode(victim);
  Log("crash: node " + std::to_string(victim) + (leader ? " (leader)" : " (follower)"));
}

void Nemesis::DropReplies() {
  // Cut every live server's links toward the clients: requests still arrive,
  // get ordered and executed, but no reply (and no NACK) makes it back. Only
  // client retransmission can complete these operations — and only server-
  // side dedup keeps the retries from re-executing them.
  if (config_.clients.empty()) {
    Log("drop-replies: skipped (no client hosts configured)");
    return;
  }
  int cut = 0;
  for (NodeId node = 0; node < cluster_->total_node_count(); ++node) {
    if (cluster_->server(node).failed()) {
      continue;
    }
    const HostId src = cluster_->server_host(node);
    for (HostId client : config_.clients) {
      cluster_->network().BlockLink(src, client);
      cut_links_.emplace_back(src, client);
      ++cut;
    }
  }
  Log("drop-replies: cut " + std::to_string(cut) + " server->client link(s)");
}

void Nemesis::CutReplierReplies() {
  // Phase 1 of the crash-replier fault: a designated replier keeps executing
  // but its replies vanish. In the multicast modes any follower replies
  // under JBSQ; in VanillaRaft only the leader ever answers clients, so the
  // leader is the node whose silence loses replies.
  if (config_.clients.empty()) {
    Log("crash-replier: skipped (no client hosts configured)");
    return;
  }
  const NodeId victim = cluster_->config().mode == ClusterMode::kVanillaRaft
                            ? CurrentLeaderOr(0)
                            : PickFollower(CurrentLeaderOr(0));
  replier_victim_ = victim;
  const HostId src = cluster_->server_host(victim);
  for (HostId client : config_.clients) {
    cluster_->network().BlockLink(src, client);
    cut_links_.emplace_back(src, client);
  }
  Log("crash-replier: drop replies of node " + std::to_string(victim));
}

void Nemesis::CrashReplierVictim() {
  // Phase 2: kill the muted replier. Requests it executed-but-never-answered
  // now depend entirely on retransmission against the survivors.
  if (replier_victim_ == kInvalidNode) {
    return;
  }
  for (NodeId node : cluster_->Members()) {
    if (cluster_->server(node).failed()) {
      Log("crash-replier: crash skipped (a member is already down)");
      replier_victim_ = kInvalidNode;
      return;
    }
  }
  cluster_->KillNode(replier_victim_);
  Log("crash-replier: crash node " + std::to_string(replier_victim_));
  replier_victim_ = kInvalidNode;
}

void Nemesis::RestartDead() {
  for (NodeId node = 0; node < cluster_->total_node_count(); ++node) {
    if (cluster_->server(node).failed()) {
      cluster_->RestartNode(node);
      Log("restart: node " + std::to_string(node));
    }
  }
}

void Nemesis::PowerCycleAll(TimeNs outage, bool torn) {
  // Whole-cluster power loss: every live member's disk crashes at the same
  // instant (losing its unsynced suffix; `torn` leaves a partial final
  // record), then all of them restart through WAL recovery after `outage`.
  // Committed-and-acknowledged data survives iff it was fsynced before the
  // ack — which is exactly what the fsync-policy control toggles.
  int cut = 0;
  for (NodeId node : cluster_->Members()) {
    ReplicatedServer& server = cluster_->server(node);
    if (server.failed()) {
      continue;
    }
    if (torn && server.disk() != nullptr) {
      server.disk()->set_next_crash_torn();
    }
    cluster_->PowerFailNode(node);
    ++cut;
  }
  Log("disk: power-fail " + std::to_string(cut) + " node(s)" + (torn ? " (torn)" : ""));
  At(cluster_->sim().Now() + outage, [this] { RestartDead(); });
}

void Nemesis::DiskCorruptionCycle(TimeNs follower_outage, TimeNs leader_outage) {
  // Media corruption of durable, committed state. Target: on every follower,
  // the newest applied non-noop write entry still present in its WAL — an
  // entry whose reply a client may already hold. The leader is fail-stopped
  // (disk and memory intact, no power loss) so its log stays pristine and
  // protocol-aware recovery always has an intact copy to re-fetch from; the
  // stagger (followers restart quickly, leader slowly) gives the naive
  // control a window in which the amnesiac followers hold a quorum among
  // themselves. A power-failed leader would also lose its unsynced suffix —
  // entries committed through the follower pair's acks could then vanish
  // from every copy at once, which no recovery protocol can undo.
  const NodeId leader = CurrentLeaderOr(0);
  std::vector<NodeId> cycled;
  for (NodeId node : cluster_->Members()) {
    ReplicatedServer& server = cluster_->server(node);
    if (node == leader || server.failed() || server.raft() == nullptr ||
        server.storage() == nullptr) {
      continue;
    }
    const RaftLog& log = server.raft()->log();
    const LogIndex corrupted = server.storage()->CorruptNewestEntry(
        log.first_index(), server.raft()->applied_index(), [&log](LogIndex idx) {
          const LogEntry& e = log.At(idx);
          return !e.noop && !e.read_only;
        });
    if (corrupted != kNoLogIndex) {
      Log("disk: corrupt entry " + std::to_string(corrupted) + " on node " +
          std::to_string(node));
    } else {
      Log("disk: corrupt skipped on node " + std::to_string(node) +
          " (no applied write entry in WAL)");
    }
    cluster_->PowerFailNode(node);
    cycled.push_back(node);
  }
  Log("disk: power-fail " + std::to_string(cycled.size()) + " follower(s)");
  At(cluster_->sim().Now() + follower_outage, [this, cycled] {
    for (NodeId node : cycled) {
      cluster_->RestartNode(node);
      Log("restart: node " + std::to_string(node));
    }
  });
  if (!cluster_->server(leader).failed()) {
    cluster_->KillNode(leader);
    Log("disk: fail-stop node " + std::to_string(leader) + " (leader, slow restart)");
    At(cluster_->sim().Now() + leader_outage, [this, leader] {
      cluster_->RestartNode(leader);
      Log("restart: node " + std::to_string(leader) + " (leader)");
    });
  }
}

void Nemesis::SnapshotCorruptionCycle(TimeNs outage) {
  const NodeId leader = CurrentLeaderOr(0);
  const NodeId node = PickFollower(leader);
  ReplicatedServer& server = cluster_->server(node);
  if (node == leader || server.failed() || server.storage() == nullptr ||
      !server.storage()->CorruptSnapshot()) {
    Log("disk: corrupt snapshot skipped (no live follower with a snapshot)");
    return;
  }
  Log("disk: corrupt snapshot on node " + std::to_string(node));
  cluster_->PowerFailNode(node);
  At(cluster_->sim().Now() + outage, [this] { RestartDead(); });
}

void Nemesis::StallDisks(TimeNs extra) {
  int stalled = 0;
  for (NodeId node : cluster_->Members()) {
    SimDisk* disk = cluster_->server(node).disk();
    if (disk != nullptr) {
      disk->set_stall(extra);
      ++stalled;
    }
  }
  disks_stalled_ = stalled > 0;
  Log("disk: fsync stall +" + FormatMs(extra) + " on " + std::to_string(stalled) + " disk(s)");
}

void Nemesis::HealDisks() {
  for (NodeId node = 0; node < cluster_->total_node_count(); ++node) {
    SimDisk* disk = cluster_->server(node).disk();
    if (disk != nullptr) {
      disk->set_stall(0);
    }
  }
  disks_stalled_ = false;
  Log("disk: heal fsync stalls");
}

void Nemesis::HealNetwork() {
  cluster_->network().ClearFaults();
  cut_links_.clear();
  Log("heal: clear all network faults");
}

void Nemesis::HealAll() {
  HealNetwork();
  RestartDead();
  if (!skewed_nodes_.empty()) {
    RestoreTimers();
  }
  if (disks_stalled_) {
    HealDisks();
  }
}

void Nemesis::Arm() {
  if (config_.schedule == "none") {
    return;
  }
  if (config_.schedule == "random") {
    ArmRandom();
  } else {
    ArmScripted();
  }
  // Safety net: whatever the schedule did, the window ends clean so the
  // settle phase can demand a live leader and converged replicas.
  At(config_.end, [this] { HealAll(); });
}

void Nemesis::ArmScripted() {
  const TimeNs s = config_.start;
  const TimeNs w = config_.end - config_.start;
  const std::string& name = config_.schedule;

  if (name == "partition-leader") {
    At(s + w / 8, [this] { IsolateLeader(); });
    At(s + w / 2, [this] { HealNetwork(); });
    At(s + 5 * w / 8, [this] { IsolateLeader(); });
    At(s + 7 * w / 8, [this] { HealNetwork(); });
  } else if (name == "partition-halves") {
    At(s + w / 8, [this] { SplitHalves(); });
    At(s + w / 2, [this] { HealNetwork(); });
    At(s + 5 * w / 8, [this] { SplitHalves(); });
    At(s + 7 * w / 8, [this] { HealNetwork(); });
  } else if (name == "asym-leader") {
    At(s + w / 8, [this] { AsymBlockLeader(); });
    At(s + 5 * w / 8, [this] { HealNetwork(); });
  } else if (name == "delay") {
    // Comparable to the election timeout: enough to trigger spurious
    // elections and deep reordering against the client multicast path.
    At(s + w / 8, [this] { InjectDelay(Millis(3)); });
    At(s + 3 * w / 4, [this] { HealNetwork(); });
  } else if (name == "reorder") {
    At(s + w / 8, [this] { InjectReorder(0.3, Millis(2)); });
    At(s + 3 * w / 4, [this] { HealNetwork(); });
  } else if (name == "flap") {
    for (int i = 0; i < 4; ++i) {
      const TimeNs cut = s + w / 8 + i * (w / 6);
      At(cut, [this] { FlapLink(true); });
      At(cut + w / 12, [this] { FlapLink(false); });
    }
  } else if (name == "crash-follower") {
    At(s + w / 8, [this] { CrashOne(false); });
    At(s + w / 2, [this] { RestartDead(); });
    At(s + 5 * w / 8, [this] { CrashOne(false); });
    At(s + 7 * w / 8, [this] { RestartDead(); });
  } else if (name == "crash-leader") {
    At(s + w / 8, [this] { CrashOne(true); });
    At(s + 5 * w / 8, [this] { RestartDead(); });
  } else if (name == "drop-replies") {
    At(s + w / 8, [this] { DropReplies(); });
    At(s + w / 2, [this] { HealNetwork(); });
    At(s + 5 * w / 8, [this] { DropReplies(); });
    At(s + 7 * w / 8, [this] { HealNetwork(); });
  } else if (name == "churn-cycle") {
    // Continuous replace loop: grow by a spare, shrink by a follower, twice.
    // Each change rides the management plane, which retries until commit, so
    // a proposal landing during an election window still goes through.
    At(s + w / 8, [this] { AddSpare(); });
    At(s + 3 * w / 8, [this] { RemoveOne(false); });
    At(s + 5 * w / 8, [this] { AddSpare(); });
    At(s + 7 * w / 8, [this] { RemoveOne(false); });
  } else if (name == "churn-remove-leader") {
    // Remove the node currently leading: it must commit its own removal,
    // step down, and retire; a spare then replaces it, and the new leader is
    // removed in turn.
    At(s + w / 8, [this] { RemoveOne(true); });
    At(s + w / 2, [this] { AddSpare(); });
    At(s + 3 * w / 4, [this] { RemoveOne(true); });
  } else if (name == "churn-add-partition") {
    // Propose an add while a partition is live. The split cuts off the old
    // leader; until the majority side elects, the stale leader may accept
    // (and later truncate) the config entry — the management plane must not
    // count that as done. After the heal, the add commits; then shrink back.
    At(s + w / 8, [this] { SplitHalves(); });
    At(s + 3 * w / 16, [this] { AddSpare(); });
    At(s + w / 2, [this] { HealNetwork(); });
    At(s + 11 * w / 16, [this] { RemoveOne(false); });
  } else if (name == "rejoin-storm") {
    // Half the window in the dark is dozens of election-timeout firings —
    // plenty of term inflation without PreVote, none with it. The long tail
    // after the heal gives a deposed cluster time to look "recovered"; the
    // disruption shows in leader_disruptions/max_term, not final liveness.
    At(s + w / 8, [this] { IsolateFollower(); });
    At(s + 5 * w / 8, [this] { HealIsolated(); });
  } else if (name == "forged-vote") {
    // Sustained pressure: a fresh forged vote every eighth of the window, so
    // an undefended cluster is re-deposed as fast as it re-elects.
    for (int i = 1; i <= 6; ++i) {
      At(s + i * w / 8, [this] { ForgedVotePressure(); });
    }
  } else if (name == "timer-skew") {
    // 0.02 x the [5,10]ms election timeout is 100-200us — below the mean
    // AppendEntries inter-arrival gap under load (replication traffic, not
    // just heartbeats, re-arms the election timer), so the skewed follower
    // genuinely fires on an otherwise fault-free network.
    At(s + w / 8, [this] { SkewFollowerTimer(0.02); });
    At(s + 3 * w / 4, [this] { RestoreTimers(); });
  } else if (name == "stale-read-probe") {
    At(s + w / 8, [this] { StaleReadPartition(); });
    At(s + 5 * w / 8, [this] { HealNetwork(); });
  } else if (name == "disk-power-fail") {
    // Two whole-cluster power cycles: acked writes straddle the cuts, so any
    // ack that outran its fsync is exposed as lost committed data.
    At(s + w / 4, [this] { PowerCycleAll(Millis(2), /*torn=*/false); });
    At(s + 5 * w / 8, [this] { PowerCycleAll(Millis(2), /*torn=*/false); });
  } else if (name == "disk-torn-write") {
    // Same cuts, but each crash leaves a torn final record: recovery must
    // CRC-detect the partial tail and truncate exactly to the synced prefix.
    At(s + w / 4, [this] { PowerCycleAll(Millis(2), /*torn=*/true); });
    At(s + 5 * w / 8, [this] { PowerCycleAll(Millis(2), /*torn=*/true); });
  } else if (name == "disk-corrupt-entry") {
    // One corruption cycle in mid-window so plenty of committed traffic
    // exists to corrupt, and the long leader outage gives the amnesiac
    // followers time to form a quorum if recovery lets them.
    At(s + w / 4, [this] { DiskCorruptionCycle(Millis(2), Millis(20)); });
  } else if (name == "disk-corrupt-snapshot") {
    // A quarter into the window every follower has replaced its genesis
    // snapshot (compaction runs every 20 ms), so recovery loses state the
    // node had made durable and must rebuild it from the WAL.
    At(s + w / 4, [this] { SnapshotCorruptionCycle(Millis(2)); });
  } else if (name == "disk-fsync-stall") {
    // Gray disk, then a power cut in the middle of the stall: a policy that
    // acks ahead of the (now glacial) fsync has a deep unsynced backlog to
    // lose; fsync-before-ack merely slows down.
    At(s + w / 8, [this] { StallDisks(Micros(500)); });
    At(s + w / 2, [this] { PowerCycleAll(Millis(2), /*torn=*/false); });
    At(s + 5 * w / 8, [this] { HealDisks(); });
  } else if (name == "crash-replier") {
    // Mute a replier's client-facing links, let it execute in the dark for a
    // slice of the window, then crash it: every request it answered-but-not-
    // delivered must be recovered by retransmission without double-applying.
    At(s + w / 8, [this] { CutReplierReplies(); });
    At(s + 3 * w / 16, [this] { CrashReplierVictim(); });
    At(s + w / 2, [this] { HealAll(); });
    At(s + 5 * w / 8, [this] { CutReplierReplies(); });
    At(s + 11 * w / 16, [this] { CrashReplierVictim(); });
    At(s + 7 * w / 8, [this] { HealAll(); });
  } else {
    HC_CHECK(false);  // IsValidSchedule covered everything else
  }
}

void Nemesis::ArmRandom() {
  At(config_.start + (config_.end - config_.start) / 16, [this] { RandomStep(); });
}

void Nemesis::RandomStep() {
  const TimeNs now = cluster_->sim().Now();
  const TimeNs w = config_.end - config_.start;
  // Stop injecting once a fault + heal no longer fits before the window end.
  if (now + w / 8 >= config_.end) {
    return;
  }
  const auto fault =
      static_cast<RandomFault>(rng_.NextBelow(static_cast<uint64_t>(RandomFault::kCount)));
  switch (fault) {
    case RandomFault::kIsolateLeader:
      IsolateLeader();
      break;
    case RandomFault::kSplitHalves:
      SplitHalves();
      break;
    case RandomFault::kAsymLeader:
      AsymBlockLeader();
      break;
    case RandomFault::kDelay:
      InjectDelay(Millis(static_cast<int64_t>(rng_.NextInRange(1, 4))));
      break;
    case RandomFault::kReorder:
      InjectReorder(0.1 + 0.3 * rng_.NextDouble(), Millis(2));
      break;
    case RandomFault::kFlap:
      FlapLink(true);
      break;
    case RandomFault::kCrashFollower:
      CrashOne(false);
      break;
    case RandomFault::kCrashLeader:
      CrashOne(true);
      break;
    case RandomFault::kCount:
      break;
  }
  // Hold the fault for a random slice of the window, heal, breathe, repeat.
  const TimeNs hold = w / 16 + static_cast<TimeNs>(rng_.NextBelow(
                                   static_cast<uint64_t>(w / 8)));
  const TimeNs gap = w / 32 + static_cast<TimeNs>(rng_.NextBelow(
                                  static_cast<uint64_t>(w / 16)));
  At(now + hold, [this] { HealAll(); });
  At(now + hold + gap, [this] { RandomStep(); });
}

}  // namespace hovercraft
