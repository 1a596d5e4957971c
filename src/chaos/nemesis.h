// The nemesis: drives fault schedules against a live Cluster.
//
// A Nemesis is armed once over a window [start, end] of virtual time and
// schedules fault-injection events on the cluster's simulator: symmetric and
// asymmetric network partitions, per-link extra delay, probabilistic
// reordering, link flaps, and node crash + restart. Every decision that
// depends on run state (e.g. "the current leader") is resolved at event fire
// time, so the same (schedule, seed, cluster config) triple replays the
// exact same fault sequence — the harness's whole point.
//
// Invariants the nemesis maintains:
//  - a majority of the *current members* stays alive at all times (crashes
//    are gated on member liveness, so checks after the window are
//    meaningful even while the membership churns);
//  - by `end`, all network faults are healed and all crashed nodes have been
//    restarted, so the post-window settle phase can expect convergence.
#ifndef SRC_CHAOS_NEMESIS_H_
#define SRC_CHAOS_NEMESIS_H_

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "src/common/random.h"
#include "src/common/types.h"
#include "src/core/cluster.h"

namespace hovercraft {

struct NemesisConfig {
  // One of Nemesis::ScheduleNames(), or "none" for a quiet control run.
  std::string schedule = "random";
  uint64_t seed = 1;
  TimeNs start = 0;
  TimeNs end = 0;
  // Client host ids, needed by the reply-facing schedules ("drop-replies",
  // "crash-replier"): they cut server->client links so requests execute but
  // their replies vanish — the retransmission/dedup stress case.
  std::vector<HostId> clients;
};

class Nemesis {
 public:
  // Scripted schedules plus "random" (a seeded sequence of the scripted
  // faults) and "none".
  static const std::vector<std::string>& ScheduleNames();
  static bool IsValidSchedule(const std::string& name);

  Nemesis(Cluster* cluster, const NemesisConfig& config);

  // Schedules the fault events for the configured window. Call once, before
  // running the simulator past `config.start`.
  void Arm();

  // Human-readable log of every fault fired, in order ("12.3ms isolate
  // leader node 1"). Lets a failing test print exactly what the nemesis did.
  const std::vector<std::string>& events() const { return events_; }

 private:
  void At(TimeNs when, std::function<void()> fn);
  void Log(const std::string& text);

  // Fire-time helpers; each resolves leader/followers/members at call time.
  NodeId CurrentLeaderOr(NodeId fallback);
  NodeId PickFollower(NodeId leader);
  NodeId PickSpare();
  // Membership churn (the "churn-*" schedules): propose config changes
  // through the cluster's management plane, which retries until commit.
  void AddSpare();
  void RemoveOne(bool leader);
  void IsolateLeader();
  // Adversarial attacks (docs/hardening.md): each reproduces a disruption
  // from "From Consensus to Chaos" that PreVote / CheckQuorum / ReadIndex
  // leases are supposed to neutralize. Run them with the defenses toggled
  // off for the control (attack succeeds), on for the proof (no disruption).
  void IsolateFollower();   // rejoin-storm: term inflation while cut off
  void HealIsolated();
  void ForgedVotePressure();  // inject crafted higher-term RequestVotes
  void SkewFollowerTimer(double scale);  // timer-skew: one hyperactive timer
  void RestoreTimers();
  void StaleReadPartition();  // cut leader<->servers, keep client links
  void SplitHalves();
  void AsymBlockLeader();
  void InjectDelay(TimeNs extra);
  void InjectReorder(double probability, TimeNs max_extra);
  void FlapLink(bool block);
  void CrashOne(bool leader);
  // Reply-facing faults: executed requests whose replies never arrive.
  void DropReplies();
  void CutReplierReplies();
  void CrashReplierVictim();
  void RestartDead();
  void HealNetwork();
  void HealAll();
  // Disk-fault schedules (docs/durability.md). PowerCycleAll cuts power to
  // every live member simultaneously — their disks lose the unsynced suffix
  // (a torn final record when `torn`) — and restarts them through WAL
  // recovery after `outage`. Under fsync-before-ack this is harmless; under
  // the ack-before-sync control the cluster-wide loss of acknowledged
  // writes is a linearizability violation the checker flags.
  void PowerCycleAll(TimeNs outage, bool torn);
  // Flips a byte inside a committed, applied write entry on every follower's
  // WAL, power-cycles the followers quickly, and fail-stops the leader (disk
  // intact) with a slow restart: the followers must either come back suspect
  // and wait for the leader's repair (protocol-aware recovery) or silently
  // truncate committed entries and elect each other over the amnesia
  // (--no-recovery control).
  void DiskCorruptionCycle(TimeNs follower_outage, TimeNs leader_outage);
  // Flips a byte in one follower's local snapshot file and power-cycles it
  // for `outage`: recovery must reject the file, restart suspect from the
  // app's pristine state and re-apply its WAL from genesis.
  void SnapshotCorruptionCycle(TimeNs outage);
  // Gray disk: every subsequent fsync costs `extra` more on every member.
  void StallDisks(TimeNs extra);
  void HealDisks();

  void ArmScripted();
  void ArmRandom();
  void RandomStep();

  Cluster* cluster_;
  NemesisConfig config_;
  Rng rng_;
  std::vector<std::string> events_;
  // The link currently flapping / blocked asymmetrically, so heal events
  // operate on what was actually cut rather than re-resolving the leader.
  std::vector<std::pair<HostId, HostId>> cut_links_;
  // Node whose replies were cut by CutReplierReplies; CrashReplierVictim
  // kills exactly that node so the fault models "replier crashed between
  // execute and reply".
  NodeId replier_victim_ = kInvalidNode;
  // Follower isolated by the rejoin-storm schedule, so the heal event can
  // report which node rejoined (and with what term it comes back).
  NodeId isolated_node_ = kInvalidNode;
  // Nodes whose election timers SkewFollowerTimer scaled; RestoreTimers
  // resets exactly these to 1.0.
  std::vector<NodeId> skewed_nodes_;
  // StallDisks is active; HealAll clears it exactly once.
  bool disks_stalled_ = false;
};

}  // namespace hovercraft

#endif  // SRC_CHAOS_NEMESIS_H_
