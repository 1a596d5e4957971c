// The Raft protocol engine with HovercRaft extensions.
//
// One class implements all three replicated configurations of the paper;
// RaftOptions selects the behaviour:
//   - VanillaRaft: full request payloads travel in append_entries; the
//     leader executes everything and replies to every client.
//   - HovercRaft: clients multicast payloads to every node; append_entries
//     carries ordering metadata only; the leader assigns repliers under
//     bounded queues; missing payloads are recovered point-to-point.
//   - HovercRaft++: the append_entries fan-out/fan-in is delegated to the
//     in-network aggregator; commit is learned from AGG_COMMIT.
//
// The core algorithm (election, log matching, commit rule) is identical in
// all modes — the extensions only change who transports what, which is the
// paper's central claim (section 5).
//
// A RaftNode is a step machine over its host: it holds no simulator. Its
// inputs are OnMessage, OnTimer and the host's calls below; it reads the
// clock, arms its two timers and sends through its Env, which the host
// drains synchronously.
#ifndef SRC_RAFT_NODE_H_
#define SRC_RAFT_NODE_H_

#include <algorithm>
#include <memory>
#include <unordered_map>
#include <vector>

#include "src/common/random.h"
#include "src/common/types.h"
#include "src/obs/flight_recorder.h"
#include "src/raft/log.h"
#include "src/raft/membership.h"
#include "src/raft/messages.h"
#include "src/raft/options.h"
#include "src/raft/replier_scheduler.h"
#include "src/raft/unordered_store.h"
#include "src/storage/stable_storage.h"

namespace hovercraft {

enum class RaftRole { kFollower, kCandidate, kLeader };
// A non-leader's election timeout, and the leader's heartbeat tick.
enum class RaftTimer : uint8_t { kElection, kHeartbeat };

struct RaftStats {
  uint64_t elections_started = 0;
  uint64_t times_leader = 0;
  uint64_t ae_sent = 0;
  uint64_t ae_received = 0;
  uint64_t entries_appended = 0;
  uint64_t recoveries_requested = 0;
  uint64_t recoveries_served = 0;
  uint64_t submits_rejected = 0;
  uint64_t snapshots_sent = 0;
  uint64_t snapshots_installed = 0;
  // Dynamic membership (docs/membership.md).
  uint64_t config_changes_proposed = 0;
  uint64_t config_changes_committed = 0;
  uint64_t config_changes_aborted = 0;  // rolled back by log truncation
  uint64_t learners_promoted = 0;
  // Total time learners spent catching up (committed-as-learner to
  // promotion-appended), for the mean catch-up duration metric.
  uint64_t learner_catchup_ns_total = 0;
  // Adversarial hardening (docs/hardening.md).
  uint64_t prevote_rounds = 0;         // pre-elections started
  uint64_t prevote_granted = 0;        // pre-votes this node granted others
  uint64_t prevote_rejected = 0;       // pre-votes this node denied others
  uint64_t stepdowns_check_quorum = 0; // leader stepped down w/o quorum contact
  uint64_t votes_ignored_sticky = 0;   // RequestVotes ignored under stickiness
  uint64_t read_index_served = 0;      // linearizable reads granted a lease
  uint64_t read_index_rejected = 0;    // grants refused (no lease / no term commit)
  // Leader demoted a silent aggregator to direct replication (the quorum
  // probes prove followers alive while AGG_COMMIT has gone quiet).
  uint64_t agg_fallbacks = 0;
  // Durable storage (docs/durability.md).
  uint64_t acks_deferred_persist = 0;   // AE replies held behind an fsync
  uint64_t acks_dropped_crash = 0;      // deferred replies fenced off by a restart
  uint64_t campaigns_blocked_suspect = 0;  // election arms refused while suspect
  uint64_t suspect_repaired = 0;        // suspect cleared by commit catch-up
  // Leader saw a follower's log end below its recorded match index and reset
  // the match floor — the follower's recovery cut acknowledged entries out
  // (it rejoined suspect) and repair restarts from its actual log tail.
  uint64_t match_regressions = 0;
  // A leader overwrote entries below our commit index — committed data was
  // un-committed. Impossible while fsync-before-ack and protocol-aware
  // recovery hold; the unsafe chaos controls drive it nonzero, and the run
  // degrades gracefully so the linearizability checker can flag the damage.
  uint64_t committed_overwritten = 0;
};

class RaftNode {
 public:
  // Environment provided by the hosting server: the clock, timers, message
  // transport and application callbacks.
  class Env {
   public:
    virtual ~Env() = default;
    virtual TimeNs Now() const = 0;
    // Fires OnTimer(timer) after `delay`, replacing any pending firing of it.
    virtual void ArmTimer(RaftTimer timer, TimeNs delay) = 0;
    virtual void CancelTimer(RaftTimer timer) = 0;
    virtual void SendToPeer(NodeId peer, MessagePtr msg) = 0;
    virtual void SendToAggregator(MessagePtr msg) = 0;
    // Snapshot transfer (straggler repair). Capture serializes the current
    // application state together with the log index it reflects; Restore
    // replaces the application state with a received snapshot.
    struct SnapshotCapture {
      Body state;
      LogIndex last_included = 0;
    };
    virtual SnapshotCapture CaptureSnapshot() = 0;
    // `included_term` and the covering membership config (possibly null) ride
    // along so hosts with durable storage can persist the received snapshot
    // with everything a later power-fail recovery needs.
    virtual void RestoreSnapshot(const Body& state, LogIndex last_included,
                                 Term included_term, MembershipConfigPtr config,
                                 LogIndex config_idx) = 0;
    // Commit index advanced; the server applies log entries in order and
    // reports completion through OnApplied.
    virtual void OnCommitAdvanced(LogIndex commit) = 0;
    virtual void OnLeadershipChanged(bool is_leader) = 0;
    // A fresh leader re-orders client requests orphaned by its predecessor
    // (paper section 5, bounded queues discussion).
    virtual void DrainUnorderedIntoLog() = 0;
    // A membership config entry committed at `idx`. Fires on every node (in
    // commit order) so the hosting layer can reconfigure multicast groups,
    // the aggregator, and retire removed servers.
    virtual void OnConfigCommitted(const MembershipConfig& config, LogIndex idx) = 0;
  };

  // `storage` (non-null, outliving the node) is the node's write-ahead log:
  // every term/vote/log mutation is mirrored into it, and follower acks are
  // withheld until the acknowledged entries are durable (unless the policy is
  // kAckBeforeSync — the unsafe chaos control). On a SimDisk with zero sync
  // latency every barrier completes inline.
  // `unordered` (non-null, outliving the node) is the host's unordered set
  // (paper section 3.2): followers resolve ordered bodies from it.
  // `recorder` is the flight recorder the node's events go to (null: none).
  RaftNode(uint64_t seed, const RaftOptions& options, Env* env, StableStorage* storage,
           UnorderedStore* unordered, obs::FlightRecorder* recorder);

  // Arms the election timer; a one-voter group elects itself at once. Call
  // once after construction.
  void Start();

  // Reinitializes persistent state from a WAL recovery (power-fail restart).
  // Replaces term/vote/log wholesale; `applied` is the index the hosting
  // server restored its application state to (its local snapshot point) —
  // commit and applied resume there and re-advance as the leader confirms.
  // A suspect recovery (durable bytes lost) leaves the node unable to
  // campaign until commit_index reaches rec.suspect_floor; the missing
  // entries arrive through the ordinary AppendEntries / InstallSnapshot
  // repair path. `snap_config`/`snap_config_idx` carry the membership config
  // embedded in the server's restored snapshot (null with static membership
  // or no snapshot): it becomes the committed config base, with any config
  // entries in the recovered log suffix stacked above it.
  void RestartFromRecovery(const StableStorage::Recovery& rec, LogIndex applied,
                           MembershipConfigPtr snap_config = nullptr,
                           LogIndex snap_config_idx = 0);

  // Fail-stop crash injection: a halted node's timers do nothing (its host
  // already drops all traffic), and any persist completion scheduled before
  // the halt is fenced off — a node killed inside the persist window never
  // acks from the grave. Resume models a process restart with the in-memory
  // image intact (the pre-durability fail-stop model); a power-fail restart
  // instead goes through RestartFromRecovery, which replays the WAL and
  // genuinely loses the unsynced suffix.
  void Halt();
  void Resume();
  bool halted() const { return halted_; }

  // --- client-request path (leader only) ---
  // Returns false when this node is not the leader or the request is already
  // in the log (duplicate from the unordered drain). `allow_duplicate` skips
  // the in-log duplicate check: the server uses it to re-order a
  // retransmitted read-only request (re-execution is harmless and regenerates
  // the reply through the totally-ordered path), and to model the naive
  // no-dedup retry behaviour the chaos tests prove broken.
  bool SubmitRequest(std::shared_ptr<const RpcRequest> request, bool allow_duplicate = false);

  // --- linearizable reads (ReadIndex, leader only) ---
  // Attempts to grant a lease-protected read: returns the commit index the
  // read must observe plus the node chosen to serve it (self, or a caught-up
  // member under replier assignment). Fails (granted == false) when this
  // node is not the leader, options().read_index is off, no current-term
  // entry has committed yet, or the leader lease has lapsed (no quorum
  // contact within the lease window since the last config commit).
  struct ReadGrant {
    bool granted = false;
    LogIndex read_index = 0;
    NodeId replier = kInvalidNode;
  };
  ReadGrant AcquireReadIndex();

  // True while a quorum of the active config's voters (self included) has
  // responded at or after `floor`. CheckQuorum and the read lease are both
  // defined in terms of this predicate; they differ only in the floor.
  bool QuorumContactedSince(TimeNs floor) const;

  // The CheckQuorum evaluation window. Never tighter than a few heartbeat
  // round-trips: the quiet-stream optimization makes follower replies arrive
  // at best every other heartbeat, so a window equal to a 1-heartbeat
  // election timeout (e.g. a staggered first election) would depose a
  // perfectly healthy leader. Widening past election_timeout_min is safe
  // here — CheckQuorum bounds the stale-leader window, it is not a safety
  // invariant — whereas the read lease (AcquireReadIndex) must keep the
  // strict election_timeout_min bound and therefore does not use this.
  TimeNs CheckQuorumWindow() const {
    return std::max(options_.election_timeout_min, 3 * options_.heartbeat_interval);
  }

  // Test hook for the election-timer manipulation attack: scales every
  // subsequently armed election timeout by `scale` (0 < scale <= 1 fires
  // early). Preserves the one-RNG-draw-per-arm discipline — the scale is
  // applied after the draw.
  void SkewElectionTimer(double scale);

  // The one entry point for Raft and aggregator messages: dispatches on
  // msg.kind(). `via_aggregator` says an append_entries came through the
  // aggregator's fan-out, so its success reply goes back there.
  void OnMessage(const Message& msg, bool via_aggregator);
  // The one timer entry point: the host calls it when a timer armed through
  // Env::ArmTimer fires.
  void OnTimer(RaftTimer timer);

  // --- membership change (leader only; dissertation section 4) ---
  // Starts adding `node`: appends a config entry that carries the active
  // config plus `node` as a non-voting learner. Once that entry commits and
  // the learner's log is within one append batch of the leader's tail, the
  // leader automatically appends the promotion config making it a voter.
  // Returns false when not leader, a change is already in flight, or `node`
  // is already a member.
  bool StartAddServer(NodeId node);

  // Starts removing `node` (voter or learner). The config minus `node` takes
  // effect at the leader on append: the leader stops replicating to `node`
  // immediately and, when removing itself, keeps leading until the entry
  // commits under the new config and then steps down. Returns false when not
  // leader, a change is in flight, `node` is not a member, or removal would
  // leave zero voters.
  bool StartRemoveServer(NodeId node);

  // Management-plane retirement: called when a committed config excludes
  // this node (possibly learned out-of-band — the node itself may have been
  // partitioned away when the removal committed). Stops campaigning; message
  // handlers keep running so a later AddServer can bring the node back.
  void Retire();

  // --- application feedback ---
  // The server applied the entry at `idx` on its app thread.
  void OnApplied(LogIndex idx);

  // The index compaction may drop the log through: MinAppliedKnown(),
  // raised to within `straggler_lag` of this node's applied index, and
  // clamped by CompactLog's rule. Below log().first_index() when nothing
  // may go. The server compacts to it on its timer and once the
  // prefix it frees reaches log_retention_entries entries.
  LogIndex CompactionPoint(LogIndex straggler_lag) const;

  // Drops log entries at or below `idx`, never past this node's applied
  // index and always keeping the newest log_retention_entries entries.
  void CompactLog(LogIndex idx);

  // --- queries ---
  RaftRole role() const { return role_; }
  bool IsLeader() const { return role_ == RaftRole::kLeader; }
  Term term() const { return current_term_; }
  NodeId id() const { return options_.id; }
  NodeId leader_hint() const { return leader_hint_; }
  LogIndex commit_index() const { return commit_idx_; }
  LogIndex applied_index() const { return applied_idx_; }
  // This node's progress stamp, and the greatest it recorded for `p` as leader.
  uint64_t progress_stamp() const { return ProgressStamp(restart_epoch_, applied_idx_); }
  uint64_t RecordedProgress(NodeId p) const { return peers_[static_cast<size_t>(p)].progress; }
  // Highest log index known durable in the local WAL. The leader's own
  // quorum contribution is capped here.
  LogIndex durable_index() const { return durable_index_; }
  bool suspect() const { return suspect_; }
  LogIndex suspect_floor() const { return suspect_floor_; }
  const RaftLog& log() const { return log_; }
  const RaftOptions& options() const { return options_; }
  const RaftStats& stats() const { return stats_; }
  const ReplierScheduler& scheduler() const { return scheduler_; }
  // Smallest applied index across the cluster as known to this leader;
  // safe upper bound for compaction.
  LogIndex MinAppliedKnown() const;

  // --- membership queries ---
  // The active (latest appended) config; effective immediately per the
  // dissertation's single-server change rule.
  const MembershipConfig& active_config() const { return *configs_.back().second; }
  LogIndex active_config_idx() const { return configs_.back().first; }
  LogIndex committed_config_idx() const { return committed_config_idx_; }
  // The membership config the log entry at `idx` carries; null for ordinary
  // entries. Membership-change entries are noops that additionally carry the
  // new cluster config, effective as soon as they are appended
  // (dissertation section 4.1).
  const MembershipConfigPtr& ConfigAt(LogIndex idx) const;
  bool ConfigChangeInFlight() const { return active_config_idx() > commit_idx_; }
  // Latest membership config at or below `idx` plus the log index it was
  // appended at. Returns {0, nullptr} while only the construction-time initial
  // config applies (recovery rebuilds that one from `initial_voters`). Hosts
  // use this to stamp local snapshots with the config a power-fail recovery
  // must come back with.
  std::pair<LogIndex, MembershipConfigPtr> ConfigCoveringIndex(LogIndex idx) const;
  bool retired() const { return retired_; }

 private:
  // -- message handlers (OnMessage) --
  void OnAppendEntries(const AppendEntriesReq& req, bool via_aggregator);
  void OnAppendEntriesRep(const AppendEntriesRep& rep);
  void OnRequestVote(const RequestVoteReq& req);
  void OnRequestVoteRep(const RequestVoteRep& rep);
  void OnAggCommit(const AggCommitMsg& msg);
  void OnAggVoteRep(const AggVoteRep& rep);
  void OnRecoveryReq(const RecoveryReq& req);
  void OnRecoveryRep(const RecoveryRep& rep);
  void OnInstallSnapshot(const InstallSnapshotReq& req);
  void OnInstallSnapshotRep(const InstallSnapshotRep& rep);

  // One pipelined append_entries stream, to a peer or (HovercRaft++) to the
  // aggregator. NextAppend builds the messages of both.
  struct Stream {
    LogIndex next_idx = 1;
    uint32_t inflight = 0;
    LogIndex commit_sent = 0;
    TimeNs last_send = 0;  // last AE/snapshot handed to this stream
  };

  // A peer's direct stream plus what the peer told us.
  struct PeerState : Stream {
    LogIndex match_idx = 0;
    uint64_t progress = 0;         // its newest progress stamp; written by RecordApplied
    bool paused_recovery = false;  // follower told us it awaits a payload
    bool direct_mode = false;      // ++: fell back to point-to-point
    bool snapshot_inflight = false;
    // Last time any current-term reply from this peer reached us directly
    // (AE/snapshot/vote reply). CheckQuorum and the read lease count a peer
    // as "in contact" while this is fresh. In aggregator mode the leader
    // sees no direct replies, so OnHeartbeat sends stream-neutral probe
    // appends (SendQuorumProbe) to refresh it.
    TimeNs last_response = 0;
    TimeNs last_probe = 0;  // rate-limits quorum probes per peer
    // Highest commit index this peer has confirmed (from its AE replies).
    // Gates the aggregator fast path across config epochs: AGG_COMMITs are
    // epoch-tagged, so a peer must have observed the committed config before
    // the leader may rely on the aggregator to deliver its commit index.
    LogIndex commit_acked = 0;
  };

  // -- role transitions --
  void BecomeFollower(Term term, bool reset_vote);
  void StartElection();
  // PreVote (dissertation section 9.6): polls peers at current_term_+1
  // without touching term/vote/role; a majority of grants triggers the real
  // StartElection. Falls through to StartElection directly when disabled.
  void StartPreVote();
  // Asks every other voter of the active config for its vote (or pre-vote)
  // at `term`, offering this node's log tail.
  void RequestVotes(Term term, bool pre_vote);
  // Raft section 5.4.1: a log ending at (`last_term`, `last_idx`) is at least
  // as up to date as ours. A vote and a pre-vote are granted only then.
  bool AtLeastAsUpToDate(Term last_term, LogIndex last_idx) const;
  void AbandonPreVote();
  void BecomeLeader();
  // CheckQuorum: called from OnHeartbeat; steps the leader down when no
  // quorum of voters has responded within an election timeout.
  void MaybeStepDownWithoutQuorum();
  // Direct, stream-neutral heartbeat append used as a liveness probe when
  // the aggregator path hides follower replies from the leader.
  void SendQuorumProbe(NodeId peer);

  // -- timers (Env::ArmTimer replaces the pending firing, so re-arming leaves
  // no dead timer in the host's queue) --
  void ArmElectionTimer();
  void CancelElectionTimer();
  void OnHeartbeat();
  // A flight-recorder event of this node, stamped now.
  void Record(obs::FrType type, uint64_t a, uint64_t b = 0, uint32_t c = 0) const;

  // -- leader replication --
  // Stops the aggregator stream; every follower goes point-to-point.
  void UseDirectStreams();
  void TryAnnounce();
  void TrySendAll();
  void MaybeSendAppend(NodeId peer, bool heartbeat);
  void SendSnapshot(NodeId peer);
  void MaybeSendAggAppend(bool heartbeat);
  // The next append_entries of `stream`, advancing it; null when there is
  // nothing new to send (entries, or with `allow_commit_only` a newer commit).
  MessagePtr NextAppend(Stream& stream, bool heartbeat, bool allow_commit_only);
  std::vector<WireEntry> CollectEntries(LogIndex from, LogIndex to) const;
  // `peer` holds our log through `match` (AE reply or installed snapshot).
  void OnPeerProgress(NodeId peer, LogIndex match, bool waiting_recovery);
  // The one writer of a peer's progress record, from an AE reply, an
  // AGG_COMMIT slot or an InstallSnapshot reply: keeps the greater stamp,
  // and on a rise tells the scheduler and counts the peer as in contact.
  void RecordApplied(NodeId peer, uint64_t stamp);
  void AdvanceCommitFromMatches();
  // Raft section 5.4.2: commits through `idx` only if it holds an entry of
  // the current term; replicas of an older term's entry do not count.
  void CommitIfCurrentTerm(LogIndex idx);
  void SetCommit(LogIndex commit);

  // -- follower append path --
  // False for a stale `term`; otherwise follows `leader` at `term` and
  // restarts the election timer.
  bool AcceptLeader(Term term, NodeId leader);
  // Appends as many entries as have resolvable payloads; returns the new
  // match index and whether a payload is missing.
  struct AppendOutcome {
    LogIndex match = 0;
    bool waiting_recovery = false;
  };
  AppendOutcome AppendResolvedEntries(const AppendEntriesReq& req);
  void RequestRecovery(const RequestId& rid);

  // The last index the leader replicates: with replier assignment, only
  // entries already announced with their replier; otherwise the whole log.
  LogIndex ReplicationLimit() const;

  // -- durable storage internals --
  // Mirrors the freshly appended entry at `idx`, and the membership `config`
  // it carries (null for most entries), into the WAL.
  void StorageAppendEntry(LogIndex idx, const MembershipConfig* config = nullptr);
  // Persists term/vote when either changed since the last persist.
  void PersistHardState();
  // Schedules an fsync covering the log through `tail`; the completion
  // callback (fenced on restart epoch and log identity) advances
  // durable_index_ and, on the leader, re-evaluates the commit quorum.
  void ScheduleDurability(LogIndex tail);
  // Clears suspect mode once commit caught up to everything possibly acked.
  void MaybeClearSuspect();
  // The most CompactLog may drop through: this node's applied index, short
  // of the newest log_retention_entries entries.
  LogIndex CompactionCeiling() const;

  // -- membership internals --
  bool AppendConfigEntry(MembershipConfigPtr config);
  // Tracks a config observed at `idx` (leader append, follower append, or
  // snapshot install) and reconciles role/timers with the new active config.
  void TrackConfig(LogIndex idx, MembershipConfigPtr config);
  // Drops configs introduced at or above `idx` (log truncation on conflict).
  void RollbackConfigsAbove(LogIndex idx);
  // Re-arms or cancels the election timer and clears retirement after the
  // active config changed.
  void ReconcileRoleWithConfig();
  // Leader: appends the promotion config once a committed learner has caught
  // up to within one append batch of the log tail.
  void MaybePromoteLearners();
  // True when this node may campaign: a live, non-retired voter.
  bool CanCampaign() const;

  RaftOptions options_;
  Env* env_;
  UnorderedStore* unordered_;
  obs::FlightRecorder* recorder_;
  Rng rng_;

  // Persistent state. Every mutation is mirrored into the WAL (storage_) and
  // survives exactly as far as the fsync discipline allows.
  Term current_term_ = 0;
  NodeId voted_for_ = kInvalidNode;
  RaftLog log_;

  // Durable storage state (docs/durability.md). restart_epoch_ fences every
  // deferred persist callback: a callback captured under an older epoch (the
  // process crashed and recovered in between) must not ack or advance
  // durability. It also heads this node's progress stamps.
  StableStorage* storage_;
  LogIndex durable_index_ = 0;
  uint64_t restart_epoch_ = 0;
  Term persisted_term_ = 0;
  NodeId persisted_vote_ = kInvalidNode;
  bool suspect_ = false;
  LogIndex suspect_floor_ = 0;

  // Volatile state.
  RaftRole role_ = RaftRole::kFollower;
  NodeId leader_hint_ = kInvalidNode;
  LogIndex commit_idx_ = 0;
  LogIndex applied_idx_ = 0;
  LogIndex announced_idx_ = 0;
  int32_t votes_ = 0;
  std::vector<PeerState> peers_;

  // PreVote round state (volatile; meaningful only while pre_vote_active_).
  bool pre_vote_active_ = false;
  Term pre_vote_term_ = 0;  // the term the poll proposes (current_term_ + 1)
  int32_t pre_votes_ = 0;

  // Read lease floor: reads need quorum contact from this point on. Set on
  // becoming leader and when a membership config commits.
  TimeNs lease_floor_ = 0;
  // Round-robins lease-protected reads over caught-up members.
  size_t read_replier_rr_ = 0;

  // Election-timer skew injected by the timer-manipulation attack (1.0 = no
  // skew; smaller fires earlier).
  double election_timer_scale_ = 1.0;

  // Aggregator stream state (HovercRaft++, leader side).
  bool agg_active_ = false;
  Stream agg_stream_;
  // Last AGG_COMMIT accepted while leading; a healthy aggregator emits one
  // every heartbeat, so silence past the CheckQuorum window (with the direct
  // probes still answered) means the aggregator died, not the followers.
  TimeNs last_agg_commit_ = 0;

  // Follower-side recovery state.
  std::unique_ptr<AppendEntriesReq> pending_ae_;
  bool pending_ae_via_agg_ = false;
  std::unordered_map<RequestId, TimeNs, RequestIdHash> recovery_inflight_;

  bool election_armed_ = false;  // the election timer is pending
  bool halted_ = false;

  // Membership state. `configs_` holds the initial config (index 0) plus
  // every config entry still in the log and not yet compacted below the
  // committed one, in index order; the back is the active config. After a
  // restart it starts with the config entries the recovered log holds below
  // the snapshot's config, which the snapshot's config supersedes. With static membership it
  // stays a single element and every guard below degenerates to the
  // pre-membership behaviour (committed_config_idx_ == 0).
  std::vector<std::pair<LogIndex, MembershipConfigPtr>> configs_;
  LogIndex committed_config_idx_ = 0;
  bool retired_ = false;
  // When this node last heard from a live leader; used to ignore votes
  // requested by non-members (a removed server that never learned its own
  // removal must not depose the leader — dissertation section 4.2.3).
  TimeNs last_leader_contact_ = 0;
  // Leader: time each active learner became one (committed), for the
  // catch-up duration stat.
  std::unordered_map<NodeId, TimeNs> learner_since_;

  ReplierScheduler scheduler_;
  RaftStats stats_;
};

}  // namespace hovercraft

#endif  // SRC_RAFT_NODE_H_
