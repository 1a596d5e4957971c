// The SMR-aware RPC server (paper section 3.1): one host class serves all
// four evaluated configurations.
//
//   kUnreplicated — requests execute directly on the app thread.
//   kVanillaRaft  — Raft inside the RPC layer; the leader replicates full
//                   payloads and answers every client itself.
//   kHovercRaft   — requests arrive by multicast on every node; the leader
//                   orders metadata; replies and read-only execution are
//                   load-balanced with bounded queues.
//   kHovercRaftPP — HovercRaft plus the in-network aggregator.
//
// The application is any deterministic StateMachine; it needs no knowledge
// of replication (the paper's application-agnostic claim).
#ifndef SRC_CORE_SERVER_H_
#define SRC_CORE_SERVER_H_

#include <functional>
#include <memory>
#include <vector>

#include "src/app/state_machine.h"
#include "src/common/types.h"
#include "src/core/session_table.h"
#include "src/net/host.h"
#include "src/r2p2/messages.h"
#include "src/r2p2/shard.h"
#include "src/raft/node.h"
#include "src/raft/options.h"
#include "src/raft/unordered_store.h"
#include "src/storage/fsync_policy.h"
#include "src/storage/sim_disk.h"
#include "src/storage/stable_storage.h"

namespace hovercraft {

// The values a deployment tunes. ClusterConfig::server_template holds
// exactly these, and Cluster copies them into every node's ServerConfig
// unchanged.
struct ServerTuning {
  // Log prefix compaction cadence (memory bound for long runs).
  TimeNs compaction_interval = Millis(20);
  // How far a straggler may lag before compaction proceeds without it and
  // the leader repairs it with an InstallSnapshot state transfer.
  LogIndex straggler_lag_entries = 65'536;
  // Client-session dedup (Raft section 8): retransmitted writes are answered
  // from the reply cache instead of re-executed. Disabling it models naive
  // at-least-once retries — the chaos harness uses that to demonstrate the
  // double-apply anomaly the table exists to prevent.
  bool dedup_enabled = true;
  // Durable storage (docs/durability.md). Replicated nodes journal hard state
  // and log entries to a per-node SimDisk whose fsync cost is
  // raft.persist_latency. Group commit acks after durability while coalescing
  // concurrent barriers; ack-before-sync is the unsafe chaos control.
  FsyncPolicy fsync_policy = FsyncPolicy::kGroupCommit;
  // Protocol-aware WAL recovery on restart after a power failure. Disabled
  // only by the chaos control: damage below the durable frontier is then
  // silently truncated (the classic unsafe repair) instead of quarantined
  // behind the suspect gate and re-fetched from the leader.
  bool wal_recovery = true;
  // This deployment may power-fail a node or corrupt its disk. Only those
  // faults read a disk back, so with it off the SimDisk keeps sizes and
  // sync frontiers but no bytes (docs/durability.md, "What a disk holds").
  bool disk_faults = false;
};

// A server's full configuration: the tuning plus what the deployment derives
// for the node (Cluster and ShardedCluster fill these in; tests that build a
// ReplicatedServer directly set them all).
struct ServerConfig : ServerTuning {
  ClusterMode mode = ClusterMode::kUnreplicated;
  RaftOptions raft;  // unused for kUnreplicated
  // Multi-group sharding (src/shard, docs/sharding.md). When set, this
  // server belongs to one of several consensus groups partitioning the
  // keyspace: it serves only the slots in shard_owned_slots, rejects data
  // entries for foreign slots at arrival and at apply (WrongShardNack), and
  // applies kShardCtlSlot control entries (freeze / install / gc) that move
  // slot ranges between groups.
  bool sharded = false;
  std::vector<uint32_t> shard_owned_slots;
};

struct ServerStats {
  uint64_t client_requests = 0;
  uint64_t replies_sent = 0;
  uint64_t ops_executed = 0;   // state-machine executions on this node
  uint64_t ro_skipped = 0;     // read-only entries this node did not execute
  uint64_t unordered_gc = 0;
  uint64_t feedback_sent = 0;
  // Non-replicated (kUnrestricted) requests served locally (section 6.1).
  uint64_t unrestricted_served = 0;
  uint64_t snapshots_restored = 0;
  // Exactly-once accounting (Raft section 8 client sessions).
  uint64_t dedup_hits = 0;      // retransmits recognized as already executed
  uint64_t dedup_replies = 0;   // replies served from the session cache
  uint64_t double_applies = 0;  // re-executions that dedup would have stopped
  // Read-only retransmits dropped because their rid is already ordered but
  // not yet applied: the original's reply is still in the pipeline.
  uint64_t retransmits_inflight = 0;
  // Flow-control ledger reconciliation queries answered as leader.
  uint64_t fc_reconcile_answers = 0;
  // ReadIndex fast path (docs/hardening.md): lease-protected reads that never
  // enter the log. local = leader served it itself; forwarded = leader sent
  // the grant to a caught-up replier; remote = this node served a forwarded
  // grant; queued = held until the apply cursor reached the read index;
  // dropped = forwarded grant whose payload was not in the unordered set
  // (client multicast missed this node — the retransmit retries the read).
  uint64_t read_index_local = 0;
  uint64_t read_index_forwarded = 0;
  uint64_t read_index_remote = 0;
  uint64_t read_index_queued = 0;
  uint64_t read_index_dropped = 0;
  // Sharding (src/shard): requests redirected because this group does not
  // serve their slot — at leader arrival, and at apply time for entries
  // ordered before a freeze took effect.
  uint64_t wrong_shard_nacks = 0;
  uint64_t wrong_shard_rejects = 0;
  // Shard-move control entries applied (freeze / install / gc, plus the
  // abort ops: unfreeze at the source, uninstall at the destination).
  uint64_t shard_freezes = 0;
  uint64_t shard_installs = 0;
  uint64_t shard_gcs = 0;
  uint64_t shard_unfreezes = 0;
  uint64_t shard_uninstalls = 0;
  // Control entries rejected by the move-id fence (ShardCtlKeyOf): stale
  // duplicates re-drained into the log after the step already ran.
  uint64_t shard_ctl_stale = 0;
};

class ReplicatedServer final : public Host, public RaftNode::Env {
 public:
  // Builds the app with `app_factory`, which recovery calls again for
  // pristine state when the on-disk snapshot is unreadable.
  ReplicatedServer(Simulator* sim, const CostModel& costs, const ServerConfig& config,
                   std::function<std::unique_ptr<StateMachine>()> app_factory, uint64_t seed);
  ~ReplicatedServer() override;

  // Wiring (after Network::Attach of all hosts). `node_hosts[i]` is the host
  // id of Raft node i; aggregator/flow-control may be kInvalidHost.
  void Wire(std::vector<HostId> node_hosts, HostId aggregator_host, HostId flow_control_host);

  // Starts Raft (replicated modes) and the maintenance timers.
  void Start();

  // --- Host ---
  void HandleMessage(HostId src, const MessagePtr& msg) override;
  // Crash/restart injection: halts or resumes the Raft timers along with
  // the network interface (fail-stop model).
  void set_failed(bool failed) override;

  // Power loss: fails the node AND crashes its simulated disk, so everything
  // beyond the last fsync frontier — the unsynced WAL suffix and any
  // acknowledgement whose durability barrier had not completed — is genuinely
  // gone. The next Restart() runs WAL recovery. No-op on a failed node.
  void PowerFail();

  // Process restart after a crash. After a plain fail-stop (set_failed) the
  // process memory is intact and the node simply resumes. After PowerFail()
  // only the disk is trusted: recovery replays the WAL (CRC-validating every
  // record), truncates a torn unsynced tail, reloads the session table and
  // application state from the latest local snapshot, and re-applies forward.
  // If durable bytes were lost (corruption, mid-stream damage) the node comes
  // back as a *suspect* follower — it may vote but not campaign until its
  // commit index covers everything it may ever have acknowledged — and the
  // missing entries are re-fetched from the leader through the normal
  // AppendEntries / InstallSnapshot repair path instead of being silently
  // truncated away. Soft state (the unordered request set, leased reads) is
  // lost either way. No-op on a live node.
  void Restart();

  // --- RaftNode::Env ---
  TimeNs Now() const override { return sim()->Now(); }
  void ArmTimer(RaftTimer timer, TimeNs delay) override;
  void CancelTimer(RaftTimer timer) override;
  void SendToPeer(NodeId peer, MessagePtr msg) override;
  void SendToAggregator(MessagePtr msg) override;
  SnapshotCapture CaptureSnapshot() override;
  void RestoreSnapshot(const Body& state, LogIndex last_included, Term included_term,
                       MembershipConfigPtr config, LogIndex config_idx) override;
  void OnCommitAdvanced(LogIndex commit) override;
  void OnLeadershipChanged(bool is_leader) override;
  void OnConfigCommitted(const MembershipConfig& config, LogIndex idx) override;
  void DrainUnorderedIntoLog() override;

  // Installed by the cluster builder: invoked whenever this node's Raft layer
  // commits a membership config (new multicast groups, aggregator epoch, ...
  // are cluster-level concerns the server itself cannot reach).
  using ConfigCommittedCallback =
      std::function<void(NodeId self, const MembershipConfig& config, LogIndex idx)>;
  void set_config_committed_callback(ConfigCommittedCallback cb) {
    config_committed_cb_ = std::move(cb);
  }

  // --- queries ---
  bool IsLeader() const { return raft_ != nullptr && raft_->IsLeader(); }
  RaftNode* raft() { return raft_.get(); }
  const RaftNode* raft() const { return raft_.get(); }
  StateMachine& app() { return *app_; }
  const StateMachine& app() const { return *app_; }
  const ServerStats& server_stats() const { return stats_; }
  const SessionTable& sessions() const { return sessions_; }
  NodeId node_id() const { return config_.raft.id; }
  // Observability namespace: the group-local node id shifted into this
  // group's disjoint range, so rings/metrics/watchdog state never alias
  // across groups sharing one fabric.
  NodeId obs_node_id() const { return config_.raft.obs_id(); }
  const ShardServeState& shard_state() const { return shard_; }
  const ServerConfig& config() const { return config_; }
  SerialResource& app_thread() { return app_thread_; }
  // Durable storage (null for kUnreplicated). Exposed for the disk-fault
  // nemesis and metrics export.
  StableStorage* storage() { return storage_.get(); }
  const StableStorage* storage() const { return storage_.get(); }
  SimDisk* disk() { return disk_.get(); }

 private:
  // What a completion sends once its app-thread work is done.
  enum class Answer : uint8_t { kNone, kReply, kWrongShard };

  bool IsReplicated() const { return config_.mode != ClusterMode::kUnreplicated; }

  void OnClientRequest(std::shared_ptr<const RpcRequest> request);
  void OnFcReconcile(HostId src, const FcReconcileReq& req);
  void ExecuteUnreplicated(const std::shared_ptr<const RpcRequest>& request);
  // ReadIndex fast path (leader side): acquire a lease-protected read index
  // and serve the read without a log entry. Returns false when no lease is
  // available — the caller falls back to ordering the read through the log.
  bool TryServeReadIndex(const std::shared_ptr<const RpcRequest>& request);
  // Replier side of a forwarded grant: resolve the payload from the
  // unordered set and serve it.
  void OnReadIndexGrant(const ReadIndexGrantMsg& grant);
  // Serves a granted leased read once the apply cursor covers `read_index`,
  // holding it in pending_reads_ until then.
  void ServeLeasedRead(const std::shared_ptr<const RpcRequest>& request, LogIndex read_index);
  // Execute a leased read against the current applied state (never touches
  // the session table — the tables stay a pure function of the log).
  // `granted` is when the lease grant covered this read, for the
  // raft.read_index_wait_ns histogram (grant -> execution).
  void ExecuteLeasedRead(const RpcRequest& request, TimeNs granted);
  void DrainPendingReads();
  void ScheduleApply(LogIndex idx);
  // Applies a kShardCtlSlot entry: freeze (replier captures the range),
  // install (all replicas merge it), or gc (all replicas drop it). Dedup'd
  // through the session table like any write, so a re-drained duplicate of a
  // control entry can never re-run a move step.
  void ApplyShardCtl(LogIndex idx, const LogEntry& entry);
  // Resets shard_ to the configured initial ownership (ctor, and the
  // recovery path of last resort when the on-disk snapshot is unreadable).
  void InitShardState();

  // --- the answer path: every request's work ends in these ---
  // Runs `request` on the app and charges it to the app thread; the kApply
  // stages are marked on the copy that replies (`mark_stages`).
  ExecResult Execute(const RpcRequest& request, bool mark_stages);
  // After `cost` on the app thread: reports `applied` to Raft (kNoLogIndex:
  // none) and compacts if the log grew long, and, on a live node, sends
  // `answer` to `rid`'s client, then repays its admission slot when
  // `feedback`.
  void Complete(TimeNs cost, LogIndex applied, const RequestId& rid, Answer answer, Body body,
                bool feedback);
  // Counts a repeat of the executed `rid` (Raft section 8) and returns the
  // cached reply to answer it with; null when there is none to send here.
  Body CachedAnswer(const RequestId& rid, bool reply_here);
  // Completes such a repeat, ordered at `applied`, from the reply cache.
  void CompleteDuplicate(LogIndex applied, const RequestId& rid, bool reply_here);
  // Whether the answer to `request` repays its admission slot (DESIGN.md §5c).
  bool OwesFeedback(const RpcRequest& request, bool ordered) const;
  void Repay(const RequestId& rid);
  void SendReply(const RequestId& rid, Body body);
  // Protocol CPU beyond raw byte handling, charged on the net thread.
  TimeNs ProtocolCpu(const Message& msg) const;
  void ArmMaintenanceTimers();
  void ArmGcTimer();
  void ArmCompactionTimer();
  // Snapshots, then compacts the log to RaftNode::CompactionPoint.
  void CompactNow();
  // CompactNow once the prefix it would drop holds log_retention_entries
  // entries; checked after every apply.
  void CompactIfLong();
  // Writes the local snapshot (config + sessions + `app_state`, the image
  // through apply_cursor_) to the disk; the durable floor WAL replay restarts
  // from. The file shares the parts of `app_state` instead of copying them.
  void PersistLocalSnapshot(Image app_state);
  // Appends the snapshot wire body's prefix, [sessions][shard]; the app
  // state bytes follow it.
  void PutSnapshotPrefix(BufferWriter* w) const;
  // Post-power-fail recovery: WAL replay + snapshot reload + raft restart.
  void RecoverFromStorage();
  // Reads a snapshot wire body, [sessions][shard][app bytes], from `r`, which
  // reads `body` and stands at the session table.
  void RestoreSnapshotBody(const Body& body, BufferReader* r);

  ServerConfig config_;
  std::function<std::unique_ptr<StateMachine>()> app_factory_;
  std::unique_ptr<StateMachine> app_;
  // Simulated durable media + WAL (replicated modes only) and the unordered
  // set; declared before raft_ so they outlive the node that uses them.
  std::unique_ptr<SimDisk> disk_;
  std::unique_ptr<StableStorage> storage_;
  UnorderedStore unordered_;
  std::unique_ptr<RaftNode> raft_;
  SerialResource app_thread_;
  // Replicated client sessions: a deterministic function of the applied log
  // prefix, so it survives Restart() alongside the application state and
  // travels inside snapshots (serialized ahead of the app bytes).
  SessionTable sessions_;
  // Which slots this group currently serves. Mutated ONLY by applying
  // committed control entries (and snapshot restore), never by arrival-time
  // state, so every replica gates every log entry identically.
  ShardServeState shard_;

  std::vector<HostId> node_hosts_;
  HostId aggregator_host_ = kInvalidHost;
  HostId flow_control_host_ = kInvalidHost;

  // Apply pipeline: last log index handed to the app thread.
  LogIndex apply_cursor_ = 0;

  // Last index covered by the on-disk snapshot; compaction skips the write
  // when the apply cursor has not moved past it.
  LogIndex local_snapshot_idx_ = 0;
  // Set by PowerFail(): the disk crashed, so Restart() must run WAL recovery
  // instead of resuming from (now untrustworthy) process memory.
  bool needs_recovery_ = false;

  // Leased reads waiting for the apply cursor to reach their read index;
  // drained whenever the cursor advances. Volatile — lost on crash, and the
  // client's retransmission timer re-issues the read.
  struct PendingRead {
    LogIndex read_index;
    TimeNs granted;  // when the lease grant covered this read
    std::shared_ptr<const RpcRequest> request;
  };
  std::vector<PendingRead> pending_reads_;

  // Maintenance timers; re-arming cancels the previous handle so restarts
  // never stack duplicate GC/compaction chains. raft_timers_ holds the
  // node's two, indexed by RaftTimer.
  EventId gc_timer_ = kInvalidEvent;
  EventId compaction_timer_ = kInvalidEvent;
  EventId raft_timers_[2] = {kInvalidEvent, kInvalidEvent};

  ConfigCommittedCallback config_committed_cb_;

  ServerStats stats_;
};

}  // namespace hovercraft

#endif  // SRC_CORE_SERVER_H_
