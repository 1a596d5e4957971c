#include "src/core/server.h"

#include <algorithm>
#include <utility>

#include "src/common/check.h"
#include "src/common/logging.h"
#include "src/obs/observability.h"
#include "src/raft/messages.h"
#include "src/raft/wal_codec.h"

namespace hovercraft {

namespace {

// Unordered-set garbage collection (paper section 5): every kGcInterval,
// drop unordered requests older than kUnorderedTtl.
constexpr TimeNs kGcInterval = Millis(10);
constexpr TimeNs kUnorderedTtl = Millis(50);

// Local snapshot files carry the covering membership config ahead of the
// wire body, so a recovered node whose whole log was compacted away still
// knows who its peers are: [u8 has_config]([u64 config_idx][config])?
void PutSnapshotConfig(const MembershipConfigPtr& config, LogIndex config_idx,
                       BufferWriter* w) {
  w->PutU8(config != nullptr ? 1 : 0);
  if (config != nullptr) {
    w->PutU64(config_idx);
    EncodeConfig(*config, w);
  }
}

}  // namespace

ReplicatedServer::ReplicatedServer(Simulator* sim, const CostModel& costs,
                                   const ServerConfig& config,
                                   std::function<std::unique_ptr<StateMachine>()> app_factory,
                                   uint64_t seed)
    : Host(sim, costs, Kind::kServer),
      config_(config),
      app_factory_(std::move(app_factory)),
      app_(app_factory_()),
      app_thread_(sim) {
  HC_CHECK(app_ != nullptr);
  set_obs_node(obs_node_id());
  InitShardState();
  if (IsReplicated()) {
    // Disk seed decorrelated from the raft RNG stream so adding durability
    // does not perturb existing election/jitter draws. The fsync cost is the
    // paper's persist_latency knob; zero keeps syncs inline and event-free.
    disk_ = std::make_unique<SimDisk>(sim, seed ^ 0x5EEDD15Cu, config_.raft.persist_latency,
                                      config_.disk_faults);
    disk_->set_node(obs_node_id());
    storage_ = std::make_unique<StableStorage>(disk_.get(), config_.fsync_policy);
    storage_->set_node(obs_node_id());
    raft_ = std::make_unique<RaftNode>(seed, config_.raft, this, storage_.get(), &unordered_,
                                       obs::FrOf(sim));
    // Genesis snapshot: recovery always finds a durable floor to replay from,
    // even if the node power-fails before the first compaction. Imaging here,
    // while the deployment is still being built, publishes the app's parts
    // before the next replica's app is built, so that one adopts them.
    PersistLocalSnapshot(app_->SnapshotImage());
  }
}

ReplicatedServer::~ReplicatedServer() = default;

void ReplicatedServer::InitShardState() {
  shard_ = ShardServeState{};
  shard_.sharded = config_.sharded;
  if (!config_.sharded) {
    return;
  }
  // Everything outside the owned set starts dropped: this group rejects
  // those slots until a committed install entry hands them over.
  std::vector<bool> owned(kShardSlots, false);
  for (uint32_t slot : config_.shard_owned_slots) {
    HC_CHECK(IsDataSlot(slot));
    owned[slot] = true;
  }
  for (uint32_t slot = 0; slot < kShardSlots; ++slot) {
    if (!owned[slot]) {
      shard_.Drop(slot, slot);
    }
  }
}

void ReplicatedServer::Wire(std::vector<HostId> node_hosts, HostId aggregator_host,
                            HostId flow_control_host) {
  node_hosts_ = std::move(node_hosts);
  aggregator_host_ = aggregator_host;
  flow_control_host_ = flow_control_host;
}

void ReplicatedServer::Start() {
  if (raft_ != nullptr) {
    raft_->Start();
    ArmMaintenanceTimers();
  }
}

void ReplicatedServer::set_failed(bool failed_now) {
  const bool was_failed = failed();
  Host::set_failed(failed_now);
  if (raft_ == nullptr) {
    return;
  }
  if (failed_now && !was_failed) {
    raft_->Halt();
    pending_reads_.clear();  // volatile; clients re-issue leased reads
  } else if (!failed_now && was_failed) {
    raft_->Resume();
    ArmMaintenanceTimers();  // GC/compaction timers died with the process
  }
}

void ReplicatedServer::PowerFail() {
  if (failed()) {
    return;
  }
  set_failed(true);
  if (storage_ != nullptr) {
    // Power loss: the unsynced WAL suffix is discarded (possibly leaving a
    // torn final record) and every pending durability barrier dies with the
    // process — no ack can fire from the grave.
    storage_->Crash();
    needs_recovery_ = true;
  }
}

void ReplicatedServer::Restart() {
  if (!failed()) {
    return;
  }
  // The unordered set lived in DRAM of the crashed process; requests the log
  // references but the set no longer holds are re-fetched point-to-point by
  // the recovery path when the node catches up.
  unordered_.Clear();
  if (needs_recovery_) {
    // Power-fail restart: process memory is gone; rebuild everything from
    // the disk before the node rejoins.
    RecoverFromStorage();
  }
  set_failed(false);
}

void ReplicatedServer::PersistLocalSnapshot(Image app_state) {
  // The file is [header][config][wire body], where the wire body is
  // CaptureSnapshot()'s [sessions][shard][app bytes]. Everything up to the
  // app bytes goes into a small head whose header the storage layer fills in
  // place; the image's parts are shared with the file, never copied.
  const LogIndex idx = apply_cursor_;
  const Term term = idx == 0 ? 0 : raft_->log().TermAt(idx);
  auto [config_idx, config] = raft_->ConfigCoveringIndex(idx);
  BufferWriter head = StableStorage::SnapshotWriter();
  PutSnapshotConfig(config, config_idx, &head);
  PutSnapshotPrefix(&head);
  storage_->SaveSnapshot(idx, term, std::move(head), std::move(app_state));
  local_snapshot_idx_ = idx;
}

void ReplicatedServer::RecoverFromStorage() {
  StableStorage::Recovery rec = storage_->Recover(config_.wal_recovery);
  needs_recovery_ = false;
  LogIndex applied = 0;
  MembershipConfigPtr snap_config;
  LogIndex snap_config_idx = 0;
  if (rec.has_snapshot) {
    const Body& payload = rec.snapshot_payload;
    BufferReader r(payload.bytes());
    uint8_t has_config = 0;
    HC_CHECK(r.GetU8(has_config).ok());
    if (has_config != 0) {
      HC_CHECK(r.GetU64(snap_config_idx).ok());
      snap_config = DecodeConfig(&r);
      HC_CHECK(snap_config != nullptr);
    }
    RestoreSnapshotBody(payload, &r);
    applied = rec.snapshot_index;
  } else {
    // The snapshot itself was unreadable — fall back to a fresh app's
    // pristine state. A log tail whose base is not index zero cannot be
    // replayed into state, so discard it; the node stays suspect (it may have
    // acknowledged those entries) and the leader re-seeds it by state transfer.
    sessions_.Clear();
    InitShardState();
    HC_CHECK(app_->RestoreState(app_factory_()->SnapshotState()).ok());
    if (rec.base_index != 0) {
      rec.entries.clear();
      rec.base_index = 0;
      rec.base_term = 0;
      rec.suspect = true;
    }
  }
  // Entries at or below `applied` are already reflected in the reloaded
  // state; the raft layer re-applies forward from there as commit re-advances.
  apply_cursor_ = applied;
  local_snapshot_idx_ = applied;
  raft_->RestartFromRecovery(rec, applied, std::move(snap_config), snap_config_idx);
}

void ReplicatedServer::ArmMaintenanceTimers() {
  // Each chain re-arms only itself, and arming cancels the previous handle:
  // the GC chain used to re-enter this function and start a *fresh*
  // compaction chain every kGcInterval (on top of the compaction chain
  // re-arming itself), so compaction chains multiplied over the run — and
  // Restart() stacked yet another pair on top of the survivors.
  ArmGcTimer();
  ArmCompactionTimer();
}

void ReplicatedServer::ArmGcTimer() {
  sim()->Cancel(gc_timer_);
  gc_timer_ = sim()->After(kGcInterval, [this]() {
    gc_timer_ = kInvalidEvent;
    if (failed()) {
      return;
    }
    stats_.unordered_gc += unordered_.GarbageCollect(sim()->Now(), kUnorderedTtl);
    ArmGcTimer();
  });
}

void ReplicatedServer::ArmCompactionTimer() {
  sim()->Cancel(compaction_timer_);
  compaction_timer_ = sim()->After(config_.compaction_interval, [this]() {
    compaction_timer_ = kInvalidEvent;
    if (failed() || raft_ == nullptr) {
      return;
    }
    CompactNow();
    ArmCompactionTimer();
  });
}

void ReplicatedServer::CompactNow() {
  if (storage_ != nullptr && apply_cursor_ > local_snapshot_idx_) {
    // A covering snapshot must be durable before CompactLog journals the
    // compact record and prunes WAL segments below the new base — a power
    // fail in between must still find a replayable floor.
    PersistLocalSnapshot(app_->SnapshotImage());
  }
  raft_->CompactLog(raft_->CompactionPoint(config_.straggler_lag_entries));
}

void ReplicatedServer::CompactIfLong() {
  // The timer alone would let the log grow with the offered rate between two
  // ticks. Compacting once the droppable prefix reaches the retention keeps
  // it within twice the retention plus the unapplied tail.
  const LogIndex retention = raft_->options().log_retention_entries;
  if (!failed() && raft_->CompactionPoint(config_.straggler_lag_entries) >=
                       raft_->log().first_index() - 1 + retention) {
    CompactNow();
  }
}

// ---------------------------------------------------------------------------
// Message dispatch
// ---------------------------------------------------------------------------

TimeNs ReplicatedServer::ProtocolCpu(const Message& msg) const {
  switch (msg.kind()) {
    case MessageKind::kAeReq: {
      // Marshalling: fixed cost + per-entry bookkeeping + a copy of everything
      // beyond the fixed header (entry metadata and, in VanillaRaft mode, the
      // embedded request payloads).
      const auto& ae = static_cast<const AppendEntriesReq&>(msg);
      const int32_t marshalled = ae.PayloadBytes() - kAeFixedBytes;
      return CostModel::kAeFixedNs +
             CostModel::kRaftEntryNs * static_cast<TimeNs>(ae.entries().size()) +
             static_cast<TimeNs>(CostModel::kAePayloadByteNs * marshalled);
    }
    case MessageKind::kAeRep:
      return CostModel::kRaftEntryNs;
    case MessageKind::kAggCommit:
      return CostModel::kAeFixedNs;
    case MessageKind::kSnapshotReq:
      // Serializing / installing a state image costs a copy of its bytes.
      return CostModel::kAeFixedNs +
             static_cast<TimeNs>(CostModel::kAePayloadByteNs * msg.PayloadBytes());
    default:
      return 0;
  }
}

void ReplicatedServer::HandleMessage(HostId src, const MessagePtr& msg) {
  if (msg->kind() == MessageKind::kRequest) {
    ++stats_.client_requests;
    OnClientRequest(std::static_pointer_cast<const RpcRequest>(msg));
    return;
  }
  if (raft_ == nullptr) {
    HC_LOG_WARN("unreplicated server got %s", msg->Name());
    return;
  }
  const TimeNs extra = ProtocolCpu(*msg);
  if (extra > 0) {
    // Protocol processing beyond raw packet handling stays on the net thread.
    net_thread().Submit(extra, nullptr);
  }
  const Message& m = *msg;
  switch (m.kind()) {
    case MessageKind::kReadIndexGrant:
      OnReadIndexGrant(static_cast<const ReadIndexGrantMsg&>(m));
      break;
    case MessageKind::kFcReconcileReq:
      OnFcReconcile(src, static_cast<const FcReconcileReq&>(m));
      break;
    default:
      raft_->OnMessage(m, /*via_aggregator=*/src == aggregator_host_);
  }
}

// ---------------------------------------------------------------------------
// Client requests
// ---------------------------------------------------------------------------

void ReplicatedServer::OnClientRequest(std::shared_ptr<const RpcRequest> request) {
  obs::MarkStage(sim(), request->rid(), obs::Stage::kReplicaRx, obs_node_id(), sim()->Now());
  if (request->policy() == R2p2Policy::kUnrestricted) {
    // Non-replicated request (paper section 6.1): served by whichever
    // replica the client picked, bypassing consensus, with the possibility
    // of stale data. The client is responsible for only sending operations
    // that tolerate this (it must not mutate the state machine).
    ++stats_.unrestricted_served;
    ExecuteUnreplicated(request);
    return;
  }
  if (config_.mode == ClusterMode::kUnreplicated) {
    ExecuteUnreplicated(request);
    return;
  }
  // Exactly-once fast path (Raft section 8): a retransmitted write whose
  // original already executed is answered from the session cache — ordering
  // it again would re-apply it. An Executed() hit with no cached reply means
  // the client's own ack watermark passed this sequence (it saw the reply),
  // so any retransmit still in flight is stale and safe to drop.
  if (raft_->IsLeader() && config_.dedup_enabled && !request->read_only() &&
      sessions_.Executed(request->rid())) {
    // Answered at once: nothing executes, so the app thread is not involved.
    Body cached = CachedAnswer(request->rid(), /*reply_here=*/true);
    if (cached != nullptr) {
      SendReply(request->rid(), std::move(cached));
    }
    return;
  }
  // Shard gate at the ordering entrance: the leader refuses to order data
  // requests for slots this group does not serve (moved away, mid-move
  // frozen, or never owned — a client raced a ShardMap epoch bump). The
  // redirect tells the client to refresh its map and resend; the session
  // table is deliberately untouched, so a rejected rid can execute at its
  // real owner without this group's table disagreeing with its peers'.
  // Follower copies of a foreign multicast just park in the unordered set
  // and age out via TTL GC.
  if (config_.sharded && raft_->IsLeader() && IsDataSlot(request->shard_slot()) &&
      !shard_.Serves(request->shard_slot())) {
    ++stats_.wrong_shard_nacks;
    Send(request->rid().client, MakeMessage<WrongShardNack>(request->rid(), 0));
    // A first attempt was admitted by this group's middlebox but will never
    // be ordered here — repay its slot now (the redirected resend bypasses
    // admission, so nothing else will). Repay is rid-keyed and idempotent at
    // the ledger, so a parked copy later rejected at apply cannot double-
    // close the slot.
    if (OwesFeedback(*request, /*ordered=*/false)) {
      Repay(request->rid());
    }
    return;
  }
  // A retransmitted read-only request whose original is already ordered but
  // not yet applied is still in the pipeline: its reply is coming. Drop the
  // retransmit — re-ordering it would turn every retry tick of every queued
  // request into a fresh log entry, and under a post-failover backlog that
  // amplification snowballs into congestion collapse. Only an applied
  // instance (reply possibly lost) is re-ordered to regenerate the reply.
  if (request->is_retransmit() && request->read_only() && config_.dedup_enabled &&
      raft_->IsLeader()) {
    const LogIndex ordered = raft_->log().FindRequest(request->rid());
    if (ordered != kNoLogIndex && ordered > raft_->applied_index()) {
      ++stats_.retransmits_inflight;
      return;
    }
  }
  // ReadIndex fast path (docs/hardening.md): a lease-holding leader serves
  // read-only requests from its commit index — or forwards the grant to a
  // caught-up replier — without appending a log entry. A failed lease falls
  // through to the ordered path below, so reads never lose liveness.
  if (config_.raft.read_index && request->read_only() && raft_->IsLeader() &&
      TryServeReadIndex(request)) {
    return;
  }
  // A retransmitted read-only request may be re-ordered (re-execution is
  // side-effect free and regenerates the reply); dedup-disabled mode lets
  // write retransmits through too, which is exactly the double-apply anomaly
  // the chaos harness demonstrates.
  const bool allow_duplicate =
      request->is_retransmit() && (request->read_only() || !config_.dedup_enabled);
  switch (config_.mode) {
    case ClusterMode::kUnreplicated:
      return;  // handled above
    case ClusterMode::kVanillaRaft:
      // Clients address the leader directly; a deposed leader drops the
      // request (the client's retransmission timer chases the new leader).
      raft_->SubmitRequest(std::move(request), allow_duplicate);
      return;
    case ClusterMode::kHovercRaft:
    case ClusterMode::kHovercRaftPP:
      // Multicast delivery: the leader orders immediately, everyone else
      // parks the payload in the unordered set (paper section 3.2).
      if (raft_->IsLeader()) {
        if (raft_->SubmitRequest(request, allow_duplicate)) {
          return;
        }
      }
      unordered_.Insert(std::move(request), sim()->Now());
      return;
  }
}

bool ReplicatedServer::TryServeReadIndex(const std::shared_ptr<const RpcRequest>& request) {
  const RaftNode::ReadGrant grant = raft_->AcquireReadIndex();
  if (!grant.granted) {
    return false;
  }
  // The admission slot charged to this read is repaid here, at grant time:
  // the read never enters the log, so the apply path's first-instance
  // FEEDBACK accounting never sees it.
  if (OwesFeedback(*request, /*ordered=*/false)) {
    Repay(request->rid());
  }
  obs::MarkStage(sim(), request->rid(), obs::Stage::kReadGranted, obs_node_id(), sim()->Now());
  if (grant.replier == node_id()) {
    ++stats_.read_index_local;
    ServeLeasedRead(request, grant.read_index);
    return true;
  }
  ++stats_.read_index_forwarded;
  SendToPeer(grant.replier,
             MakeMessage<ReadIndexGrantMsg>(node_id(), raft_->term(), grant.read_index,
                                            request->rid()));
  return true;
}

void ReplicatedServer::OnReadIndexGrant(const ReadIndexGrantMsg& grant) {
  // The payload arrived by client multicast and is parked in the unordered
  // set (leased reads are never ordered, so it stays there until TTL GC). A
  // miss means the multicast lost our copy: drop the grant — the client's
  // retransmission re-delivers the payload and retries the read.
  std::shared_ptr<const RpcRequest> request = unordered_.Lookup(grant.rid());
  if (request == nullptr) {
    ++stats_.read_index_dropped;
    return;
  }
  ++stats_.read_index_remote;
  obs::MarkStage(sim(), grant.rid(), obs::Stage::kReadGranted, obs_node_id(), sim()->Now());
  ServeLeasedRead(request, grant.read_index());
}

void ReplicatedServer::ServeLeasedRead(const std::shared_ptr<const RpcRequest>& request,
                                       LogIndex read_index) {
  // The leader's own grants are always servable at once (ScheduleApply runs
  // synchronously, so its apply cursor is its commit index). A forwarded
  // grant can find its replier behind: a replier that power-failed and
  // recovered from an older snapshot no longer has the applied index it
  // last reported, on which the leader chose it.
  if (apply_cursor_ >= read_index) {
    ExecuteLeasedRead(*request, sim()->Now());
    return;
  }
  ++stats_.read_index_queued;
  pending_reads_.push_back(PendingRead{read_index, sim()->Now(), request});
}

void ReplicatedServer::ExecuteLeasedRead(const RpcRequest& request, TimeNs granted) {
  // Executes against the current applied prefix, which covers the granted
  // read index (the caller gated on apply_cursor_). The session table is
  // untouched: it must remain a deterministic function of the applied log,
  // and leased reads are invisible to the log.
  ExecResult result = Execute(request, /*mark_stages=*/true);
  if (auto* o = obs::ObsOf(sim())) {
    // Grant-to-execution wait: zero on the immediate path, the apply-cursor
    // catch-up lag for queued reads. Puts leased reads on the per-stage map.
    o->metrics()
        .GetHistogram(obs::NodeScope(obs_node_id()) + "raft.read_index_wait_ns")
        .Record(sim()->Now() - granted);
  }
  // FEEDBACK was settled at grant time on the leader.
  Complete(result.service_time, kNoLogIndex, request.rid(), Answer::kReply,
           std::move(result.reply), /*feedback=*/false);
}

void ReplicatedServer::DrainPendingReads() {
  if (pending_reads_.empty()) {
    return;
  }
  size_t kept = 0;
  for (size_t i = 0; i < pending_reads_.size(); ++i) {
    if (apply_cursor_ >= pending_reads_[i].read_index) {
      ExecuteLeasedRead(*pending_reads_[i].request, pending_reads_[i].granted);
    } else {
      pending_reads_[kept++] = std::move(pending_reads_[i]);
    }
  }
  pending_reads_.resize(kept);
}

void ReplicatedServer::OnFcReconcile(HostId src, const FcReconcileReq& req) {
  // The middlebox asks the leader to classify its still-open admission slots
  // after a failover. A deposed leader stays silent: a newer leader's own
  // FC_LEADER announcement restarts the reconcile against fresh state, and a
  // stale classification could release slots whose FEEDBACK is still coming.
  if (!raft_->IsLeader()) {
    return;
  }
  ++stats_.fc_reconcile_answers;
  std::vector<FcSlotState> states;
  states.reserve(req.rids().size());
  for (const RequestId& rid : req.rids()) {
    if (sessions_.Executed(rid)) {
      // Applied (reply sent or cached): the slot is repaid even if the
      // replier that owed FEEDBACK died before sending it.
      states.push_back(FcSlotState::kExecuted);
    } else if (raft_->log().FindRequest(rid) != kNoLogIndex ||
               unordered_.Lookup(rid) != nullptr) {
      // Ordered but not applied, or parked in the unordered set awaiting
      // ordering: the normal pipeline will repay the slot.
      states.push_back(FcSlotState::kPending);
    } else {
      // No trace: the request died with the old leader. The client's
      // retransmission bypasses the middlebox, so nothing will repay the
      // slot — release it.
      states.push_back(FcSlotState::kUnknown);
    }
  }
  Send(src, MakeMessage<FcReconcileRep>(req.rids(), std::move(states)));
}

void ReplicatedServer::ExecuteUnreplicated(const std::shared_ptr<const RpcRequest>& request) {
  // Session bookkeeping applies to writes served by the unreplicated
  // configuration; kUnrestricted requests are read-ish by contract and
  // read-only requests are harmless to re-execute.
  const bool track_session =
      config_.mode == ClusterMode::kUnreplicated && !request->read_only();
  if (track_session) {
    sessions_.Acknowledge(request->rid().client, request->ack_watermark());
    if (sessions_.Executed(request->rid())) {
      if (config_.dedup_enabled) {
        CompleteDuplicate(kNoLogIndex, request->rid(), /*reply_here=*/true);
        return;
      }
      ++stats_.double_applies;
    }
  }
  ExecResult result = Execute(*request, /*mark_stages=*/true);
  if (track_session) {
    sessions_.Record(request->rid(), result.reply, request->shard_slot());
  }
  // An unreplicated server wired behind an R2P2 router / flow-control box
  // owes FEEDBACK per completion; unrestricted requests inside a replicated
  // group bypassed the middlebox, so none is owed for them.
  const bool feedback =
      config_.mode == ClusterMode::kUnreplicated && OwesFeedback(*request, /*ordered=*/false);
  Complete(result.service_time, kNoLogIndex, request->rid(), Answer::kReply,
           std::move(result.reply), feedback);
}

// ---------------------------------------------------------------------------
// Apply pipeline
// ---------------------------------------------------------------------------

void ReplicatedServer::OnCommitAdvanced(LogIndex commit) {
  while (apply_cursor_ < commit) {
    ++apply_cursor_;
    ScheduleApply(apply_cursor_);
  }
  // Execute runs synchronously at scheduling time, so the application state
  // now reflects the prefix through apply_cursor_ — leased reads waiting on
  // it observe every write they were granted against.
  DrainPendingReads();
}

void ReplicatedServer::ScheduleApply(LogIndex idx) {
  const LogEntry& entry = raft_->log().At(idx);
  if (entry.noop) {
    Complete(0, idx, entry.rid, Answer::kNone, nullptr, /*feedback=*/false);
    return;
  }
  HC_CHECK(entry.request != nullptr);

  // Shard-control entries (freeze / install / gc) take their own apply path:
  // they mutate the serve state and the moved ranges, not the application.
  if (config_.sharded && entry.request->shard_slot() == kShardCtlSlot) {
    ApplyShardCtl(idx, entry);
    return;
  }

  // Session-table GC rides in the log entry: every replica raises the
  // client's ack watermark at the same log position (deterministic state).
  sessions_.Acknowledge(entry.rid.client, entry.ack_watermark);
  const bool reply_here = (entry.replier == node_id());

  // Apply-time shard gate: a data entry for a slot this group no longer
  // serves (ordered before the freeze committed, or re-drained after a GC)
  // must not execute — the capture that moved the range excludes it, so
  // executing here would fork state against the destination group. Every
  // replica evaluates the same log-derived serve state at the same position,
  // so all of them skip it identically. Nothing is recorded in the session
  // table: the rid stays free to execute at its real owner. The replier
  // redirects the waiting client, and the first ordered instance repays the
  // admission slot the entry still holds.
  if (config_.sharded && IsDataSlot(entry.request->shard_slot()) &&
      !shard_.Serves(entry.request->shard_slot())) {
    ++stats_.wrong_shard_rejects;
    Complete(0, idx, entry.rid, reply_here ? Answer::kWrongShard : Answer::kNone, nullptr,
             reply_here && OwesFeedback(*entry.request, /*ordered=*/true));
    return;
  }

  if (entry.read_only && !reply_here) {
    // Totally ordered, but executed only by the designated replier
    // (paper section 3.5). Still mark the rid as seen so this replica's
    // session table stays identical to the replier's.
    ++stats_.ro_skipped;
    sessions_.Record(entry.rid, nullptr, entry.request->shard_slot());
    Complete(0, idx, entry.rid, Answer::kNone, nullptr, /*feedback=*/false);
    return;
  }

  // Exactly-once on the apply path (Raft section 8): an already-executed
  // write re-entered the log (retransmit ordered by a new leader, or the
  // unordered drain raced a committed entry). Answer from the reply cache
  // instead of re-applying it.
  const bool duplicate = !entry.read_only && sessions_.Executed(entry.rid);
  if (duplicate && config_.dedup_enabled) {
    CompleteDuplicate(idx, entry.rid, reply_here);
    return;
  }
  if (duplicate) {
    ++stats_.double_applies;  // dedup disabled: the anomaly, made visible
  }
  if (auto* fr = obs::FrOf(sim())) {
    fr->Record(sim()->Now(), obs_node_id(), obs::FrType::kApply,
               static_cast<uint64_t>(entry.rid.client), entry.rid.seq, duplicate ? 1u : 0u);
  }

  // Execute now (in log order — the state machine sees exactly the committed
  // prefix) and charge the service time to the app thread; the reply leaves
  // when the virtual execution completes.
  const bool feedback = reply_here && OwesFeedback(*entry.request, /*ordered=*/true);
  ExecResult result = Execute(*entry.request, /*mark_stages=*/reply_here);
  // Writes cache their reply for dedup; read-onlys record a null marker (a
  // retransmitted read is always re-executed for freshness, so there is
  // nothing to cache — the entry only pins down "first instance" for
  // OwesFeedback and keeps every replica's session table byte-identical).
  sessions_.Record(entry.rid, entry.read_only ? nullptr : result.reply,
                   entry.request->shard_slot());
  Complete(result.service_time, idx, entry.rid, reply_here ? Answer::kReply : Answer::kNone,
           std::move(result.reply), feedback);
}

void ReplicatedServer::ApplyShardCtl(LogIndex idx, const LogEntry& entry) {
  // A duplicate control entry under the SAME rid (a parked multicast copy
  // re-drained into the log by a new leader after the original committed)
  // must be a no-op: re-running an install would roll the moved range back
  // below writes committed after the cutover. Control rids are recorded in
  // the same session table as data writes, so Executed() here is the same
  // deterministic, replicated dedup the data path uses. Duplicates under a
  // DIFFERENT rid — abandoned coordinator retries — are caught below by the
  // move-id fence instead. Nobody waits on the duplicate: the original was
  // answered, and the coordinator retries under fresh rids.
  if (sessions_.Executed(entry.rid)) {
    CompleteDuplicate(idx, entry.rid, /*reply_here=*/false);
    return;
  }
  sessions_.Acknowledge(entry.rid.client, entry.ack_watermark);
  ShardOp op;
  const Status decoded = DecodeShardOp(entry.request->body(), &op);
  HC_CHECK(decoded.ok());
  const bool reply_here = (entry.replier == node_id());
  TimeNs cost = CostModel::kAeFixedNs;
  // Move-id fence: the coordinator retries each phase under fresh rids, so an
  // abandoned attempt parked in a follower's unordered store is NOT in the
  // session table and can be re-drained into the log arbitrarily late — after
  // the phase already ran under a sibling rid, after the cutover, even after
  // a later move handed the range back. Re-running it would roll an installed
  // range back below post-cutover writes or GC live keys, so anything at or
  // below the replicated watermark mutates nothing. The fence is evaluated at
  // the apply point against log-derived state: every replica skips the same
  // entries identically.
  if (!shard_.AdvanceCtlWatermark(ShardCtlKeyOf(op.move_id, op.kind))) {
    ++stats_.shard_ctl_stale;
    // Still answer: the usual fenced entry is the coordinator's live retry of
    // a phase whose committed reply was lost, and that retry needs the phase
    // result (for a freeze, the capture). Replies to long-abandoned rids are
    // ignored by the coordinator's sequence check.
  } else {
    switch (op.kind) {
      case ShardOpKind::kFreeze: {
        shard_.Freeze(op.lo, op.hi);
        ++stats_.shard_freezes;
        break;
      }
      case ShardOpKind::kInstall: {
        HC_CHECK(op.payload != nullptr);
        // Self-cleaning: clear whatever the range left behind here (e.g. the
        // residue of an earlier aborted move whose uninstall never reached
        // this group) so the installed state is exactly the capture.
        sessions_.DropRange(op.lo, op.hi);
        HC_CHECK(app_->DropRange(op.lo, op.hi).ok());
        BufferReader r(op.payload->bytes());
        HC_CHECK(sessions_.MergeRange(&r).ok());
        HC_CHECK(app_->InstallRange(op.payload.Slice(r.position(), r.remaining())).ok());
        shard_.Install(op.lo, op.hi);
        ++stats_.shard_installs;
        cost += static_cast<TimeNs>(CostModel::kAePayloadByteNs *
                                    static_cast<double>(op.payload->size()));
        break;
      }
      case ShardOpKind::kGc: {
        sessions_.DropRange(op.lo, op.hi);
        HC_CHECK(app_->DropRange(op.lo, op.hi).ok());
        shard_.Drop(op.lo, op.hi);
        ++stats_.shard_gcs;
        break;
      }
      case ShardOpKind::kUnfreeze: {
        // Move abort at the source: serve the range again (the freeze may or
        // may not have committed — unfreezing an unfrozen range is a no-op)
        // and fence the aborted move's parked freeze copies.
        shard_.Unfreeze(op.lo, op.hi);
        ++stats_.shard_unfreezes;
        break;
      }
      case ShardOpKind::kUninstall: {
        // Move abort at the destination: discard whatever the aborted move
        // installed — data, session entries, serve state — and fence its
        // parked install copies. If no install committed the range is already
        // dropped/empty and this is a no-op.
        sessions_.DropRange(op.lo, op.hi);
        HC_CHECK(app_->DropRange(op.lo, op.hi).ok());
        shard_.Drop(op.lo, op.hi);
        ++stats_.shard_uninstalls;
        break;
      }
    }
  }
  // The designated replier's capture is not replicated state (every replica
  // could produce the identical bytes) — it travels to the coordinator in the
  // reply and reaches the destination group inside the install entry. While
  // the range is frozen the capture is stable: the apply-time gate rejects
  // every data write to it, so re-capturing for a freeze retry yields the
  // bytes the first freeze would have returned.
  Body reply;
  if (reply_here && op.kind == ShardOpKind::kFreeze) {
    BufferWriter w;
    sessions_.SerializeRange(&w, op.lo, op.hi);
    const Body app_range = app_->CaptureRange(op.lo, op.hi);
    HC_CHECK(app_range != nullptr);
    w.PutBytes(*app_range);
    reply = w.TakeBody();
    cost += static_cast<TimeNs>(CostModel::kAePayloadByteNs * static_cast<double>(reply->size()));
  }
  // Duplicates returned above, so this is the rid's first ordered instance.
  const bool feedback = reply_here && OwesFeedback(*entry.request, /*ordered=*/true);
  // Every replica records the same marker (the capture reply above is sent
  // but never cached — the coordinator uses a fresh rid per retry, so the
  // cache would serve nothing). The marker is what makes duplicates no-ops.
  sessions_.Record(entry.rid, MakeBody(std::vector<uint8_t>{1}), kShardCtlSlot);
  if (auto* fr = obs::FrOf(sim())) {
    fr->Record(sim()->Now(), obs_node_id(), obs::FrType::kApply,
               static_cast<uint64_t>(entry.rid.client), entry.rid.seq, 0u);
  }
  if (reply_here && reply == nullptr) {
    reply = MakeBody(std::vector<uint8_t>{1});  // install/gc ack
  }
  Complete(cost, idx, entry.rid, reply_here ? Answer::kReply : Answer::kNone, std::move(reply),
           feedback);
}

// ---------------------------------------------------------------------------
// The answer path: every request's work ends here
// ---------------------------------------------------------------------------

ExecResult ReplicatedServer::Execute(const RpcRequest& request, bool mark_stages) {
  ExecResult result = app_->Execute(request);
  ++stats_.ops_executed;
  if (mark_stages) {
    const TimeNs apply_start = std::max(sim()->Now(), app_thread_.busy_until());
    obs::MarkStage(sim(), request.rid(), obs::Stage::kApplyStart, obs_node_id(), apply_start);
    obs::MarkStage(sim(), request.rid(), obs::Stage::kApplyEnd, obs_node_id(),
                   apply_start + result.service_time);
  }
  RecordBusy(obs::FrResource::kApp, app_thread_, result.service_time);
  return result;
}

void ReplicatedServer::Complete(TimeNs cost, LogIndex applied, const RequestId& rid,
                                Answer answer, Body body, bool feedback) {
  if (applied == kNoLogIndex && answer == Answer::kNone) {
    return;  // nothing to report or send
  }
  // The reply Body is moved into the callback, never copied; SendReply takes
  // its own reference only when the reply leaves this host. The captures fill
  // Simulator::kInlineCallbackBytes exactly: the rid is captured as its two
  // fields so the client id, the answer and the flag share one word.
  auto done = [this, applied, seq = rid.seq, client = rid.client, answer, feedback,
               body = std::move(body)]() {
    if (applied != kNoLogIndex) {
      raft_->OnApplied(applied);
      CompactIfLong();
    }
    if (answer == Answer::kNone || failed()) {
      return;
    }
    const RequestId to{client, seq};
    if (answer == Answer::kReply) {
      SendReply(to, body);
    } else {
      Send(client, MakeMessage<WrongShardNack>(to, 0));
    }
    if (feedback) {
      Repay(to);
    }
  };
  static_assert(Simulator::Callback::kFits<decltype(done)>);
  app_thread_.Submit(cost, std::move(done));
}

Body ReplicatedServer::CachedAnswer(const RequestId& rid, bool reply_here) {
  ++stats_.dedup_hits;
  Body cached = reply_here ? sessions_.CachedReply(rid) : nullptr;
  if (cached != nullptr) {
    ++stats_.dedup_replies;
  }
  return cached;
}

void ReplicatedServer::CompleteDuplicate(LogIndex applied, const RequestId& rid,
                                         bool reply_here) {
  Body cached = CachedAnswer(rid, reply_here);
  const Answer answer = cached != nullptr ? Answer::kReply : Answer::kNone;
  Complete(0, applied, rid, answer, std::move(cached), /*feedback=*/false);
}

// The middlebox charges one admission slot to a request's first attempt, and
// exactly one FEEDBACK repays it (DESIGN.md §5c).
bool ReplicatedServer::OwesFeedback(const RpcRequest& request, bool ordered) const {
  if (ordered) {
    // The rid's first ordered instance, judged by the session table at the
    // entry's log position so every replica agrees, whichever attempt's copy
    // got ordered: a retransmit that recovers a first attempt lost with a
    // leader repays in its place; a read re-ordered for freshness does not.
    return !sessions_.Executed(request.rid());
  }
  // Answered without being ordered (an ingress redirect, a leased read, an
  // unreplicated execution): the first attempt. Retransmissions bypass the
  // middlebox and hold no slot.
  return !request.is_retransmit();
}

void ReplicatedServer::Repay(const RequestId& rid) {
  if (flow_control_host_ == kInvalidHost) {
    return;
  }
  ++stats_.feedback_sent;
  Send(flow_control_host_, MakeMessage<FeedbackMsg>(rid));
}

void ReplicatedServer::SendReply(const RequestId& rid, Body body) {
  ++stats_.replies_sent;
  obs::MarkStage(sim(), rid, obs::Stage::kReplySent, obs_node_id(), sim()->Now());
  // R2P2 lets the reply's source differ from the request's destination — the
  // mechanism enabling reply load balancing (paper section 3.3).
  Send(rid.client, MakeMessage<RpcResponse>(rid, std::move(body)));
}

// ---------------------------------------------------------------------------
// RaftNode::Env plumbing
// ---------------------------------------------------------------------------

void ReplicatedServer::ArmTimer(RaftTimer timer, TimeNs delay) {
  EventId& id = raft_timers_[static_cast<size_t>(timer)];
  sim()->Cancel(id);
  id = sim()->After(delay, [this, timer]() {
    raft_timers_[static_cast<size_t>(timer)] = kInvalidEvent;
    raft_->OnTimer(timer);
  });
}

void ReplicatedServer::CancelTimer(RaftTimer timer) {
  EventId& id = raft_timers_[static_cast<size_t>(timer)];
  sim()->Cancel(id);
  id = kInvalidEvent;
}

void ReplicatedServer::SendToPeer(NodeId peer, MessagePtr msg) {
  HC_CHECK_GE(peer, 0);
  HC_CHECK_LT(static_cast<size_t>(peer), node_hosts_.size());
  const TimeNs extra = ProtocolCpu(*msg);
  Send(node_hosts_[static_cast<size_t>(peer)], std::move(msg), extra);
}

void ReplicatedServer::SendToAggregator(MessagePtr msg) {
  if (aggregator_host_ == kInvalidHost) {
    return;
  }
  const TimeNs extra = ProtocolCpu(*msg);
  Send(aggregator_host_, std::move(msg), extra);
}

RaftNode::Env::SnapshotCapture ReplicatedServer::CaptureSnapshot() {
  // The application state reflects exactly the entries already handed to the
  // app thread (Execute runs synchronously at scheduling time), i.e. the
  // prefix through apply_cursor_. The session table is maintained at the
  // same points, so it is captured alongside: a straggler repaired by state
  // transfer must keep recognizing retransmits of compacted-away requests.
  // The shard serve state is log-derived the same way and travels too, so a
  // repaired straggler gates exactly like its peers.
  SnapshotCapture capture;
  BufferWriter w;
  PutSnapshotPrefix(&w);
  // The small prefix goes first, so appending the image grows the buffer
  // once, to its exact final size: the image's one flat copy.
  app_->SnapshotImage().AppendTo(&w);
  capture.state = w.TakeBody();
  capture.last_included = apply_cursor_;
  return capture;
}

void ReplicatedServer::PutSnapshotPrefix(BufferWriter* w) const {
  // Layout: [session table][shard serve state][application state bytes].
  sessions_.Serialize(w);
  shard_.Serialize(w);
}

void ReplicatedServer::RestoreSnapshotBody(const Body& body, BufferReader* r) {
  HC_CHECK(sessions_.Restore(r).ok());
  HC_CHECK(shard_.Restore(r).ok());
  HC_CHECK(app_->RestoreState(body.Slice(r->position(), r->remaining())).ok());
}

void ReplicatedServer::RestoreSnapshot(const Body& state, LogIndex last_included,
                                       Term included_term, MembershipConfigPtr config,
                                       LogIndex config_idx) {
  HC_CHECK(state != nullptr);
  BufferReader r(*state);
  RestoreSnapshotBody(state, &r);
  ++stats_.snapshots_restored;
  if (last_included > apply_cursor_) {
    apply_cursor_ = last_included;
  }
  if (storage_ != nullptr) {
    // Persist the received image before the raft layer journals the covering
    // truncate/compact records: a power fail right after the compact must
    // still find a snapshot at least as new as the new log base. The file
    // shares the received wire body as its tail, a one-part image.
    BufferWriter head = StableStorage::SnapshotWriter();
    PutSnapshotConfig(config, config_idx, &head);
    storage_->SaveSnapshot(last_included, included_term, std::move(head), Image::Of(state));
    local_snapshot_idx_ = std::max(local_snapshot_idx_, last_included);
  }
}

void ReplicatedServer::OnLeadershipChanged(bool is_leader) {
  HC_LOG_INFO("node %d leadership=%d at %lld us", node_id(), is_leader ? 1 : 0,
              static_cast<long long>(sim()->Now() / kNanosPerMicro));
  if (is_leader && flow_control_host_ != kInvalidHost) {
    // Announce the leadership change to the flow-control middlebox so it can
    // reconcile admission slots orphaned by the failover (DESIGN.md §5c):
    // slots whose designated replier died with the old regime never see
    // FEEDBACK and would otherwise pin the admission window shut.
    Send(flow_control_host_, MakeMessage<FcLeaderChangeMsg>(id()));
  }
}

void ReplicatedServer::OnConfigCommitted(const MembershipConfig& config, LogIndex idx) {
  HC_LOG_INFO("node %d config committed at idx %lld: %s", node_id(),
              static_cast<long long>(idx), config.Describe().c_str());
  if (config_committed_cb_) {
    config_committed_cb_(node_id(), config, idx);
  }
}

void ReplicatedServer::DrainUnorderedIntoLog() {
  unordered_.Drain([this](std::shared_ptr<const RpcRequest> req) {
    // A parked retransmit of an already-executed write must not re-enter the
    // log: the client either has the reply or will retransmit again and be
    // answered from the session cache.
    if (config_.dedup_enabled && !req->read_only() && sessions_.Executed(req->rid())) {
      return;
    }
    raft_->SubmitRequest(std::move(req));
  });
}

}  // namespace hovercraft
