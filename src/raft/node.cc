#include "src/raft/node.h"

#include <algorithm>
#include <iterator>
#include <utility>

#include "src/common/check.h"
#include "src/common/logging.h"
#include "src/raft/wal_codec.h"

namespace hovercraft {

RaftNode::RaftNode(uint64_t seed, const RaftOptions& options, Env* env, StableStorage* storage,
                   UnorderedStore* unordered, obs::FlightRecorder* recorder)
    : options_(options),
      env_(env),
      unordered_(unordered),
      recorder_(recorder),
      rng_(seed),
      storage_(storage),
      peers_(static_cast<size_t>(options.cluster_size)),
      scheduler_(options.cluster_size, options.id, options.replier_policy,
                 options.bounded_queue_depth, seed ^ 0x5EED5EED5EED5EEDull) {
  HC_CHECK(env != nullptr);
  HC_CHECK(storage != nullptr);
  HC_CHECK(unordered != nullptr);
  HC_CHECK_GE(options.id, 0);
  HC_CHECK_LT(options.id, options.cluster_size);
  // cluster_size is the node universe; the initial voter set may be a prefix
  // of it, leaving the rest as passive spares until AddServer brings them in.
  configs_.emplace_back(LogIndex{0}, MakeInitialConfig(options_.InitialVoterCount()));
}

void RaftNode::Start() {
  // Both check CanCampaign: a spare waits for a committed config to add it.
  if (active_config().voters.size() == 1) {
    StartElection();
  } else {
    ArmElectionTimer();
  }
}

void RaftNode::Record(obs::FrType type, uint64_t a, uint64_t b, uint32_t c) const {
  if (recorder_ != nullptr) {
    recorder_->Record(env_->Now(), options_.obs_id(), type, a, b, c);
  }
}

// ---------------------------------------------------------------------------
// Timers
// ---------------------------------------------------------------------------

void RaftNode::Halt() {
  halted_ = true;
  // Fence every deferred persist completion scheduled before the crash: a
  // killed process must never acknowledge entries from the grave, even if it
  // later restarts with its memory image intact (Resume). The leader simply
  // retransmits and gets a fresh ack.
  ++restart_epoch_;
}

void RaftNode::Resume() {
  if (!halted_) {
    return;
  }
  halted_ = false;
  // A restarted process comes back as a follower with its persistent state
  // (term, vote, log) intact; volatile leadership is abandoned.
  if (role_ != RaftRole::kFollower) {
    BecomeFollower(current_term_, /*reset_vote=*/false);
  } else {
    ArmElectionTimer();
  }
}

bool RaftNode::CanCampaign() const {
  // A suspect node (its recovery discarded durable bytes) may vote but must
  // not campaign: with part of its acknowledged log missing it could win an
  // election and un-commit data a client saw completed. It becomes eligible
  // again once its commit index covers everything it may ever have acked
  // (MaybeClearSuspect), repaired through the ordinary append/snapshot path.
  return !halted_ && !retired_ && !suspect_ && active_config().IsVoter(options_.id);
}

// ---------------------------------------------------------------------------
// Durable storage plumbing (docs/durability.md)
// ---------------------------------------------------------------------------

void RaftNode::PersistHardState() {
  if (current_term_ == persisted_term_ && voted_for_ == persisted_vote_) {
    return;
  }
  persisted_term_ = current_term_;
  persisted_vote_ = voted_for_;
  storage_->PersistHardState(current_term_, voted_for_);
}

void RaftNode::StorageAppendEntry(LogIndex idx, const MembershipConfig* config) {
  const LogEntry& e = log_.At(idx);
  storage_->AppendEntry(idx, e.term, e.replier, EncodeWalEntry(e, config));
}

void RaftNode::ScheduleDurability(LogIndex tail) {
  if (tail <= durable_index_) {
    return;
  }
  // The completion fence: the callback is only meaningful while the process
  // incarnation that scheduled it is still running (epoch) and the log still
  // holds the same entry at `tail` (term — a conflicting truncation replaces
  // it with an entry of a different term, never the same one).
  const uint64_t epoch = restart_epoch_;
  const Term tail_term = log_.TermAt(tail);
  const TimeNs scheduled = env_->Now();
  storage_->Sync([this, tail, tail_term, epoch, scheduled]() {
    if (halted_ || epoch != restart_epoch_) {
      ++stats_.acks_dropped_crash;
      return;
    }
    if (tail <= durable_index_) {
      return;
    }
    if (tail > log_.last_index() ||
        (tail >= log_.first_index() && log_.TermAt(tail) != tail_term)) {
      return;  // truncated or replaced since the barrier was scheduled
    }
    durable_index_ = tail;
    Record(obs::FrType::kDurable, tail, epoch);
    Record(obs::FrType::kWalFlush, tail, static_cast<uint64_t>(env_->Now() - scheduled));
    if (role_ == RaftRole::kLeader) {
      // The leader's own quorum contribution just advanced.
      AdvanceCommitFromMatches();
    }
  });
}

void RaftNode::MaybeClearSuspect() {
  if (!suspect_ || commit_idx_ < suspect_floor_) {
    return;
  }
  suspect_ = false;
  ++stats_.suspect_repaired;
  HC_LOG_INFO("node %d: suspect repaired (commit %llu >= floor %llu); campaigning re-enabled",
              options_.id, static_cast<unsigned long long>(commit_idx_),
              static_cast<unsigned long long>(suspect_floor_));
  Record(obs::FrType::kRecovery, static_cast<uint64_t>(obs::FrRecovery::kSuspectRepair),
         commit_idx_);
  if (role_ == RaftRole::kFollower && !election_armed_ && CanCampaign()) {
    ArmElectionTimer();
  }
}

void RaftNode::RestartFromRecovery(const StableStorage::Recovery& rec, LogIndex applied,
                                   MembershipConfigPtr snap_config,
                                   LogIndex snap_config_idx) {
  ++restart_epoch_;
  current_term_ = rec.term;
  voted_for_ = rec.voted_for;
  persisted_term_ = rec.term;
  persisted_vote_ = rec.voted_for;
  log_.ResetTo(rec.base_index, rec.base_term);
  // Rebuild the config stack from durable sources only: the snapshot's
  // embedded config (or the construction-time initial config) as the base,
  // plus config entries found in the recovered log suffix.
  configs_.clear();
  if (snap_config != nullptr) {
    configs_.emplace_back(snap_config_idx, std::move(snap_config));
  } else {
    configs_.emplace_back(LogIndex{0}, MakeInitialConfig(options_.InitialVoterCount()));
  }
  std::vector<std::pair<LogIndex, MembershipConfigPtr>> below_base;
  for (const StableStorage::RecoveredEntry& re : rec.entries) {
    LogEntry entry;
    entry.term = re.term;
    entry.replier = re.replier;
    MembershipConfigPtr config;
    const bool ok = DecodeWalEntry(re.payload, &entry, &config);
    HC_CHECK(ok);  // the record passed its CRC; the payload must parse
    const LogIndex idx = log_.Append(std::move(entry));
    HC_CHECK_EQ(idx, re.idx);
    if (config != nullptr && idx > configs_.back().first) {
      configs_.emplace_back(idx, std::move(config));
    } else if (config != nullptr && idx < configs_.front().first) {
      below_base.emplace_back(idx, std::move(config));
    }
  }
  // Config entries the recovered log still holds below the snapshot's config
  // are superseded by it, but ConfigAt must still answer for them: a leader
  // ships them to a follower lagging that far.
  const LogIndex base_config_idx = configs_.front().first;
  configs_.insert(configs_.begin(), std::make_move_iterator(below_base.begin()),
                  std::make_move_iterator(below_base.end()));
  role_ = RaftRole::kFollower;
  leader_hint_ = kInvalidNode;
  votes_ = 0;
  AbandonPreVote();
  // Everything that survived recovery is durable by construction; commit and
  // applied resume at the server's restored snapshot point and re-advance as
  // the leader confirms (commit is volatile in Raft).
  durable_index_ = log_.last_index();
  applied_idx_ = std::min(applied, log_.last_index());
  commit_idx_ = applied_idx_;
  announced_idx_ = log_.last_index();
  committed_config_idx_ = base_config_idx;
  pending_ae_.reset();
  recovery_inflight_.clear();
  suspect_ = rec.suspect;
  suspect_floor_ = rec.suspect_floor;
  if (suspect_) {
    HC_LOG_INFO("node %d: suspect recovery; campaigning blocked until commit >= %llu",
                options_.id, static_cast<unsigned long long>(suspect_floor_));
  }
  Record(obs::FrType::kRecovery, static_cast<uint64_t>(obs::FrRecovery::kRestart), commit_idx_);
  if (suspect_) {
    Record(obs::FrType::kRecovery, static_cast<uint64_t>(obs::FrRecovery::kSuspectEnter),
           suspect_floor_);
  }
  MaybeClearSuspect();
}

void RaftNode::ArmElectionTimer() {
  // Re-arming replaces the pending timer outright (election timeouts re-arm
  // on every leader contact, so dead timers would otherwise pile up for the
  // full 5-10ms timeout span). The RNG draw stays one-per-arm, exactly as
  // under the epoch scheme, so pinned-seed runs are unchanged.
  if (!CanCampaign()) {
    // Learners, spares, retired and suspect nodes never campaign; the guard
    // sits before the RNG draw, which is fine for determinism because it can
    // only trigger on runs that changed membership or recovered from faults.
    if (suspect_) {
      ++stats_.campaigns_blocked_suspect;
    }
    CancelElectionTimer();
    return;
  }
  const TimeNs span = options_.election_timeout_max - options_.election_timeout_min;
  TimeNs delay =
      options_.election_timeout_min +
      (span > 0 ? static_cast<TimeNs>(rng_.NextBelow(static_cast<uint64_t>(span))) : 0);
  if (election_timer_scale_ != 1.0) {
    // Timer-manipulation attack hook: the scale is applied after the draw, so
    // the RNG sequence is byte-identical to an unskewed run.
    delay = std::max<TimeNs>(static_cast<TimeNs>(static_cast<double>(delay) *
                                                 election_timer_scale_),
                             Micros(10));
  }
  env_->ArmTimer(RaftTimer::kElection, delay);
  election_armed_ = true;
}

void RaftNode::CancelElectionTimer() {
  env_->CancelTimer(RaftTimer::kElection);
  election_armed_ = false;
}

void RaftNode::OnTimer(RaftTimer timer) {
  if (timer == RaftTimer::kElection) {
    election_armed_ = false;
  }
  if (halted_) {
    return;
  }
  if (timer == RaftTimer::kElection && role_ != RaftRole::kLeader) {
    // With PreVote the timeout starts a non-disruptive poll; a majority of
    // pre-votes then runs the real election synchronously.
    if (options_.pre_vote) {
      StartPreVote();
    } else {
      StartElection();
    }
  } else if (timer == RaftTimer::kHeartbeat && role_ == RaftRole::kLeader) {
    OnHeartbeat();
    // A CheckQuorum step-down inside OnHeartbeat cancelled the timer.
    if (role_ == RaftRole::kLeader) {
      env_->ArmTimer(RaftTimer::kHeartbeat, options_.heartbeat_interval);
    }
  }
}

void RaftNode::SkewElectionTimer(double scale) {
  HC_CHECK_GT(scale, 0.0);
  election_timer_scale_ = scale;
  // Re-arm so the skew takes effect now rather than after the pending (full
  // length) timeout expires. Costs one RNG draw, like any other re-arm.
  if (role_ != RaftRole::kLeader && election_armed_) {
    ArmElectionTimer();
  }
}

void RaftNode::OnHeartbeat() {
  // A heartbeat acts only on peers whose stream has been quiet for a full
  // interval: an actively flowing (pipelined) stream is its own liveness
  // signal, and rewinding it would retransmit the whole in-flight window.
  const TimeNs quiet_before = env_->Now() - options_.heartbeat_interval;
  for (NodeId p : active_config().members) {
    if (p == options_.id) {
      continue;
    }
    if (peers_[static_cast<size_t>(p)].last_send > quiet_before) {
      continue;
    }
    MaybeSendAppend(p, /*heartbeat=*/true);
  }
  if (options_.use_aggregator) {
    if (agg_active_) {
      if (agg_stream_.last_send <= quiet_before) {
        MaybeSendAggAppend(/*heartbeat=*/true);
      }
    } else if (!ConfigChangeInFlight()) {
      // The aggregator may have (re)appeared; re-probe it. While a config
      // change is in flight the fan-in stays point-to-point: a quorum counted
      // under the wrong voter set must never advance the commit index.
      env_->SendToAggregator(MakeMessage<AggVoteReq>(current_term_, committed_config_idx_));
    }
  }
  if (options_.check_quorum || options_.read_index) {
    // The aggregator fan-in hides follower replies from the leader, so
    // CheckQuorum and the read lease would starve for evidence in ++ mode.
    // Probe quiet voters with direct, stream-neutral heartbeat appends; the
    // direct replies refresh last_response without disturbing the stream.
    if (options_.use_aggregator && agg_active_) {
      const TimeNs now = env_->Now();
      if (now - last_agg_commit_ >= CheckQuorumWindow()) {
        // The probes keep proving followers alive, yet the aggregator has
        // gone silent (a healthy one emits AGG_COMMIT every heartbeat): it
        // died. Fall back to direct replication without deposing ourselves —
        // before the probes existed, recovery required the followers to time
        // out and elect a new leader. The heartbeat re-probes the aggregator
        // and restores the switch fan-out when it comes back.
        ++stats_.agg_fallbacks;
        HC_LOG_INFO("node %d: aggregator silent; falling back to direct replication",
                    options_.id);
        if (recorder_ != nullptr) {
          recorder_->Note(env_->Now(), options_.obs_id(), "agg-fallback", current_term_);
        }
        UseDirectStreams();
        TrySendAll();
      } else {
        for (NodeId p : active_config().voters) {
          if (p == options_.id) {
            continue;
          }
          PeerState& st = peers_[static_cast<size_t>(p)];
          if (st.direct_mode) {
            continue;  // direct appends already elicit direct replies
          }
          if (now - st.last_response >= CheckQuorumWindow() / 2 &&
              now - st.last_probe >= options_.heartbeat_interval) {
            SendQuorumProbe(p);
          }
        }
      }
    }
    if (options_.check_quorum) {
      MaybeStepDownWithoutQuorum();
    }
  }
}

void RaftNode::SendQuorumProbe(NodeId peer) {
  PeerState& st = peers_[static_cast<size_t>(peer)];
  st.last_probe = env_->Now();
  // Anchor the consistency check at the last agreed position: the follower
  // answers success without touching its log, and the monotone max() updates
  // on the reply path leave the aggregator-owned stream state intact. A
  // follower that has diverged answers failure, which flips it to the direct
  // repair path — exactly what a real heartbeat would do.
  const LogIndex prev = std::max(st.match_idx, log_.first_index() - 1);
  ++stats_.ae_sent;
  env_->SendToPeer(peer,
                   MakeMessage<AppendEntriesReq>(current_term_, options_.id, prev,
                                                 log_.TermAt(prev), commit_idx_,
                                                 std::vector<WireEntry>{}));
}

void RaftNode::MaybeStepDownWithoutQuorum() {
  if (role_ != RaftRole::kLeader) {
    return;
  }
  if (QuorumContactedSince(env_->Now() - CheckQuorumWindow())) {
    return;
  }
  ++stats_.stepdowns_check_quorum;
  HC_LOG_INFO("node %d: no quorum contact within election timeout; stepping down",
              options_.id);
  BecomeFollower(current_term_, false);
}

bool RaftNode::QuorumContactedSince(TimeNs floor) const {
  int32_t contacted = 0;
  for (NodeId p : active_config().voters) {
    if (p == options_.id) {
      ++contacted;  // a node always reaches itself
      continue;
    }
    const PeerState& st = peers_[static_cast<size_t>(p)];
    if (st.last_response > 0 && st.last_response >= floor) {
      ++contacted;
    }
  }
  return contacted >= active_config().majority();
}

// ---------------------------------------------------------------------------
// Role transitions
// ---------------------------------------------------------------------------

void RaftNode::BecomeFollower(Term term, bool reset_vote) {
  const bool was_leader = (role_ == RaftRole::kLeader);
  if (term > current_term_) {
    current_term_ = term;
    voted_for_ = kInvalidNode;
  } else if (reset_vote) {
    voted_for_ = kInvalidNode;
  }
  PersistHardState();
  AbandonPreVote();
  role_ = RaftRole::kFollower;
  agg_active_ = false;
  env_->CancelTimer(RaftTimer::kHeartbeat);
  if (was_leader) {
    env_->OnLeadershipChanged(false);
  }
  Record(obs::FrType::kRole, current_term_, static_cast<uint64_t>(obs::FrRole::kFollower), suspect_);
  ArmElectionTimer();
}

void RaftNode::StartPreVote() {
  if (!CanCampaign()) {
    return;
  }
  ++stats_.prevote_rounds;
  pre_vote_active_ = true;
  pre_vote_term_ = current_term_ + 1;
  pre_votes_ = 1;  // our own pre-vote
  HC_LOG_INFO("node %d starts pre-vote poll for term %llu", options_.id,
              static_cast<unsigned long long>(pre_vote_term_));
  Record(obs::FrType::kRole, pre_vote_term_, static_cast<uint64_t>(obs::FrRole::kPreCandidate), suspect_);
  // Retry the poll on silence. This is the cycle's only RNG draw: a winning
  // poll enters StartElection with this timer still armed and draws nothing,
  // so the draw order matches a non-PreVote run arm for arm.
  ArmElectionTimer();
  if (pre_votes_ >= active_config().majority()) {
    StartElection();  // single-voter group
    return;
  }
  RequestVotes(pre_vote_term_, /*pre_vote=*/true);
}

void RaftNode::RequestVotes(Term term, bool pre_vote) {
  auto req = MakeMessage<RequestVoteReq>(term, options_.id, log_.last_index(), log_.last_term(),
                                         pre_vote);
  for (NodeId p : active_config().voters) {
    if (p != options_.id) {
      env_->SendToPeer(p, req);
    }
  }
}

void RaftNode::AbandonPreVote() {
  pre_vote_active_ = false;
  pre_vote_term_ = 0;
  pre_votes_ = 0;
}

void RaftNode::StartElection() {
  if (!CanCampaign()) {
    return;
  }
  // Entered from a winning pre-vote poll: its retry timer (armed at poll
  // start) keeps covering this election, so don't draw a second timeout.
  const bool timer_covered = pre_vote_active_;
  AbandonPreVote();
  ++stats_.elections_started;
  role_ = RaftRole::kCandidate;
  ++current_term_;
  voted_for_ = options_.id;
  PersistHardState();  // the self-vote must survive a crash
  votes_ = 1;
  leader_hint_ = kInvalidNode;
  HC_LOG_INFO("node %d starts election for term %llu", options_.id,
              static_cast<unsigned long long>(current_term_));
  Record(obs::FrType::kRole, current_term_, static_cast<uint64_t>(obs::FrRole::kCandidate), suspect_);
  if (!timer_covered) {
    ArmElectionTimer();  // retry on split vote
  }
  if (votes_ >= active_config().majority()) {
    BecomeLeader();
    return;
  }
  RequestVotes(current_term_, /*pre_vote=*/false);
}

void RaftNode::BecomeLeader() {
  HC_CHECK(role_ != RaftRole::kLeader);
  AbandonPreVote();
  role_ = RaftRole::kLeader;
  leader_hint_ = options_.id;
  ++stats_.times_leader;
  HC_LOG_INFO("node %d becomes leader of term %llu", options_.id,
              static_cast<unsigned long long>(current_term_));
  Record(obs::FrType::kRole, current_term_, static_cast<uint64_t>(obs::FrRole::kLeader), suspect_);

  for (PeerState& st : peers_) {
    st = PeerState{};
    st.next_idx = log_.last_index() + 1;
    // Until the aggregator handshake completes, replicate point-to-point.
    st.direct_mode = options_.use_aggregator;
    // CheckQuorum grace period: a fresh leader gets one full window to
    // gather real responses before the quorum check may fire. Reads stay
    // gated separately by the current-term commit requirement.
    st.last_response = env_->Now();
  }
  lease_floor_ = env_->Now();
  agg_active_ = false;
  agg_stream_ = Stream{.next_idx = log_.last_index() + 1};

  scheduler_.Reset();
  scheduler_.SetMembers(active_config().voters);
  scheduler_.UpdateApplied(options_.id, applied_idx_);
  // Restart the learner catch-up clocks: progress observed by the old leader
  // is unknown here.
  learner_since_.clear();
  for (NodeId l : active_config().learners) {
    learner_since_.emplace(l, env_->Now());
  }
  // Entries inherited from previous terms were already announced by their
  // leader (their replier field is immutable and replicated); announcement
  // resumes from the tail.
  announced_idx_ = log_.last_index();

  CancelElectionTimer();
  env_->ArmTimer(RaftTimer::kHeartbeat, options_.heartbeat_interval);

  // Append a no-op entry, so entries from previous terms commit promptly
  // (Raft section 8 requirement).
  LogEntry noop;
  noop.term = current_term_;
  noop.noop = true;
  noop.replier = options_.id;
  const LogIndex idx = log_.Append(std::move(noop));
  ++stats_.entries_appended;
  StorageAppendEntry(idx);
  ScheduleDurability(idx);
  if (!options_.assign_repliers) {
    announced_idx_ = idx;
  }

  env_->OnLeadershipChanged(true);
  // Re-order client requests orphaned by the previous leader (section 5).
  env_->DrainUnorderedIntoLog();

  if (options_.use_aggregator && !ConfigChangeInFlight()) {
    env_->SendToAggregator(MakeMessage<AggVoteReq>(current_term_, committed_config_idx_));
  }

  TryAnnounce();
  TrySendAll();
}

// ---------------------------------------------------------------------------
// Client requests (leader)
// ---------------------------------------------------------------------------

bool RaftNode::SubmitRequest(std::shared_ptr<const RpcRequest> request, bool allow_duplicate) {
  HC_CHECK(request != nullptr);
  if (role_ != RaftRole::kLeader) {
    ++stats_.submits_rejected;
    return false;
  }
  if (!allow_duplicate && log_.FindRequest(request->rid()) != kNoLogIndex) {
    ++stats_.submits_rejected;
    return false;  // duplicate (e.g. unordered drain raced with an old entry)
  }
  const RequestId rid = request->rid();
  LogEntry entry;
  entry.term = current_term_;
  entry.read_only = request->read_only();
  entry.rid = rid;
  entry.ack_watermark = request->ack_watermark();
  if (options_.metadata_only) {
    entry.body_hash = HashRequestBody(*request);
  }
  entry.request = std::move(request);
  if (!options_.assign_repliers) {
    entry.replier = options_.id;
  }
  const LogIndex idx = log_.Append(std::move(entry));
  ++stats_.entries_appended;
  StorageAppendEntry(idx);
  ScheduleDurability(idx);
  obs::MarkStage(recorder_, rid, obs::Stage::kOrdered, options_.obs_id(), env_->Now());
  if (!options_.assign_repliers) {
    announced_idx_ = idx;
  }
  TryAnnounce();
  TrySendAll();
  return true;
}

RaftNode::ReadGrant RaftNode::AcquireReadIndex() {
  ReadGrant grant;
  if (!options_.read_index || role_ != RaftRole::kLeader) {
    ++stats_.read_index_rejected;
    return grant;
  }
  // A new leader's commit index is only known-current once it has committed
  // an entry of its own term (Raft section 8); the leader no-op provides one
  // within a round-trip of election.
  if (log_.TermAt(commit_idx_) != current_term_) {
    ++stats_.read_index_rejected;
    return grant;
  }
  // Leader lease: a quorum of the active config's voters must have responded
  // inside the lease window, and after the last config commit / role change —
  // a quorum counted under an older voter set or term proves nothing.
  const TimeNs window = options_.read_lease_timeout > 0 ? options_.read_lease_timeout
                                                        : options_.election_timeout_min;
  if (!QuorumContactedSince(std::max(env_->Now() - window, lease_floor_))) {
    // The lease lapsed: no quorum contact inside the window, so serving the
    // read locally could race a newer leader. Refuse and let the server fall
    // back to the commit path.
    ++stats_.read_index_rejected;
    Record(obs::FrType::kLeaseExpire, stats_.read_index_rejected, 0,
           static_cast<uint32_t>(current_term_));
    return grant;
  }
  ++stats_.read_index_served;
  grant.granted = true;
  grant.read_index = commit_idx_;
  grant.replier = options_.id;
  if (options_.assign_repliers) {
    // Round-robin over voters already caught up to the read index, so a
    // forwarded grant is servable on arrival. This deliberately bypasses the
    // JBSQ scheduler: its bounded-queue accounting is repaid by log applies,
    // which ReadIndex traffic never generates. Self is always eligible (the
    // server layer queues the read until applied catches up), so selection
    // terminates.
    const auto& voters = active_config().voters;
    for (size_t i = 0; i < voters.size(); ++i) {
      const NodeId p = voters[(read_replier_rr_ + i) % voters.size()];
      if (p == options_.id ||
          AppliedOf(peers_[static_cast<size_t>(p)].progress) >= grant.read_index) {
        grant.replier = p;
        read_replier_rr_ = (read_replier_rr_ + i + 1) % voters.size();
        break;
      }
    }
  }
  Record(obs::FrType::kLeaseGrant, grant.read_index, static_cast<uint64_t>(grant.replier),
         static_cast<uint32_t>(current_term_));
  return grant;
}

// ---------------------------------------------------------------------------
// Membership changes (dissertation section 4, single-server at a time)
// ---------------------------------------------------------------------------

bool RaftNode::StartAddServer(NodeId node) {
  if (role_ != RaftRole::kLeader || ConfigChangeInFlight()) {
    return false;
  }
  if (node < 0 || node >= options_.cluster_size || node == options_.id) {
    return false;
  }
  if (active_config().IsMember(node)) {
    return false;
  }
  // Forget any replication state from a previous stint in the cluster; the
  // learner is (re)discovered from the log tail, backing off to a snapshot
  // when its log is too far behind.
  PeerState& st = peers_[static_cast<size_t>(node)];
  st = PeerState{};
  st.next_idx = log_.last_index() + 1;
  st.direct_mode = options_.use_aggregator;
  // Catch-up starts now, not at commit: the learner config is effective on
  // append, so the snapshot/stream repair overlaps the change's own
  // replication (and often finishes before it commits).
  learner_since_[node] = env_->Now();
  return AppendConfigEntry(WithLearner(active_config(), node));
}

bool RaftNode::StartRemoveServer(NodeId node) {
  if (role_ != RaftRole::kLeader || ConfigChangeInFlight()) {
    return false;
  }
  if (!active_config().IsMember(node)) {
    return false;
  }
  MembershipConfigPtr next = WithRemoved(active_config(), node);
  if (next->voters.empty()) {
    return false;  // never remove the last voter
  }
  if (active_config().IsLearner(node)) {
    learner_since_.erase(node);
  }
  return AppendConfigEntry(std::move(next));
}

bool RaftNode::AppendConfigEntry(MembershipConfigPtr config) {
  HC_CHECK(role_ == RaftRole::kLeader);
  HC_CHECK(config != nullptr);
  LogEntry entry;
  entry.term = current_term_;
  entry.noop = true;  // configs are no-ops on the apply path
  entry.replier = options_.id;
  const LogIndex idx = log_.Append(std::move(entry));
  ++stats_.entries_appended;
  StorageAppendEntry(idx, config.get());
  ++stats_.config_changes_proposed;
  HC_LOG_INFO("node %d proposes config %s at idx %llu", options_.id,
              config->Describe().c_str(), static_cast<unsigned long long>(idx));
  if (recorder_ != nullptr) {
    recorder_->Note(env_->Now(), options_.obs_id(), "config-proposed " + config->Describe(), idx);
  }
  TrackConfig(idx, std::move(config));
  // Tracked first: on a zero-latency disk a lone voter commits the entry, and
  // may promote a learner, inside ScheduleDurability.
  ScheduleDurability(idx);
  // The change replicates point-to-point: the aggregator's quorum register is
  // still sized to the old voter set, and an AGG_COMMIT computed under it
  // must not commit entries at or beyond the config boundary. The heartbeat
  // re-probes the aggregator once the change commits.
  if (options_.use_aggregator) {
    UseDirectStreams();
  }
  if (!options_.assign_repliers) {
    announced_idx_ = idx;
  }
  TryAnnounce();
  TrySendAll();
  return true;
}

void RaftNode::TrackConfig(LogIndex idx, MembershipConfigPtr config) {
  HC_CHECK(config != nullptr);
  HC_CHECK_GT(idx, configs_.back().first);
  configs_.emplace_back(idx, std::move(config));
  ReconcileRoleWithConfig();
}

const MembershipConfigPtr& RaftNode::ConfigAt(LogIndex idx) const {
  static const MembershipConfigPtr kNone;
  const auto it = std::lower_bound(configs_.begin(), configs_.end(), idx,
                                   [](const auto& c, LogIndex i) { return c.first < i; });
  return it != configs_.end() && it->first == idx ? it->second : kNone;
}

void RaftNode::RollbackConfigsAbove(LogIndex idx) {
  bool changed = false;
  while (configs_.size() > 1 && configs_.back().first >= idx) {
    // A truncated config entry was never committed (committed entries are
    // never truncated); the previous config becomes active again.
    configs_.pop_back();
    ++stats_.config_changes_aborted;
    changed = true;
  }
  if (changed) {
    ReconcileRoleWithConfig();
  }
}

void RaftNode::ReconcileRoleWithConfig() {
  scheduler_.SetMembers(active_config().voters);
  if (active_config().IsMember(options_.id)) {
    retired_ = false;
  }
  if (role_ == RaftRole::kLeader) {
    // A leader that is no longer a voter keeps leading until the removal
    // entry commits (dissertation section 4.2.2), then steps down in
    // SetCommit.
    return;
  }
  if (CanCampaign()) {
    if (!election_armed_) {
      ArmElectionTimer();
    }
  } else {
    CancelElectionTimer();
    if (role_ == RaftRole::kCandidate) {
      role_ = RaftRole::kFollower;
    }
  }
}

void RaftNode::MaybePromoteLearners() {
  if (role_ != RaftRole::kLeader || ConfigChangeInFlight()) {
    return;
  }
  const MembershipConfig& cfg = active_config();
  // Caught up means within one append batch of the *replication frontier*:
  // with replier assignment the streams only carry announced entries, and a
  // saturated cluster keeps an admitted-but-unannounced backlog far larger
  // than one batch. Measuring against the raw log tail would then deadlock —
  // promotion needs catch-up, catch-up is capped at the frontier, and the
  // frontier only advances once promotion adds replier capacity. A learner
  // matched to the frontier holds everything any voter can hold, so the
  // promotion entry reaches it in the same round-trip and it weighs on
  // quorums no later than a healthy voter would.
  const LogIndex frontier = ReplicationLimit();
  for (NodeId learner : cfg.learners) {
    const PeerState& st = peers_[static_cast<size_t>(learner)];
    // Its applied index also counts: once the aggregator stream covers the
    // learner its replies bypass the leader and match_idx freezes, but
    // AGG_COMMIT keeps reporting apply progress (never beyond what it holds).
    const LogIndex progress = std::max(st.match_idx, AppliedOf(st.progress));
    if (progress + options_.max_entries_per_ae < frontier) {
      continue;
    }
    ++stats_.learners_promoted;
    auto it = learner_since_.find(learner);
    if (it != learner_since_.end()) {
      stats_.learner_catchup_ns_total += static_cast<uint64_t>(env_->Now() - it->second);
      learner_since_.erase(it);
    }
    HC_LOG_INFO("node %d promotes learner %d", options_.id, learner);
    AppendConfigEntry(WithPromoted(cfg, learner));
    return;  // one config change in flight at a time
  }
}

void RaftNode::Retire() {
  if (retired_) {
    return;
  }
  // Management plane: the caller observed a committed config that excludes
  // this node. Our own log may not have learned that (removal can commit
  // while we are partitioned away), so retirement does not consult the local
  // config; a later committed config that re-adds us clears it
  // (ReconcileRoleWithConfig).
  retired_ = true;
  if (role_ == RaftRole::kLeader) {
    BecomeFollower(current_term_, false);
  } else {
    role_ = RaftRole::kFollower;
    CancelElectionTimer();
  }
}

// ---------------------------------------------------------------------------
// Replier announcement (HovercRaft sections 3.3-3.6)
// ---------------------------------------------------------------------------

void RaftNode::TryAnnounce() {
  if (role_ != RaftRole::kLeader || !options_.assign_repliers) {
    return;
  }
  bool changed = false;
  while (announced_idx_ < log_.last_index()) {
    const LogIndex idx = announced_idx_ + 1;
    LogEntry& entry = log_.At(idx);
    if (entry.noop) {
      entry.replier = options_.id;
      storage_->AppendAnnounce(idx, entry.replier);
      announced_idx_ = idx;
      changed = true;
      continue;
    }
    const NodeId replier = scheduler_.Assign(idx);
    if (replier == kInvalidNode) {
      // No eligible node under the bounded-queue invariant; retry when
      // applied indices advance (never blocks liveness, section 3.4).
      break;
    }
    entry.replier = replier;
    // Record the assignment so a restarted leader keeps it immutable; the
    // record rides on the next data barrier (an unsynced loss is benign —
    // the entries themselves replicate with the replier field).
    storage_->AppendAnnounce(idx, replier);
    announced_idx_ = idx;
    changed = true;
    obs::MarkStage(recorder_, entry.rid, obs::Stage::kDispatched,
                   options_.obs_node_base + replier, env_->Now());
  }
  if (changed) {
    TrySendAll();
  }
}

LogIndex RaftNode::ReplicationLimit() const {
  return options_.assign_repliers ? announced_idx_ : log_.last_index();
}

// ---------------------------------------------------------------------------
// Leader replication
// ---------------------------------------------------------------------------

std::vector<WireEntry> RaftNode::CollectEntries(LogIndex from, LogIndex to) const {
  std::vector<WireEntry> out;
  if (to < from) {
    return out;
  }
  out.reserve(static_cast<size_t>(to - from + 1));
  for (LogIndex idx = from; idx <= to; ++idx) {
    const LogEntry& e = log_.At(idx);
    WireEntry w;
    w.term = e.term;
    w.noop = e.noop;
    w.read_only = e.read_only;
    w.replier = e.replier;
    w.rid = e.rid;
    w.body_hash = e.body_hash;
    w.ack_watermark = e.ack_watermark;
    w.config = ConfigAt(idx);
    if (!options_.metadata_only) {
      // VanillaRaft ships the request payload inside append_entries.
      w.request = e.request;
      w.carries_payload = true;
    }
    out.push_back(std::move(w));
  }
  return out;
}

void RaftNode::TrySendAll() {
  if (role_ != RaftRole::kLeader) {
    return;
  }
  for (NodeId p : active_config().members) {
    if (p != options_.id) {
      MaybeSendAppend(p, /*heartbeat=*/false);
    }
  }
  MaybeSendAggAppend(/*heartbeat=*/false);
}

void RaftNode::UseDirectStreams() {
  agg_active_ = false;
  agg_stream_.inflight = 0;
  for (PeerState& st : peers_) {
    st.direct_mode = true;
  }
}

void RaftNode::MaybeSendAppend(NodeId peer, bool heartbeat) {
  if (role_ != RaftRole::kLeader) {
    return;
  }
  PeerState& st = peers_[static_cast<size_t>(peer)];
  if (options_.use_aggregator && agg_active_ && !st.direct_mode &&
      st.commit_acked >= committed_config_idx_) {
    // This follower is served by the aggregator's multicast. The commit-ack
    // gate keeps direct commit-carrying appends flowing to any peer that has
    // not yet observed the committed config: such a peer discards the new
    // epoch's AGG_COMMITs and would otherwise never learn the commit index.
    // With static membership committed_config_idx_ is 0 and the gate is
    // always open.
    return;
  }
  if (heartbeat && st.inflight > 0) {
    // Retransmission: a reply was lost; rewind to the last acknowledged
    // position and resend.
    st.next_idx = st.match_idx + 1;
    st.inflight = 0;
  }
  if (st.next_idx < log_.first_index()) {
    // The entries this follower needs are compacted away: repair it with a
    // state transfer instead (InstallSnapshot).
    if (heartbeat) {
      st.snapshot_inflight = false;  // retransmit a possibly-lost snapshot
    }
    if (!st.snapshot_inflight) {
      SendSnapshot(peer);
    }
    return;
  }
  if (!heartbeat && st.paused_recovery) {
    return;
  }
  if (MessagePtr msg = NextAppend(st, heartbeat, /*allow_commit_only=*/true)) {
    env_->SendToPeer(peer, std::move(msg));
  }
}

void RaftNode::MaybeSendAggAppend(bool heartbeat) {
  if (role_ != RaftRole::kLeader || !options_.use_aggregator || !agg_active_) {
    return;
  }
  // Compaction can overtake the aggregator stream when followers progressed
  // through the direct path: anything below the compaction point has been
  // applied cluster-wide, so the stream can skip ahead safely.
  agg_stream_.next_idx = std::max(agg_stream_.next_idx, log_.first_index());
  if (heartbeat && agg_stream_.inflight > 0) {
    // Possible loss in the aggregation path; rewind to the last index the
    // aggregator confirmed (the commit index it announced).
    agg_stream_.next_idx = std::max(commit_idx_ + 1, log_.first_index());
    agg_stream_.inflight = 0;
  }
  // Unlike the direct streams, the aggregator path never sends commit-only
  // append_entries: AGG_COMMIT already tells every node the commit index,
  // and echoing it back would create an AE <-> AGG_COMMIT ping-pong that
  // floods the followers (and defeats the pipelining cap, since every
  // AGG_COMMIT frees the in-flight slots).
  if (MessagePtr msg = NextAppend(agg_stream_, heartbeat, /*allow_commit_only=*/false)) {
    env_->SendToAggregator(std::move(msg));
  }
}

MessagePtr RaftNode::NextAppend(Stream& stream, bool heartbeat, bool allow_commit_only) {
  if (!heartbeat && stream.inflight >= options_.max_outstanding_ae) {
    return nullptr;
  }
  const LogIndex end =
      std::min(ReplicationLimit(), stream.next_idx + options_.max_entries_per_ae - 1);
  const bool has_entries = end >= stream.next_idx;
  if (!heartbeat && !has_entries && !(allow_commit_only && stream.commit_sent < commit_idx_)) {
    return nullptr;
  }
  const LogIndex prev = stream.next_idx - 1;
  auto msg = MakeMessage<AppendEntriesReq>(
      current_term_, options_.id, prev, log_.TermAt(prev), commit_idx_,
      has_entries ? CollectEntries(stream.next_idx, end) : std::vector<WireEntry>{});
  ++stream.inflight;
  stream.commit_sent = commit_idx_;
  stream.last_send = env_->Now();
  if (has_entries) {
    stream.next_idx = end + 1;
  }
  ++stats_.ae_sent;
  return msg;
}

std::pair<LogIndex, MembershipConfigPtr> RaftNode::ConfigCoveringIndex(LogIndex idx) const {
  MembershipConfigPtr config;
  LogIndex config_idx = 0;
  for (const auto& c : configs_) {
    if (c.first <= idx) {
      config_idx = c.first;
      config = c.second;
    }
  }
  if (config_idx == 0) {
    config = nullptr;  // construction-time initial config; peers rebuild it
  }
  return {config_idx, std::move(config)};
}

void RaftNode::SendSnapshot(NodeId peer) {
  PeerState& st = peers_[static_cast<size_t>(peer)];
  Env::SnapshotCapture capture = env_->CaptureSnapshot();
  if (capture.last_included == kNoLogIndex ||
      capture.last_included < log_.first_index() - 1) {
    return;  // nothing coherent to ship yet
  }
  st.snapshot_inflight = true;
  st.last_send = env_->Now();
  ++stats_.snapshots_sent;
  // Ship the latest config covered by the snapshot so a fresh learner whose
  // log starts here still learns the membership. Elided while it is still
  // the construction-time initial config (every node already has that), which
  // keeps the wire image of static-membership runs unchanged.
  auto [snap_config_idx, snap_config] = ConfigCoveringIndex(capture.last_included);
  env_->SendToPeer(peer, MakeMessage<InstallSnapshotReq>(
                             current_term_, options_.id, capture.last_included,
                             log_.TermAt(capture.last_included), std::move(capture.state),
                             std::move(snap_config), snap_config_idx));
}

void RaftNode::OnInstallSnapshot(const InstallSnapshotReq& req) {
  const bool current = AcceptLeader(req.term(), req.leader());
  if (current && req.last_included() > commit_idx_) {
    ++stats_.snapshots_installed;
    bool kept_suffix = false;
    if (log_.Contains(req.last_included()) &&
        log_.TermAt(req.last_included()) == req.included_term()) {
      // Our log already matches through the snapshot point; keep the suffix.
      log_.CompactPrefix(req.last_included());
      kept_suffix = true;
    } else {
      // The discarded suffix takes any configs it introduced with it.
      RollbackConfigsAbove(req.last_included() + 1);
      log_.ResetTo(req.last_included(), req.included_term());
    }
    env_->RestoreSnapshot(req.state(), req.last_included(), req.included_term(), req.config(),
                          req.config_idx());
    // The server persisted the received snapshot in RestoreSnapshot; now
    // the WAL can drop (or cut) everything the snapshot covers. The state
    // transfer is also what repairs a suspect node whose own history was
    // damaged beyond the log.
    if (!kept_suffix) {
      storage_->AppendTruncate(req.last_included() + 1);
    }
    storage_->AppendCompact(req.last_included(), req.included_term());
    const LogIndex durable_before = durable_index_;
    durable_index_ =
        std::min(std::max(durable_index_, req.last_included()), log_.last_index());
    if (durable_index_ < durable_before) {
      Record(obs::FrType::kRecovery, static_cast<uint64_t>(obs::FrRecovery::kTruncate),
             durable_index_);
    }
    commit_idx_ = req.last_included();
    applied_idx_ = std::max(applied_idx_, req.last_included());
    MaybeClearSuspect();
    pending_ae_.reset();
    if (req.config() != nullptr) {
      // The snapshot's config becomes our committed base; config entries in
      // a kept log suffix stay tracked, a discarded suffix takes its configs
      // with it.
      std::vector<std::pair<LogIndex, MembershipConfigPtr>> next;
      next.emplace_back(req.config_idx(), req.config());
      if (kept_suffix) {
        for (const auto& c : configs_) {
          if (c.first > req.last_included()) {
            next.push_back(c);
          }
        }
      }
      configs_ = std::move(next);
      if (req.config_idx() > committed_config_idx_) {
        committed_config_idx_ = req.config_idx();
        ++stats_.config_changes_committed;
        env_->OnConfigCommitted(*req.config(), req.config_idx());
      }
      ReconcileRoleWithConfig();
    }
  }
  env_->SendToPeer(req.leader(),
                   MakeMessage<InstallSnapshotRep>(options_.id, current_term_,
                                                   current ? req.last_included() : LogIndex{0}));
}

void RaftNode::OnInstallSnapshotRep(const InstallSnapshotRep& rep) {
  if (rep.term() > current_term_) {
    BecomeFollower(rep.term(), true);
    return;
  }
  if (role_ != RaftRole::kLeader || rep.term() < current_term_) {
    return;
  }
  PeerState& st = peers_[static_cast<size_t>(rep.from())];
  st.last_response = env_->Now();
  st.snapshot_inflight = false;
  if (rep.last_included() > 0) {
    // It applied through the point, in the epoch its refusal carried to us.
    RecordApplied(rep.from(), ProgressStamp(EpochOf(st.progress), rep.last_included()));
    OnPeerProgress(rep.from(), rep.last_included(), /*waiting_recovery=*/false);
  }
}

void RaftNode::OnPeerProgress(NodeId peer, LogIndex match, bool waiting_recovery) {
  PeerState& st = peers_[static_cast<size_t>(peer)];
  st.match_idx = std::max(st.match_idx, match);
  st.next_idx = std::max(st.next_idx, st.match_idx + 1);
  st.paused_recovery = waiting_recovery;
  if (st.direct_mode && agg_active_ && st.match_idx + 1 >= agg_stream_.next_idx) {
    st.direct_mode = false;  // caught up; the aggregator stream covers it
  }
  AdvanceCommitFromMatches();
  TryAnnounce();
  MaybePromoteLearners();
  if (!st.paused_recovery) {
    MaybeSendAppend(peer, false);
  }
}

void RaftNode::RecordApplied(NodeId peer, uint64_t stamp) {
  PeerState& st = peers_[static_cast<size_t>(peer)];
  if (stamp > st.progress) {
    st.progress = stamp;
    st.last_response = env_->Now();  // fresh progress proves the peer alive
    scheduler_.UpdateApplied(peer, AppliedOf(stamp));
  }
}

void RaftNode::AdvanceCommitFromMatches() {
  if (role_ != RaftRole::kLeader) {
    return;
  }
  // k-th largest match over the active config's voters (self counts with its
  // full log) where k = that config's majority. A leader removing itself is
  // not a voter of the active config and therefore does not count toward the
  // quorum that commits its own removal (dissertation section 4.2.2).
  const MembershipConfig& cfg = active_config();
  // The leader's own contribution is capped at its durable index: an entry
  // only counts toward the commit quorum once it is in the leader's WAL too,
  // or a majority-of-one of crashed-and-recovered nodes could un-commit it.
  // Under kAckBeforeSync (the chaos control) the cap is deliberately absent —
  // that IS the unsafe semantics the control exists to demonstrate.
  const LogIndex self_match =
      storage_->policy() != FsyncPolicy::kAckBeforeSync ? durable_index_ : log_.last_index();
  std::vector<LogIndex> matches;
  matches.reserve(cfg.voters.size());
  for (NodeId p : cfg.voters) {
    matches.push_back(p == options_.id ? self_match
                                       : peers_[static_cast<size_t>(p)].match_idx);
  }
  const int32_t majority = cfg.majority();
  std::nth_element(matches.begin(), matches.begin() + (majority - 1), matches.end(),
                   std::greater<LogIndex>());
  CommitIfCurrentTerm(matches[static_cast<size_t>(majority - 1)]);
}

void RaftNode::CommitIfCurrentTerm(LogIndex idx) {
  // idx > commit implies idx is above the compaction point (base <= applied
  // <= commit), so TermAt is safe to consult.
  if (idx > commit_idx_ && log_.TermAt(idx) == current_term_) {
    SetCommit(idx);
  }
}

void RaftNode::SetCommit(LogIndex commit) {
  HC_CHECK_GE(commit, commit_idx_);
  HC_CHECK_LE(commit, log_.last_index());
  if (commit == commit_idx_) {
    return;
  }
  // Every entry in (commit_idx_, commit] is newly committed; those indices
  // sit above the compaction point (base <= applied <= old commit).
  if (recorder_ != nullptr) {
    for (LogIndex idx = commit_idx_ + 1; idx <= commit; ++idx) {
      const LogEntry& e = log_.At(idx);
      if (!e.noop) {
        obs::MarkStage(recorder_, e.rid, obs::Stage::kCommitted, options_.obs_id(), env_->Now());
      }
      Record(obs::FrType::kCommit, idx, e.term, static_cast<uint32_t>(current_term_));
    }
  }
  commit_idx_ = commit;
  MaybeClearSuspect();

  // Membership configs that just committed: record the epoch, tell the
  // hosting layer (multicast groups, aggregator registers, retirement), and
  // start the learner catch-up clocks.
  if (committed_config_idx_ < active_config_idx()) {
    for (const auto& c : configs_) {
      if (c.first <= committed_config_idx_ || c.first > commit_idx_) {
        continue;
      }
      committed_config_idx_ = c.first;
      ++stats_.config_changes_committed;
      // Read leases do not survive a membership change: a quorum counted
      // under the old voter set proves nothing about the new one.
      lease_floor_ = env_->Now();
      HC_LOG_INFO("node %d: config %s committed at idx %llu", options_.id,
                  c.second->Describe().c_str(), static_cast<unsigned long long>(c.first));
      Record(obs::FrType::kConfig, c.first, c.second->members.size());
      if (role_ == RaftRole::kLeader) {
        for (NodeId l : c.second->learners) {
          learner_since_.emplace(l, env_->Now());
        }
      }
      env_->OnConfigCommitted(*c.second, c.first);
    }
  }

  env_->OnCommitAdvanced(commit_idx_);
  if (role_ == RaftRole::kLeader) {
    // Followers learn the new commit index with the next append_entries.
    TrySendAll();
    MaybePromoteLearners();
    if (!active_config().IsVoter(options_.id) && !ConfigChangeInFlight()) {
      // Our own removal just committed: the commit index went out with the
      // appends above; now step down (dissertation section 4.2.2). The
      // members elect a successor after their election timeouts.
      HC_LOG_INFO("node %d: self-removal committed; stepping down", options_.id);
      retired_ = true;
      BecomeFollower(current_term_, false);
    }
  }
}

// ---------------------------------------------------------------------------
// Message dispatch
// ---------------------------------------------------------------------------

void RaftNode::OnMessage(const Message& msg, bool via_aggregator) {
  switch (msg.kind()) {
    case MessageKind::kAeReq:
      return OnAppendEntries(static_cast<const AppendEntriesReq&>(msg), via_aggregator);
    case MessageKind::kAeRep:
      return OnAppendEntriesRep(static_cast<const AppendEntriesRep&>(msg));
    case MessageKind::kVoteReq:
    case MessageKind::kPreVoteReq:
      return OnRequestVote(static_cast<const RequestVoteReq&>(msg));
    case MessageKind::kVoteRep:
    case MessageKind::kPreVoteRep:
      return OnRequestVoteRep(static_cast<const RequestVoteRep&>(msg));
    case MessageKind::kAggCommit:
      return OnAggCommit(static_cast<const AggCommitMsg&>(msg));
    case MessageKind::kAggVoteRep:
      return OnAggVoteRep(static_cast<const AggVoteRep&>(msg));
    case MessageKind::kRecoveryReq:
      return OnRecoveryReq(static_cast<const RecoveryReq&>(msg));
    case MessageKind::kRecoveryRep:
      return OnRecoveryRep(static_cast<const RecoveryRep&>(msg));
    case MessageKind::kSnapshotReq:
      return OnInstallSnapshot(static_cast<const InstallSnapshotReq&>(msg));
    case MessageKind::kSnapshotRep:
      return OnInstallSnapshotRep(static_cast<const InstallSnapshotRep&>(msg));
    default:
      HC_LOG_WARN("node %d: unexpected message %s", options_.id, msg.Name());
  }
}

// ---------------------------------------------------------------------------
// Follower append path
// ---------------------------------------------------------------------------

bool RaftNode::AcceptLeader(Term term, NodeId leader) {
  if (term < current_term_) {
    return false;
  }
  if (term > current_term_ || role_ != RaftRole::kFollower) {
    BecomeFollower(term, /*reset_vote=*/term > current_term_);
  }
  leader_hint_ = leader;
  last_leader_contact_ = env_->Now();
  AbandonPreVote();  // a live leader voids any poll in progress
  ArmElectionTimer();
  return true;
}

void RaftNode::OnAppendEntries(const AppendEntriesReq& req, bool via_aggregator) {
  ++stats_.ae_received;
  // A refusal (stale term, or no match at prev) goes straight back to the
  // leader, hinting the last index at which our log may still match.
  bool success = false;
  LogIndex hint = log_.last_index();
  AppendOutcome outcome;
  if (AcceptLeader(req.term(), req.leader())) {
    // Consistency check at prev. Anything at or below our compaction point
    // is committed and therefore matches by construction.
    const LogIndex prev = req.prev_idx();
    if (prev > log_.last_index() ||
        (prev >= log_.first_index() - 1 && log_.TermAt(prev) != req.prev_term())) {
      hint = std::min(log_.last_index(), prev - 1);
    } else {
      success = true;
      outcome = AppendResolvedEntries(req);
      pending_ae_ =
          outcome.waiting_recovery ? std::make_unique<AppendEntriesReq>(req) : nullptr;
      pending_ae_via_agg_ = via_aggregator;
      if (const LogIndex c = std::min(req.leader_commit(), outcome.match); c > commit_idx_) {
        SetCommit(c);
      }
      hint = log_.last_index();
    }
  }
  auto rep = MakeMessage<AppendEntriesRep>(options_.id, current_term_, success, outcome.match,
                                           progress_stamp(), hint, outcome.waiting_recovery,
                                           commit_idx_);
  const bool to_aggregator = success && via_aggregator;
  // Durability: the acknowledged entries must hit the local WAL first. The
  // flush device completes barriers in order, so deferred replies stay FIFO
  // and the leader's match index remains monotone.
  const NodeId reply_leader = req.leader();
  const bool unsafe_ack = storage_->policy() == FsyncPolicy::kAckBeforeSync;
  if (!unsafe_ack && outcome.match > durable_index_) {
    // Sync-before-ack: withhold the reply until the barrier covers every
    // acknowledged entry. The fence drops it when the process crashed (or
    // the term moved on) in the persist window — a killed node never acks
    // from the grave; the leader simply retransmits after the restart.
    // The acknowledged tail is the reply's match index, so the capture
    // carries it once and stays within the inline callback budget.
    const uint64_t epoch = restart_epoch_;
    const Term term = current_term_;
    const Term tail_term = log_.TermAt(outcome.match);
    auto ack = [this, rep, epoch, term, tail_term, reply_leader, to_aggregator]() {
      if (halted_ || epoch != restart_epoch_ || term != current_term_) {
        ++stats_.acks_dropped_crash;
        return;
      }
      const LogIndex tail = rep->match();
      if (tail > durable_index_ && tail <= log_.last_index() &&
          (tail < log_.first_index() || log_.TermAt(tail) == tail_term)) {
        durable_index_ = tail;
      }
      if (to_aggregator) {
        env_->SendToAggregator(rep);
      } else {
        env_->SendToPeer(reply_leader, rep);
      }
    };
    static_assert(StableStorage::SyncCallback::kFits<decltype(ack)>);
    const bool inline_done = storage_->Sync(std::move(ack));
    if (!inline_done) {
      ++stats_.acks_deferred_persist;
    }
    return;
  }
  if (unsafe_ack && outcome.match > durable_index_) {
    // The unsafe chaos control: ack immediately, flush lazily. A power
    // failure in the window un-commits entries the leader already counted.
    ScheduleDurability(outcome.match);
  }
  if (to_aggregator) {
    env_->SendToAggregator(std::move(rep));
  } else {
    env_->SendToPeer(reply_leader, std::move(rep));
  }
}

RaftNode::AppendOutcome RaftNode::AppendResolvedEntries(const AppendEntriesReq& req) {
  AppendOutcome outcome;
  LogIndex idx = req.prev_idx();
  outcome.match = std::max(idx, log_.first_index() - 1);
  for (const WireEntry& w : req.entries()) {
    ++idx;
    if (idx < log_.first_index()) {
      outcome.match = std::max(outcome.match, idx);
      continue;  // compacted, therefore committed and identical
    }
    if (log_.Contains(idx)) {
      if (log_.TermAt(idx) == w.term) {
        outcome.match = idx;
        continue;  // already have it
      }
      // Conflict: a stale extension from a deposed leader. Committed entries
      // can never conflict while durability holds, so truncation is safe.
      if (idx <= commit_idx_) {
        // Reachable only when the durability contract was deliberately broken
        // (the ack-before-sync / naive-recovery chaos controls): a quorum
        // lost acknowledged entries and the new leader is overwriting data we
        // committed. Roll our watermarks back and keep running — the point of
        // the control is to let the linearizability checker see the damage,
        // not to abort the simulation.
        ++stats_.committed_overwritten;
        HC_LOG_WARN("node %d: leader overwrote committed idx %llu (commit %llu) — "
                    "durability was violated upstream",
                    options_.id, static_cast<unsigned long long>(idx),
                    static_cast<unsigned long long>(commit_idx_));
        Record(obs::FrType::kCommitLoss, idx - 1, commit_idx_);
        commit_idx_ = idx - 1;
        // The epoch stays, so a leader may record us above this. Moot: a
        // forwarded read waits for our apply cursor, a compaction past our
        // need is repaired by snapshot, and committed data is already lost.
        applied_idx_ = std::min(applied_idx_, idx - 1);
        announced_idx_ = std::min(announced_idx_, idx - 1);
        committed_config_idx_ = std::min(committed_config_idx_, idx - 1);
      }
      RollbackConfigsAbove(idx);
      log_.TruncateFrom(idx);
      storage_->AppendTruncate(idx);
      durable_index_ = std::min(durable_index_, idx - 1);
      Record(obs::FrType::kRecovery, static_cast<uint64_t>(obs::FrRecovery::kTruncate),
             durable_index_);
    }
    HC_CHECK_EQ(idx, log_.last_index() + 1);

    LogEntry entry;
    entry.term = w.term;
    entry.noop = w.noop;
    entry.read_only = w.read_only;
    entry.replier = w.replier;
    entry.rid = w.rid;
    entry.body_hash = w.body_hash;
    entry.ack_watermark = w.ack_watermark;
    if (!w.noop) {
      if (w.carries_payload) {
        HC_CHECK(w.request != nullptr);
        entry.request = w.request;
      } else {
        // HovercRaft: resolve the payload from the unordered set and verify
        // the body hash the leader shipped with the metadata (section 5) —
        // a mismatched hit is discarded and recovered point-to-point.
        entry.request = unordered_->Lookup(w.rid);
        if (entry.request != nullptr && HashRequestBody(*entry.request) != w.body_hash) {
          unordered_->Erase(w.rid);
          entry.request = nullptr;
        }
        if (entry.request == nullptr) {
          // Missed the client multicast; fetch it point-to-point and stop
          // appending here — we must not acknowledge entries whose payload
          // we cannot produce.
          RequestRecovery(w.rid);
          outcome.waiting_recovery = true;
          break;
        }
        unordered_->Erase(w.rid);
      }
    }
    log_.Append(std::move(entry));
    ++stats_.entries_appended;
    StorageAppendEntry(idx, w.config.get());
    outcome.match = idx;
    if (w.config != nullptr) {
      // Effective on append (dissertation section 4.1): quorum and role
      // decisions use the new config before it commits.
      TrackConfig(idx, w.config);
    }
  }
  return outcome;
}

void RaftNode::RequestRecovery(const RequestId& rid) {
  const TimeNs now = env_->Now();
  auto it = recovery_inflight_.find(rid);
  if (it != recovery_inflight_.end() && now - it->second < options_.heartbeat_interval) {
    return;  // a request is already in flight
  }
  recovery_inflight_[rid] = now;
  if (leader_hint_ == kInvalidNode || leader_hint_ == options_.id) {
    return;
  }
  ++stats_.recoveries_requested;
  env_->SendToPeer(leader_hint_, MakeMessage<RecoveryReq>(options_.id, rid));
}

void RaftNode::OnRecoveryReq(const RecoveryReq& req) {
  std::shared_ptr<const RpcRequest> payload;
  const LogIndex idx = log_.FindRequest(req.rid());
  if (idx != kNoLogIndex) {
    payload = log_.At(idx).request;
  } else {
    payload = unordered_->Lookup(req.rid());
  }
  if (payload != nullptr) {
    ++stats_.recoveries_served;
  }
  env_->SendToPeer(req.from(), MakeMessage<RecoveryRep>(req.rid(), std::move(payload)));
}

void RaftNode::OnRecoveryRep(const RecoveryRep& rep) {
  recovery_inflight_.erase(rep.rid());
  if (!rep.found()) {
    return;  // the leader no longer has it; the next heartbeat retries
  }
  HC_CHECK(rep.rid() == rep.request()->rid());
  unordered_->Insert(rep.request(), env_->Now());
  if (pending_ae_ != nullptr) {
    const std::unique_ptr<AppendEntriesReq> ae = std::move(pending_ae_);
    const bool via_agg = pending_ae_via_agg_;
    OnAppendEntries(*ae, via_agg);
  }
}

// ---------------------------------------------------------------------------
// Leader reply handling
// ---------------------------------------------------------------------------

void RaftNode::OnAppendEntriesRep(const AppendEntriesRep& rep) {
  if (rep.term() > current_term_) {
    BecomeFollower(rep.term(), true);
    return;
  }
  if (role_ != RaftRole::kLeader || rep.term() < current_term_) {
    return;
  }
  PeerState& st = peers_[static_cast<size_t>(rep.from())];
  st.last_response = env_->Now();  // current-term contact: CheckQuorum/lease evidence
  if (st.inflight > 0) {
    --st.inflight;
  }
  RecordApplied(rep.from(), rep.progress());
  st.commit_acked = std::max(st.commit_acked, rep.commit());
  if (rep.success()) {
    OnPeerProgress(rep.from(), rep.match(), rep.waiting_recovery());
  } else {
    if (rep.last_hint() < st.match_idx) {
      // The follower's log ends below what it once acknowledged: its WAL
      // recovery cut damaged entries out (it rejoined suspect). match_idx is
      // normally a monotone lower bound — durability-gated acks make it so —
      // but a media-corruption recovery is the one event that regresses it.
      // Without this reset the clamp below would pin next_idx above the
      // follower's log forever and repair would livelock. Dropping match is
      // always safe: it only forces re-replication, and commit never moves
      // backward. (A reordered stale reject can trip this spuriously; the
      // next successful ack simply re-raises match, costing one resend.)
      st.match_idx = 0;
      ++stats_.match_regressions;
    }
    // Do not clamp to the compaction point here: a follower whose hint lies
    // below first_index needs a state transfer, which MaybeSendAppend
    // triggers when it sees next_idx below the log's first index.
    const LogIndex backoff = std::min(st.next_idx - 1, rep.last_hint() + 1);
    st.next_idx = std::max(backoff, st.match_idx + 1);
    st.inflight = 0;
    st.direct_mode = options_.use_aggregator;
    MaybeSendAppend(rep.from(), false);
  }
}

// ---------------------------------------------------------------------------
// Elections
// ---------------------------------------------------------------------------

void RaftNode::OnRequestVote(const RequestVoteReq& req) {
  // Disruption prevention (dissertation section 4.2.3): a server removed
  // from the cluster stops receiving heartbeats before it learns of its own
  // removal and will campaign with ever-higher terms. While we are hearing
  // from a live leader, a candidate that is not a member of our active config
  // is ignored outright — before the term comparison, so its inflated term
  // cannot depose the leader. Never triggers with static membership (every
  // node is a member).
  const bool leader_is_live = last_leader_contact_ > 0 &&
                              env_->Now() - last_leader_contact_ < options_.election_timeout_min;
  if (!active_config().IsMember(req.candidate()) && leader_is_live) {
    return;
  }
  const bool self_leading =
      role_ == RaftRole::kLeader && QuorumContactedSince(env_->Now() - CheckQuorumWindow());
  // A suspect replica (recovery cut its durable log below entries it may have
  // acknowledged — see RestartFromRecovery) must not endorse a candidate whose
  // log ends below its suspect floor: electing such a leader could overwrite
  // entries this node acked, whose replies a client may already hold.
  // Refusing is always safe; at worst the election waits for a candidate —
  // typically the old leader — whose log covers everything we ever acked.
  const bool floor_ok = !suspect_ || req.last_idx() >= suspect_floor_;
  if (req.pre_vote()) {
    // Pre-vote poll (dissertation section 9.6): answered from current state,
    // mutating nothing — no term bump, no vote record, no timer reset. The
    // reply echoes the candidate's proposed term so it can tally the poll.
    bool poll_granted = false;
    if (req.term() > current_term_ && !leader_is_live && !self_leading && floor_ok) {
      poll_granted = AtLeastAsUpToDate(req.last_term(), req.last_idx());
    }
    if (poll_granted) {
      ++stats_.prevote_granted;
    } else {
      ++stats_.prevote_rejected;
    }
    env_->SendToPeer(req.candidate(), MakeMessage<RequestVoteRep>(
                                          options_.id, req.term(), poll_granted,
                                          /*pre_vote=*/true));
    return;
  }
  if (options_.check_quorum && (leader_is_live || self_leading)) {
    // Leader stickiness: while we hear a live leader — or we *are* one with
    // fresh quorum contact — a real RequestVote (forged, replayed, or from a
    // node whose timer was manipulated) is ignored outright, before the term
    // comparison. No reply is sent: a rejection carrying our term would hand
    // the (possibly forged) candidate id a back-door term bump via
    // OnRequestVoteRep. A genuinely cut-off leader loses quorum contact
    // within CheckQuorumWindow() and then yields to the higher term normally.
    ++stats_.votes_ignored_sticky;
    return;
  }
  if (req.term() > current_term_) {
    BecomeFollower(req.term(), true);
  }
  bool granted = false;
  if (req.term() == current_term_ &&
      (voted_for_ == kInvalidNode || voted_for_ == req.candidate())) {
    if (AtLeastAsUpToDate(req.last_term(), req.last_idx()) && floor_ok) {
      granted = true;
      voted_for_ = req.candidate();
      PersistHardState();  // the vote is a durable promise
      ArmElectionTimer();
    }
  }
  env_->SendToPeer(req.candidate(),
                   MakeMessage<RequestVoteRep>(options_.id, current_term_, granted));
}

bool RaftNode::AtLeastAsUpToDate(Term last_term, LogIndex last_idx) const {
  return last_term > log_.last_term() ||
         (last_term == log_.last_term() && last_idx >= log_.last_index());
}

void RaftNode::OnRequestVoteRep(const RequestVoteRep& rep) {
  if (rep.pre_vote()) {
    // Poll replies carry the *proposed* term; intercept them before the
    // higher-term check or a granted reply would bump our term — exactly
    // what PreVote exists to avoid.
    if (!pre_vote_active_ || rep.term() != pre_vote_term_ || !rep.granted() ||
        !active_config().IsVoter(rep.from())) {
      return;
    }
    ++pre_votes_;
    if (pre_votes_ >= active_config().majority()) {
      StartElection();  // the poll's retry timer keeps covering the election
    }
    return;
  }
  if (rep.term() > current_term_) {
    BecomeFollower(rep.term(), true);
    return;
  }
  if (role_ != RaftRole::kCandidate || rep.term() < current_term_ || !rep.granted()) {
    return;
  }
  if (!active_config().IsVoter(rep.from())) {
    return;  // only active-config voters count toward the quorum
  }
  ++votes_;
  if (votes_ >= active_config().majority()) {
    BecomeLeader();
  }
}

// ---------------------------------------------------------------------------
// Aggregator interaction (HovercRaft++)
// ---------------------------------------------------------------------------

void RaftNode::OnAggCommit(const AggCommitMsg& msg) {
  if (msg.term() < current_term_) {
    return;
  }
  if (msg.term() > current_term_) {
    BecomeFollower(msg.term(), true);
  }
  if (msg.epoch() != committed_config_idx_) {
    // The aggregator counted its quorum under a different config epoch than
    // our committed one; its commit index cannot be trusted here. Liveness is
    // unaffected: the leader keeps direct commit-carrying appends flowing to
    // every peer that has not acked the committed config.
    return;
  }
  if (role_ == RaftRole::kFollower) {
    // AGG_COMMIT is leader liveness: the aggregator only emits it while a
    // current-term leader feeds it.
    last_leader_contact_ = env_->Now();
    AbandonPreVote();
    ArmElectionTimer();
  }
  if (role_ == RaftRole::kLeader) {
    agg_stream_.inflight = 0;
    last_agg_commit_ = env_->Now();
    const auto& progress = msg.progress();
    for (NodeId p = 0; p < options_.cluster_size && static_cast<size_t>(p) < progress.size();
         ++p) {
      if (p != options_.id) {
        RecordApplied(p, progress[static_cast<size_t>(p)]);
      }
    }
    // A learner served by the aggregator stream reports progress only
    // through the vector above; this is its promotion path.
    MaybePromoteLearners();
  }
  CommitIfCurrentTerm(std::min(msg.commit(), log_.last_index()));
  if (role_ == RaftRole::kLeader) {
    TryAnnounce();
    MaybeSendAggAppend(false);
  }
}

void RaftNode::OnAggVoteRep(const AggVoteRep& rep) {
  if (role_ != RaftRole::kLeader || rep.term() != current_term_ || !options_.use_aggregator) {
    return;
  }
  if (agg_active_) {
    return;
  }
  if (rep.epoch() != committed_config_idx_ || ConfigChangeInFlight()) {
    return;  // the aggregator is configured for a different voter set
  }
  agg_active_ = true;
  last_agg_commit_ = env_->Now();  // start the silence clock at activation
  // Stream from the last quorum-confirmed point; overlapping entries are
  // deduplicated by the followers' consistency check.
  agg_stream_.next_idx = std::max(commit_idx_ + 1, log_.first_index());
  for (PeerState& st : peers_) {
    st.direct_mode = false;
  }
  MaybeSendAggAppend(false);
}

// ---------------------------------------------------------------------------
// Application feedback and compaction
// ---------------------------------------------------------------------------

void RaftNode::OnApplied(LogIndex idx) {
  if (idx > applied_idx_) {
    applied_idx_ = idx;
  }
  if (role_ == RaftRole::kLeader) {
    scheduler_.UpdateApplied(options_.id, applied_idx_);
    TryAnnounce();
  }
}

LogIndex RaftNode::MinAppliedKnown() const {
  LogIndex min_applied = applied_idx_;
  if (role_ == RaftRole::kLeader) {
    for (NodeId p : active_config().members) {
      if (p != options_.id) {
        min_applied = std::min(min_applied, AppliedOf(peers_[static_cast<size_t>(p)].progress));
      }
    }
  }
  return min_applied;
}

LogIndex RaftNode::CompactionPoint(LogIndex straggler_lag) const {
  // Compact to the slowest node's applied index, but do not let one dead or
  // glacial straggler pin memory forever: beyond the allowance, compaction
  // proceeds and the straggler is repaired by snapshot when it returns.
  LogIndex target = MinAppliedKnown();
  if (applied_idx_ > straggler_lag) {
    target = std::max(target, applied_idx_ - straggler_lag);
  }
  return std::min(target, CompactionCeiling());
}

LogIndex RaftNode::CompactionCeiling() const {
  // Keep a tail window beyond the strictly-safe point: if this node is later
  // elected, it can still repair moderately lagging followers point-to-point
  // instead of needing a full state transfer.
  const LogIndex last = log_.last_index();
  if (last <= options_.log_retention_entries) {
    return 0;
  }
  return std::min(applied_idx_, last - options_.log_retention_entries);
}

void RaftNode::CompactLog(LogIndex idx) {
  const LogIndex safe = std::min(idx, CompactionCeiling());
  if (safe >= log_.first_index()) {
    const Term safe_term = log_.TermAt(safe);
    log_.CompactPrefix(safe);
    // The hosting server saved a covering snapshot before calling us, so
    // dropping whole WAL segments below the new base is recoverable.
    storage_->AppendCompact(safe, safe_term);
    durable_index_ = std::max(durable_index_, safe);
  }
}

}  // namespace hovercraft
