#include "src/shard/coordinator.h"

#include <memory>
#include <utility>

#include "src/common/check.h"
#include "src/common/logging.h"
#include "src/obs/flight_recorder.h"
#include "src/r2p2/messages.h"

namespace hovercraft {

ShardCoordinator::ShardCoordinator(Simulator* sim, const CostModel& costs, ShardMap* map,
                                   std::vector<ShardGroupEndpoints> groups)
    : Host(sim, costs, Kind::kServer), map_(map), groups_(std::move(groups)) {
  HC_CHECK(map_ != nullptr);
  HC_CHECK_EQ(static_cast<int32_t>(groups_.size()), map_->group_count());
}

void ShardCoordinator::StartMove(uint32_t lo, uint32_t hi, GroupId dest) {
  Move m;
  m.lo = lo;
  m.hi = hi;
  m.dest = dest;
  queue_.push_back(m);
  if (phase_ == Phase::kIdle) {
    BeginNext();
  }
}

void ShardCoordinator::BeginNext() {
  while (!queue_.empty()) {
    Move m = queue_.front();
    queue_.pop_front();
    m.source = map_->OwnerOf(m.lo);
    if (!map_->BeginMove(m.lo, m.hi, m.dest)) {
      ++stats_.moves_rejected;
      HC_LOG_WARN("shard coordinator: rejected move [%u,%u] -> group %d", m.lo, m.hi,
                  m.dest.value);
      continue;
    }
    ++stats_.moves_started;
    m.move_id = next_move_id_++;
    current_ = m;
    phase_ = Phase::kFreezing;
    attempts_in_phase_ = 0;
    if (auto* fr = obs::FrOf(sim())) {
      fr->Note(sim()->Now(), kInvalidNode,
               "shard-move-start [" + std::to_string(m.lo) + "," + std::to_string(m.hi) + "] g" +
                   std::to_string(m.source.value) + " -> g" + std::to_string(m.dest.value));
    }
    ShardOp op;
    op.kind = ShardOpKind::kFreeze;
    op.move_id = m.move_id;
    op.lo = m.lo;
    op.hi = m.hi;
    SendCtl(m.source, std::move(op));
    return;
  }
  phase_ = Phase::kIdle;
}

void ShardCoordinator::SendCtl(GroupId group, ShardOp op) {
  HC_CHECK(group.valid());
  HC_CHECK_LT(static_cast<size_t>(group.value), groups_.size());
  inflight_group_ = group;
  inflight_op_ = op;
  const uint64_t seq = next_seq_++;
  inflight_seq_ = seq;
  ++attempts_in_phase_;
  ++stats_.ctl_sent;
  const RequestId rid{id(), seq};
  auto request = MakeMessage<RpcRequest>(rid, R2p2Policy::kReplicatedReq,
                                         EncodeShardOp(inflight_op_), /*attempt=*/1,
                                         ack_floor_, kShardCtlSlot);
  Send(groups_[static_cast<size_t>(group.value)].ingress, std::move(request));
  sim()->Cancel(retry_timer_);
  retry_timer_ = sim()->After(kCtlRetryInterval, [this]() {
    retry_timer_ = kInvalidEvent;
    RetryCtlOrFail();
  });
}

void ShardCoordinator::RetryCtlOrFail() {
  if (phase_ == Phase::kIdle) {
    return;
  }
  // Abort phases have no budget: an abandoned abort would leave the map and
  // the group's replicated serve state permanently disagreeing (a frozen
  // range the map says is served, or a stale installed copy at the
  // destination). Retrying forever is safe — the ops are fenced and
  // idempotent — and completes as soon as the group has a leader again.
  if (!IsAbortPhase(phase_) && attempts_in_phase_ >= retry_budget_) {
    FailMove();
    return;
  }
  ++stats_.ctl_retries;
  SendCtl(inflight_group_, inflight_op_);
}

void ShardCoordinator::HandleMessage(HostId /*src*/, const MessagePtr& msg) {
  if (const auto* resp = As<RpcResponse>(*msg)) {
    if (phase_ == Phase::kIdle || resp->rid().seq != inflight_seq_) {
      return;  // late reply from a superseded (retried) control rid
    }
    // Sequential rids, one outstanding: this reply resolves every seq
    // allocated so far (abandoned retry rids are never retransmitted, so the
    // groups may GC their session entries).
    ack_floor_ = inflight_seq_;
    sim()->Cancel(retry_timer_);
    retry_timer_ = kInvalidEvent;
    OnPhaseReply(resp->body());
    return;
  }
  if (const auto* nack = As<NackMsg>(*msg)) {
    if (phase_ == Phase::kIdle || nack->rid().seq != inflight_seq_) {
      return;
    }
    // Admission-control NACK under load: back off briefly, then resend under
    // a fresh rid (a NACKed rid was never admitted and never will execute).
    ++stats_.ctl_nacked;
    sim()->Cancel(retry_timer_);
    retry_timer_ = sim()->After(Micros(200), [this]() {
      retry_timer_ = kInvalidEvent;
      RetryCtlOrFail();
    });
    return;
  }
  // WrongShardNack cannot happen (control ops are never slot-gated); anything
  // else is unexpected.
  if (msg->kind() != MessageKind::kWrongShardNack) {
    HC_LOG_WARN("shard coordinator: unexpected message %s", msg->Name());
  }
}

void ShardCoordinator::OnPhaseReply(const Body& reply) {
  switch (phase_) {
    case Phase::kFreezing: {
      capture_ = reply;
      stats_.capture_bytes += static_cast<uint64_t>(BodySize(reply));
      phase_ = Phase::kInstalling;
      attempts_in_phase_ = 0;
      ShardOp op;
      op.kind = ShardOpKind::kInstall;
      op.move_id = current_.move_id;
      op.lo = current_.lo;
      op.hi = current_.hi;
      op.payload = capture_;
      SendCtl(current_.dest, std::move(op));
      return;
    }
    case Phase::kInstalling: {
      // The destination committed (and applied) the install: cutover. From
      // this epoch on, the gates route the range's new traffic to the
      // destination, whose merged session table preserves exactly-once for
      // in-flight retransmissions.
      map_->CommitMove(current_.lo, current_.hi, current_.dest);
      if (auto* fr = obs::FrOf(sim())) {
        fr->Note(sim()->Now(), kInvalidNode,
                 "shard-move-cutover [" + std::to_string(current_.lo) + "," +
                     std::to_string(current_.hi) + "] epoch " + std::to_string(map_->epoch()));
      }
      phase_ = Phase::kGc;
      attempts_in_phase_ = 0;
      ShardOp op;
      op.kind = ShardOpKind::kGc;
      op.move_id = current_.move_id;
      op.lo = current_.lo;
      op.hi = current_.hi;
      SendCtl(current_.source, std::move(op));
      return;
    }
    case Phase::kGc: {
      ++stats_.moves_completed;
      FinishMove();
      return;
    }
    case Phase::kAbortingDst: {
      // The destination committed the uninstall: nothing the aborted move
      // installed survives there, and its parked install copies are fenced.
      // Now un-freeze the source.
      BeginAbort(/*uninstall_dest=*/false);
      return;
    }
    case Phase::kAbortingSrc: {
      // The source committed the unfreeze and serves the range again; only
      // now flip the map so clients routed back to the source are accepted.
      map_->AbortMove(current_.lo, current_.hi);
      ++stats_.moves_aborted;
      if (auto* fr = obs::FrOf(sim())) {
        fr->Note(sim()->Now(), kInvalidNode,
                 "shard-move-aborted [" + std::to_string(current_.lo) + "," +
                     std::to_string(current_.hi) + "] epoch " + std::to_string(map_->epoch()));
      }
      FinishMove();
      return;
    }
    case Phase::kIdle:
      return;
  }
}

void ShardCoordinator::FinishMove() {
  capture_ = nullptr;
  phase_ = Phase::kIdle;
  BeginNext();
}

void ShardCoordinator::FailMove() {
  ++stats_.moves_failed;
  HC_LOG_WARN("shard coordinator: move %llu [%u,%u] g%d->g%d gave up in phase %d",
              static_cast<unsigned long long>(current_.move_id), current_.lo, current_.hi,
              current_.source.value, current_.dest.value, static_cast<int>(phase_));
  switch (phase_) {
    case Phase::kFreezing:
      // No install was ever sent; un-freezing the source is the whole abort.
      BeginAbort(/*uninstall_dest=*/false);
      return;
    case Phase::kInstalling:
      // An install may have committed at the destination (its reply lost):
      // discard it there before the source resumes serving, or the
      // destination would silently keep a stale copy of a range it does not
      // own — and a parked install could resurrect it later.
      BeginAbort(/*uninstall_dest=*/true);
      return;
    case Phase::kGc:
      // The cutover committed: the move is semantically done and the map
      // already routes to the destination. Only the source's garbage survives
      // (a frozen, redirect-only range); a future move back installs over it,
      // and its parked GC copies are exactly the deletion the move owed.
      FinishMove();
      return;
    case Phase::kIdle:
    case Phase::kAbortingDst:
    case Phase::kAbortingSrc:
      HC_CHECK(false);  // abort phases retry without a budget
      return;
  }
}

void ShardCoordinator::BeginAbort(bool uninstall_dest) {
  attempts_in_phase_ = 0;
  ShardOp op;
  op.move_id = current_.move_id;
  op.lo = current_.lo;
  op.hi = current_.hi;
  if (uninstall_dest) {
    phase_ = Phase::kAbortingDst;
    op.kind = ShardOpKind::kUninstall;
    SendCtl(current_.dest, std::move(op));
  } else {
    phase_ = Phase::kAbortingSrc;
    op.kind = ShardOpKind::kUnfreeze;
    SendCtl(current_.source, std::move(op));
  }
}

}  // namespace hovercraft
