#include "src/core/flow_control.h"

#include <algorithm>
#include <memory>
#include <string>
#include <utility>

#include "src/common/logging.h"
#include "src/r2p2/messages.h"
#include "src/r2p2/shard.h"

namespace hovercraft {

FlowControl::FlowControl(Simulator* sim, const CostModel& costs, Addr group, int64_t threshold)
    : Host(sim, costs, Kind::kDevice), group_(group), threshold_(threshold) {}

void FlowControl::HandleMessage(HostId src, const MessagePtr& msg) {
  switch (msg->kind()) {
    case MessageKind::kRequest: {
      const auto& req = static_cast<const RpcRequest&>(*msg);
      // Shard gate first, before any ledger state is touched: a request for a
      // slot this group does not serve is redirected with the current map
      // epoch, so the client refreshes its map and retries at the owner.
      if (shard_gate_ && IsDataSlot(req.shard_slot())) {
        const uint64_t epoch = shard_gate_(req.shard_slot());
        if (epoch != 0) {
          ++wrong_shard_nacked_;
          Send(src, MakeMessage<WrongShardNack>(req.rid(), epoch));
          return;
        }
      }
      if (threshold_ > 0 && outstanding() >= threshold_ && open_.count(req.rid()) == 0) {
        ++nacked_;
        obs::MarkStage(sim(), req.rid(), obs::Stage::kNacked, kInvalidNode, sim()->Now());
        RecordFlowOp(obs::FrFlowOp::kNack);
        Send(src, MakeMessage<NackMsg>(req.rid()));
        return;
      }
      // Admission is per rid: a retransmitted attempt re-uses its slot instead
      // of opening a second one that no FEEDBACK would ever repay.
      if (open_.insert(req.rid()).second) {
        RecordFlowOp(obs::FrFlowOp::kOpen);
      }
      ++forwarded_;
      Send(group_, msg);
      return;
    }
    case MessageKind::kFeedback:
      // Idempotent: a duplicate FEEDBACK is a no-op.
      if (open_.erase(static_cast<const FeedbackMsg&>(*msg).rid()) > 0) {
        RecordFlowOp(obs::FrFlowOp::kClose);
      }
      return;
    case MessageKind::kFcLeader: {
      // Failover: slots whose designated replier died will never see FEEDBACK.
      // Snapshot the open ledger and have the new leader classify it.
      leader_ = static_cast<const FcLeaderChangeMsg&>(*msg).leader();
      sim()->Cancel(reconcile_timer_);
      reconcile_timer_ = kInvalidEvent;
      reconcile_pending_.assign(open_.begin(), open_.end());
      std::sort(reconcile_pending_.begin(), reconcile_pending_.end(),
                [](const RequestId& a, const RequestId& b) {
                  return a.client != b.client ? a.client < b.client : a.seq < b.seq;
                });
      reconcile_rounds_ = 0;
      if (!reconcile_pending_.empty()) {
        ++reconciles_started_;
        if (auto* fr = obs::FrOf(sim())) {
          fr->Note(sim()->Now(), obs_node_, "fc-reconcile", reconcile_pending_.size());
        }
        SendReconcileQuery();
      }
      return;
    }
    case MessageKind::kFcReconcileRep: {
      const auto& rep = static_cast<const FcReconcileRep&>(*msg);
      for (size_t i = 0; i < rep.rids().size() && i < rep.states().size(); ++i) {
        if (rep.states()[i] == FcSlotState::kPending) {
          continue;  // FEEDBACK (or the next round) will cover it
        }
        if (open_.erase(rep.rids()[i]) > 0) {
          ++reconciled_released_;
          RecordFlowOp(obs::FrFlowOp::kClose);
        }
      }
      if (reconcile_rounds_ >= kMaxReconcileRounds) {
        // The leader kept reporting these as pending; assume their FEEDBACK is
        // gone for good rather than pinning the admission window forever.
        for (const RequestId& rid : reconcile_pending_) {
          if (open_.erase(rid) > 0) {
            ++force_released_;
            RecordFlowOp(obs::FrFlowOp::kForceRelease);
            HC_LOG_WARN("flow control: force-released slot for rid {%d,%llu}", rid.client,
                        static_cast<unsigned long long>(rid.seq));
          }
        }
        reconcile_pending_.clear();
        return;
      }
      reconcile_timer_ = sim()->After(kReconcileInterval, [this]() {
        reconcile_timer_ = kInvalidEvent;
        SendReconcileQuery();
      });
      return;
    }
    default:
      HC_LOG_WARN("flow control: unexpected message %s", msg->Name());
  }
}

void FlowControl::RecordFlowOp(obs::FrFlowOp op) {
  // Ledger event for the watchdog's balance invariant: `a` is the open-slot
  // count *after* the operation, so the event stream and the reported ledger
  // must always agree — any drift is a leaked or double-released slot.
  if (auto* fr = obs::FrOf(sim())) {
    fr->Record(sim()->Now(), obs_node_, obs::FrType::kFlow,
               static_cast<uint64_t>(open_.size()), static_cast<uint64_t>(threshold_),
               static_cast<uint32_t>(op));
  }
}

void FlowControl::SendReconcileQuery() {
  // Drop slots that resolved (FEEDBACK or a previous round) in the meantime.
  reconcile_pending_.erase(std::remove_if(reconcile_pending_.begin(), reconcile_pending_.end(),
                                          [this](const RequestId& rid) {
                                            return open_.count(rid) == 0;
                                          }),
                           reconcile_pending_.end());
  if (reconcile_pending_.empty() || leader_ == kInvalidHost) {
    return;  // converged
  }
  ++reconcile_rounds_;
  Send(leader_, MakeMessage<FcReconcileReq>(reconcile_pending_));
}

}  // namespace hovercraft
