#include "src/r2p2/router.h"

#include <algorithm>

#include "src/common/check.h"
#include "src/common/logging.h"
#include "src/r2p2/messages.h"

namespace hovercraft {

R2p2Router::R2p2Router(Simulator* sim, const CostModel& costs, std::vector<HostId> servers,
                       RouterPolicy policy, int64_t queue_bound, uint64_t seed)
    : Host(sim, costs, Kind::kDevice),
      servers_(std::move(servers)),
      policy_(policy),
      queue_bound_(queue_bound),
      rng_(seed),
      outstanding_(servers_.size(), 0) {
  HC_CHECK(!servers_.empty());
  HC_CHECK_GT(queue_bound, 0);
}

int32_t R2p2Router::PickServer() {
  if (policy_ == RouterPolicy::kRandom) {
    return static_cast<int32_t>(rng_.NextBelow(servers_.size()));
  }
  int32_t best = -1;
  int64_t best_outstanding = queue_bound_;
  int32_t ties = 0;
  for (size_t s = 0; s < servers_.size(); ++s) {
    const int64_t out = outstanding_[s];
    if (out >= queue_bound_) {
      continue;
    }
    if (best == -1 || out < best_outstanding) {
      best = static_cast<int32_t>(s);
      best_outstanding = out;
      ties = 1;
    } else if (out == best_outstanding) {
      ++ties;
      if (rng_.NextBelow(static_cast<uint64_t>(ties)) == 0) {
        best = static_cast<int32_t>(s);
      }
    }
  }
  return best;
}

void R2p2Router::Dispatch(const MessagePtr& msg, int32_t server) {
  ++outstanding_[static_cast<size_t>(server)];
  ++stats_.forwarded;
  Send(servers_[static_cast<size_t>(server)], msg);
}

void R2p2Router::HandleMessage(HostId src, const MessagePtr& msg) {
  if (const auto* req = As<RpcRequest>(*msg)) {
    if (shard_gate_ && IsDataSlot(req->shard_slot())) {
      const uint64_t epoch = shard_gate_(req->shard_slot());
      if (epoch != 0) {
        ++stats_.wrong_shard_nacked;
        Send(src, MakeMessage<WrongShardNack>(req->rid(), epoch));
        return;
      }
    }
    const int32_t server = PickServer();
    if (server < 0) {
      // Every bounded queue is full: hold centrally, in arrival order —
      // the late-binding that makes JBSQ approach a single queue.
      ++stats_.held_central;
      central_.push_back(msg);
      stats_.central_queue_peak = std::max(stats_.central_queue_peak, central_.size());
      return;
    }
    Dispatch(msg, server);
    return;
  }
  if (msg->kind() == MessageKind::kFeedback) {
    // A server finished one request; its slot frees and, under JBSQ, the
    // oldest centrally-held request binds to it.
    for (size_t s = 0; s < servers_.size(); ++s) {
      if (servers_[s] == src) {
        if (outstanding_[s] > 0) {
          --outstanding_[s];
        }
        if (!central_.empty() && outstanding_[s] < queue_bound_) {
          MessagePtr next = central_.front();
          central_.pop_front();
          Dispatch(next, static_cast<int32_t>(s));
        }
        return;
      }
    }
    return;
  }
  HC_LOG_WARN("r2p2 router: unexpected message %s", msg->Name());
}

}  // namespace hovercraft
