#include "src/raft/replier_scheduler.h"

#include "src/common/check.h"

namespace hovercraft {

ReplierScheduler::ReplierScheduler(int32_t cluster_size, NodeId self, ReplierPolicy policy,
                                   int64_t bound, uint64_t seed)
    : cluster_size_(cluster_size),
      self_(self),
      policy_(policy),
      bound_(bound),
      rng_(seed),
      assigned_(static_cast<size_t>(cluster_size)),
      is_member_(static_cast<size_t>(cluster_size), 1) {
  HC_CHECK_GT(cluster_size, 0);
  HC_CHECK_GT(bound, 0);
}

void ReplierScheduler::UpdateApplied(NodeId node, LogIndex applied) {
  HC_CHECK_GE(node, 0);
  HC_CHECK_LT(node, cluster_size_);
  auto& queue = assigned_[static_cast<size_t>(node)];
  while (!queue.empty() && queue.front() <= applied) {
    queue.pop_front();
  }
}

bool ReplierScheduler::Eligible(NodeId node) const {
  return PendingOf(node) < bound_;
}

int64_t ReplierScheduler::PendingOf(NodeId node) const {
  HC_CHECK_GE(node, 0);
  HC_CHECK_LT(node, cluster_size_);
  return static_cast<int64_t>(assigned_[static_cast<size_t>(node)].size());
}

NodeId ReplierScheduler::Assign(LogIndex idx) {
  if (policy_ == ReplierPolicy::kLeaderOnly) {
    // The bound still applies to the leader itself: an overwhelmed leader
    // stops announcing rather than growing an unbounded apply backlog.
    if (!Eligible(self_)) {
      return kInvalidNode;
    }
    assigned_[static_cast<size_t>(self_)].push_back(idx);
    return self_;
  }

  NodeId chosen = kInvalidNode;
  if (policy_ == ReplierPolicy::kRandom) {
    // Reservoir-sample uniformly among eligible nodes.
    int32_t seen = 0;
    for (NodeId n = 0; n < cluster_size_; ++n) {
      if (!is_member_[static_cast<size_t>(n)]) {
        continue;
      }
      if (!Eligible(n)) {
        continue;
      }
      ++seen;
      if (rng_.NextBelow(static_cast<uint64_t>(seen)) == 0) {
        chosen = n;
      }
    }
  } else {  // kJbsq
    int64_t best = bound_;
    int32_t ties = 0;
    for (NodeId n = 0; n < cluster_size_; ++n) {
      if (!is_member_[static_cast<size_t>(n)]) {
        continue;
      }
      const int64_t pending = PendingOf(n);
      if (pending >= bound_) {
        continue;
      }
      if (pending < best) {
        best = pending;
        chosen = n;
        ties = 1;
      } else if (pending == best) {
        // Break ties randomly so the first node is not systematically favored.
        ++ties;
        if (rng_.NextBelow(static_cast<uint64_t>(ties)) == 0) {
          chosen = n;
        }
      }
    }
  }
  if (chosen != kInvalidNode) {
    assigned_[static_cast<size_t>(chosen)].push_back(idx);
  }
  return chosen;
}

void ReplierScheduler::Reset() {
  for (auto& q : assigned_) {
    q.clear();
  }
}

void ReplierScheduler::SetMembers(const std::vector<NodeId>& members) {
  std::vector<uint8_t> next(static_cast<size_t>(cluster_size_), 0);
  for (NodeId n : members) {
    if (n >= 0 && n < cluster_size_) {
      next[static_cast<size_t>(n)] = 1;
    }
  }
  for (NodeId n = 0; n < cluster_size_; ++n) {
    if (!next[static_cast<size_t>(n)]) {
      assigned_[static_cast<size_t>(n)].clear();
    }
  }
  is_member_ = std::move(next);
}

}  // namespace hovercraft
