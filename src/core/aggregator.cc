#include "src/core/aggregator.h"

#include <algorithm>
#include <functional>
#include <memory>
#include <string>
#include <utility>

#include "src/common/check.h"
#include "src/common/logging.h"

namespace hovercraft {

Aggregator::Aggregator(Simulator* sim, const CostModel& costs, int32_t cluster_size)
    : Host(sim, costs, Kind::kDevice),
      cluster_size_(cluster_size),
      match_(static_cast<size_t>(cluster_size), 0),
      completed_(static_cast<size_t>(cluster_size), 0) {
  HC_CHECK_GT(cluster_size, 0);
  voters_.reserve(static_cast<size_t>(cluster_size));
  for (NodeId n = 0; n < cluster_size; ++n) {
    voters_.push_back(n);
  }
}

void Aggregator::Configure(std::vector<HostId> node_hosts, Addr group_all,
                           std::vector<Addr> groups_excluding, std::vector<NodeId> voters) {
  HC_CHECK_EQ(node_hosts.size(), static_cast<size_t>(cluster_size_));
  HC_CHECK_EQ(groups_excluding.size(), static_cast<size_t>(cluster_size_));
  node_hosts_ = std::move(node_hosts);
  group_all_ = group_all;
  groups_excluding_ = std::move(groups_excluding);
  if (!voters.empty()) {
    for (NodeId v : voters) {
      HC_CHECK_GE(v, 0);
      HC_CHECK_LT(v, cluster_size_);
    }
    voters_ = std::move(voters);
    std::sort(voters_.begin(), voters_.end());
  }
}

void Aggregator::Reconfigure(const std::vector<NodeId>& voters, LogIndex epoch) {
  if (epoch == epoch_) {
    return;  // already installed (duplicate control-plane call)
  }
  HC_CHECK(!voters.empty());
  for (NodeId v : voters) {
    HC_CHECK_GE(v, 0);
    HC_CHECK_LT(v, cluster_size_);
  }
  voters_ = voters;
  std::sort(voters_.begin(), voters_.end());
  epoch_ = epoch;
  // Registers counted under the old voter set are meaningless under the new
  // one — rebuild from empty, exactly as on a term change. The leader
  // re-probes (AGG_VOTE) and re-announces after the config commits.
  ResetRegisters();
  ++stats_.reconfigures;
}

NodeId Aggregator::NodeOfHost(HostId host) const {
  for (size_t i = 0; i < node_hosts_.size(); ++i) {
    if (node_hosts_[i] == host) {
      return static_cast<NodeId>(i);
    }
  }
  return kInvalidNode;
}

void Aggregator::Flush(Term term) {
  term_ = term;
  ResetRegisters();
  ++stats_.flushes;
}

void Aggregator::ResetRegisters() {
  leader_ = kInvalidNode;
  std::fill(match_.begin(), match_.end(), 0);
  std::fill(completed_.begin(), completed_.end(), 0);
  leader_last_ = 0;
  last_announced_ = 0;
  commit_ = 0;
  pending_ = false;
}

void Aggregator::HandleMessage(HostId src, const MessagePtr& msg) {
  switch (msg->kind()) {
    case MessageKind::kAggVoteReq: {
      // Post-election handshake: flush on a new term and confirm liveness.
      const auto& vote = static_cast<const AggVoteReq&>(*msg);
      if (vote.term() > term_) {
        Flush(vote.term());
      }
      leader_ = NodeOfHost(src);
      // Echo our installed epoch: if it differs from the leader's committed
      // config the leader ignores the reply and re-probes later.
      Send(src, MakeMessage<AggVoteRep>(vote.term(), epoch_));
      break;
    }
    case MessageKind::kAeReq:
      OnLeaderAppend(src, static_cast<const AppendEntriesReq&>(*msg));
      break;
    case MessageKind::kAeRep:
      OnFollowerReply(src, static_cast<const AppendEntriesRep&>(*msg));
      break;
    default:
      HC_LOG_WARN("aggregator: unexpected message %s", msg->Name());
  }
}

void Aggregator::OnLeaderAppend(HostId src, const AppendEntriesReq& req) {
  if (req.term() < term_) {
    return;  // stale leader; drop
  }
  if (req.term() > term_) {
    Flush(req.term());
  }
  const NodeId leader = NodeOfHost(src);
  HC_CHECK_NE(leader, kInvalidNode);
  leader_ = leader;
  const LogIndex announced = req.prev_idx() + req.entries().size();
  if (announced <= last_announced_) {
    // The leader re-announced an index we already saw (heartbeat or a lost
    // message): remember to emit an AGG_COMMIT on the next reply even if the
    // commit index does not advance (check_log_idx / set_pending stages).
    pending_ = true;
  } else {
    last_announced_ = announced;
  }
  leader_last_ = std::max(leader_last_, announced);

  // Forward with the destination rewritten to the multicast group that
  // excludes the leader.
  ++stats_.ae_forwarded;
  Send(groups_excluding_[static_cast<size_t>(leader)],
       MakeMessage<AppendEntriesReq>(req));
}

void Aggregator::OnFollowerReply(HostId src, const AppendEntriesRep& rep) {
  if (rep.term() != term_) {
    if (rep.term() > term_) {
      Flush(rep.term());
    }
    return;
  }
  const NodeId follower = NodeOfHost(src);
  if (follower == kInvalidNode || !rep.success()) {
    return;  // failure replies go directly to the leader, not here
  }
  ++stats_.replies_absorbed;
  const auto f = static_cast<size_t>(follower);
  match_[f] = std::max(match_[f], rep.match());
  completed_[f] = std::max(completed_[f], rep.progress());

  // Quorum commit over the configured voter set: a voting leader always holds
  // its announced entries, so the commit index is the (majority-1)-th largest
  // voting-follower match, capped by what the leader announced. (A non-voting
  // leader — mid-removal — contributes nothing, so all `majority` acks must
  // come from follower matches.)
  std::vector<LogIndex> sorted;
  sorted.reserve(voters_.size());
  bool leader_votes = false;
  for (NodeId n : voters_) {
    if (n != leader_) {
      sorted.push_back(match_[static_cast<size_t>(n)]);
    } else {
      leader_votes = true;
    }
  }
  std::sort(sorted.begin(), sorted.end(), std::greater<LogIndex>());
  const int32_t majority = static_cast<int32_t>(voters_.size()) / 2 + 1;
  const int32_t needed = majority - (leader_votes ? 1 : 0);
  if (static_cast<int32_t>(sorted.size()) < needed) {
    return;  // not enough voting followers to ever reach quorum
  }
  const LogIndex quorum = needed <= 0 ? leader_last_ : sorted[static_cast<size_t>(needed - 1)];
  const LogIndex candidate = std::min(quorum, leader_last_);

  if (candidate > commit_) {
    commit_ = candidate;
    SendAggCommit();
    pending_ = false;
  } else if (pending_) {
    SendAggCommit();
    pending_ = false;
  }
}

void Aggregator::SendAggCommit() {
  ++stats_.commits_sent;
  Send(group_all_, MakeMessage<AggCommitMsg>(term_, commit_, completed_, epoch_));
}

}  // namespace hovercraft
