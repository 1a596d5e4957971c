#include "src/obs/watchdog.h"

#include <cinttypes>
#include <cstdio>
#include <set>
#include <sstream>

namespace hovercraft {
namespace obs {
namespace {

// Stored-violation cap: a mutation run can trip the same invariant at every
// subsequent event; keep the first window and count the rest.
constexpr size_t kMaxStoredViolations = 256;
// Violations echoed to stderr (the first one also dumps the recorder).
constexpr size_t kMaxLoggedViolations = 8;

}  // namespace

const char* WatchdogCodeName(WatchdogCode code) {
  switch (code) {
    case WatchdogCode::kDualLeader:
      return "dual_leader";
    case WatchdogCode::kCommitRegression:
      return "commit_regression";
    case WatchdogCode::kLogDivergence:
      return "log_divergence";
    case WatchdogCode::kDurableRegression:
      return "durable_regression";
    case WatchdogCode::kStaleReadGrant:
      return "stale_read_grant";
    case WatchdogCode::kFlowImbalance:
      return "flow_imbalance";
    case WatchdogCode::kDoubleApply:
      return "double_apply";
    case WatchdogCode::kSuspectCampaign:
      return "suspect_campaign";
  }
  return "?";
}

Watchdog::NodeState& Watchdog::State(NodeId node) {
  return nodes_[static_cast<int32_t>(node)];
}

void Watchdog::Report(WatchdogCode code, const FrEvent& event, std::string detail) {
  ++violations_total_;
  if (violations_.size() < kMaxStoredViolations) {
    violations_.push_back(Violation{code, event.ts, event.node, std::move(detail)});
  }
  if (violations_total_ <= kMaxLoggedViolations) {
    const Violation& v = violations_.back();
    std::fprintf(stderr,
                 "watchdog: %s at t=%" PRId64 "ns node=%d: %s\n",
                 WatchdogCodeName(code), v.ts, static_cast<int>(v.node), v.detail.c_str());
  }
  if (recorder_ != nullptr) {
    recorder_->Record(event.ts, event.node, FrType::kViolation,
                      static_cast<uint64_t>(code));
    recorder_->DumpNow("watchdog violation");
  }
}

void Watchdog::OnFrEvent(const FrEvent& event) {
  if (filtered_ && (event.node < filter_lo_ || event.node >= filter_hi_)) {
    return;
  }
  ++events_;
  switch (event.type) {
    case FrType::kRole: {
      const uint64_t term = event.a;
      const FrRole role = static_cast<FrRole>(event.b);
      if (role == FrRole::kLeader) {
        ++checks_;
        auto [it, inserted] = leader_by_term_.emplace(term, event.node);
        if (!inserted && it->second != event.node) {
          Report(WatchdogCode::kDualLeader, event,
                 "term " + std::to_string(term) + " led by node " +
                     std::to_string(it->second) + " and node " + std::to_string(event.node));
        }
      }
      if (role == FrRole::kCandidate || role == FrRole::kLeader) {
        ++checks_;
        if (event.c != 0) {
          Report(WatchdogCode::kSuspectCampaign, event,
                 std::string(role == FrRole::kLeader ? "leads" : "campaigns") +
                     " while recovery-suspect (term " + std::to_string(term) + ")");
        }
      }
      break;
    }
    case FrType::kCommit: {
      NodeState& st = State(event.node);
      ++checks_;
      if (st.has_commit && event.a < st.commit) {
        Report(WatchdogCode::kCommitRegression, event,
               "commit " + std::to_string(st.commit) + " -> " + std::to_string(event.a) +
                   " without a recovery reset");
      }
      st.commit = event.a;
      st.has_commit = true;
      ++checks_;
      auto [it, inserted] = committed_term_.emplace(event.a, event.b);
      if (!inserted && it->second != event.b) {
        Report(WatchdogCode::kLogDivergence, event,
               "index " + std::to_string(event.a) + " committed with term " +
                   std::to_string(it->second) + " and term " + std::to_string(event.b));
      }
      if (event.a > max_commit_) {
        max_commit_ = event.a;
      }
      break;
    }
    case FrType::kCommitLoss: {
      ++checks_;
      Report(WatchdogCode::kCommitRegression, event,
             "committed entries overwritten: log cut to " + std::to_string(event.a) +
                 " below commit " + std::to_string(event.b));
      break;
    }
    case FrType::kDurable: {
      NodeState& st = State(event.node);
      ++checks_;
      if (st.has_durable && event.b == st.durable_epoch && event.a < st.durable) {
        Report(WatchdogCode::kDurableRegression, event,
               "durable " + std::to_string(st.durable) + " -> " + std::to_string(event.a) +
                   " within restart epoch " + std::to_string(event.b));
      }
      st.durable = event.a;
      st.durable_epoch = event.b;
      st.has_durable = true;
      break;
    }
    case FrType::kLeaseGrant: {
      // Lease disjointness: a current leader's commit index is the cluster
      // maximum (followers only learn commit from it), so a grant below the
      // watermark can only come from a deposed leader whose lease should
      // have expired — the stale-read hazard ReadIndex leases must exclude.
      ++checks_;
      if (event.a < max_commit_) {
        Report(WatchdogCode::kStaleReadGrant, event,
               "read_index " + std::to_string(event.a) + " below cluster commit watermark " +
                   std::to_string(max_commit_));
      }
      break;
    }
    case FrType::kRecovery: {
      if (static_cast<FrRecovery>(event.a) == FrRecovery::kRestart) {
        // A post-crash node legitimately re-advances commit/durable from its
        // recovered baseline; reset the per-node monotonicity floors (the
        // cluster-wide watermark and the index->term map stand: committed
        // data must survive any single-node recovery).
        NodeState& st = State(event.node);
        st.has_commit = false;
        st.has_durable = false;
      } else if (static_cast<FrRecovery>(event.a) == FrRecovery::kTruncate) {
        // Cutting a conflicting uncommitted suffix (or resetting the log to
        // a snapshot point) legitimately lowers the durable index. Commit
        // stays monotonic: only uncommitted entries may be truncated — a cut
        // below commit shows up as kCommitLoss, which is always a violation.
        State(event.node).has_durable = false;
      }
      break;
    }
    case FrType::kApply: {
      ++checks_;
      if (event.c != 0) {
        Report(WatchdogCode::kDoubleApply, event,
               "entry {client " + std::to_string(event.a) + ", seq " + std::to_string(event.b) +
                   "} applied twice (session table bypassed)");
      }
      break;
    }
    case FrType::kFlow: {
      switch (static_cast<FrFlowOp>(event.c)) {
        case FrFlowOp::kOpen:
          ++flow_balance_;
          break;
        case FrFlowOp::kClose:
        case FrFlowOp::kForceRelease:
          --flow_balance_;
          break;
        case FrFlowOp::kNack:
          break;
      }
      ++checks_;
      const int64_t reported = static_cast<int64_t>(event.a);
      const int64_t threshold = static_cast<int64_t>(event.b);
      if (reported != flow_balance_ || flow_balance_ < 0 ||
          (threshold > 0 && reported > threshold)) {
        Report(WatchdogCode::kFlowImbalance, event,
               "ledger reports " + std::to_string(reported) + " open slots, event stream sums " +
                   std::to_string(flow_balance_) + " (threshold " + std::to_string(threshold) +
                   ")");
        flow_balance_ = reported;  // resync so one leak reports once
      }
      break;
    }
    case FrType::kStage:
    case FrType::kLeaseExpire:
    case FrType::kConfig:
    case FrType::kWalFlush:
    case FrType::kViolation:
    case FrType::kBusy:
    case FrType::kDrop:
    case FrType::kNote:
      break;
  }
}

std::string Watchdog::Summary() const {
  std::ostringstream out;
  out << "invariants=" << checks_ << " events=" << events_
      << " violations=" << violations_total_;
  if (violations_total_ > 0) {
    std::set<std::string> codes;
    for (const Violation& v : violations_) {
      codes.insert(WatchdogCodeName(v.code));
    }
    out << " codes=";
    bool first = true;
    for (const std::string& code : codes) {
      out << (first ? "" : ",") << code;
      first = false;
    }
  }
  return out.str();
}

}  // namespace obs
}  // namespace hovercraft
