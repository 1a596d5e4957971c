// Raft protocol messages, including the HovercRaft extensions: metadata-only
// log entries, the replier/read-only fields, progress stamps piggybacked on
// append_entries replies, the aggregator's AGG_COMMIT, and payload recovery.
//
// Wire sizes follow the R2P2-framed layouts: each message declares the bytes
// it would occupy so the network model charges bandwidth and CPU accurately.
#ifndef SRC_RAFT_MESSAGES_H_
#define SRC_RAFT_MESSAGES_H_

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "src/common/check.h"
#include "src/common/types.h"
#include "src/net/message.h"
#include "src/r2p2/messages.h"
#include "src/r2p2/request_id.h"
#include "src/raft/membership.h"

namespace hovercraft {

// Fixed header bytes of an append_entries message (term, leader, prev index,
// prev term, leader commit).
constexpr int32_t kAeFixedBytes = 40;
// Metadata bytes per log entry: (req_id, src_port, src_ip) 3-tuple + term +
// type/replier fields + body hash (paper section 5) + the client ack
// watermark replicated for session-table GC (Raft section 8).
constexpr int32_t kEntryMetaBytes = 32;
constexpr int32_t kAeReplyBytes = 40;
constexpr int32_t kVoteBytes = 32;
constexpr int32_t kAggCommitFixedBytes = 24;
constexpr int32_t kAggCommitPerNodeBytes = 8;
constexpr int32_t kRecoveryReqBytes = 24;
constexpr int32_t kRecoveryRepFixedBytes = 24;
// VanillaRaft embeds the client request inside append_entries as received:
// the R2P2 header plus transport framing travel with it (the leader re-
// encapsulates the whole RPC, paper section 3.1).
constexpr int32_t kPayloadEncapBytes = 40;
// Membership-change entries additionally ship the new config: a fixed header
// plus one id + role flag per member (dissertation section 4.1).
constexpr int32_t kConfigFixedBytes = 8;
constexpr int32_t kConfigPerMemberBytes = 8;

inline int32_t ConfigWireBytes(const MembershipConfigPtr& config) {
  if (config == nullptr) {
    return 0;
  }
  return kConfigFixedBytes + kConfigPerMemberBytes * static_cast<int32_t>(config->members.size());
}

// A log entry as carried inside append_entries. In VanillaRaft mode `request`
// is set and its body counts toward the wire size; in HovercRaft mode the
// leader sends metadata only and `request` is still referenced in memory at
// the leader but contributes 0 payload bytes on the wire.
struct WireEntry {
  Term term = 0;
  bool noop = false;
  bool read_only = false;
  NodeId replier = kInvalidNode;
  RequestId rid;
  // Hash of the request body (paper section 5): metadata-only entries carry
  // it so followers detect identity collisions / corrupt unordered-set hits
  // and fall back to recovery instead of diverging.
  uint64_t body_hash = 0;
  // Client ack watermark the leader stamped at append time. Replicated so
  // every node garbage-collects its client-session table at the same log
  // position, independent of which attempt its unordered set happens to hold.
  uint64_t ack_watermark = 0;
  std::shared_ptr<const RpcRequest> request;  // may be null for noop
  bool carries_payload = false;               // true in VanillaRaft mode
  // Set on membership-change entries (which are noops on the apply path):
  // the new cluster config, effective at the follower as soon as the entry
  // is appended.
  MembershipConfigPtr config;

  int32_t WireBytes() const {
    int32_t bytes = kEntryMetaBytes;
    if (carries_payload && request != nullptr) {
      bytes += request->PayloadBytes() + kPayloadEncapBytes;
    }
    bytes += ConfigWireBytes(config);
    return bytes;
  }
};

class AppendEntriesReq final : public Message {
 public:
  static constexpr MessageKind kKind = MessageKind::kAeReq;
  AppendEntriesReq(Term term, NodeId leader, LogIndex prev_idx, Term prev_term,
                   LogIndex leader_commit, std::vector<WireEntry> entries)
      : Message(kKind),
        term_(term),
        leader_(leader),
        prev_idx_(prev_idx),
        prev_term_(prev_term),
        leader_commit_(leader_commit),
        entries_(std::move(entries)) {
    payload_bytes_ = kAeFixedBytes;
    for (const WireEntry& e : entries_) {
      payload_bytes_ += e.WireBytes();
    }
  }

  int32_t PayloadBytes() const override { return payload_bytes_; }

  Term term() const { return term_; }
  NodeId leader() const { return leader_; }
  LogIndex prev_idx() const { return prev_idx_; }
  Term prev_term() const { return prev_term_; }
  LogIndex leader_commit() const { return leader_commit_; }
  const std::vector<WireEntry>& entries() const { return entries_; }

 private:
  Term term_;
  NodeId leader_;
  LogIndex prev_idx_;
  Term prev_term_;
  LogIndex leader_commit_;
  std::vector<WireEntry> entries_;
  int32_t payload_bytes_;
};

// A progress stamp: a node's restart epoch over its applied index (16 + 48
// bits). Within one epoch the applied index never falls, so of two stamps from
// one node the greater is the newer report, whichever path carried it.
inline uint64_t ProgressStamp(uint64_t epoch, LogIndex applied) {
  HC_CHECK_LT(epoch, uint64_t{1} << 16);
  HC_CHECK_LT(applied, uint64_t{1} << 48);
  return epoch << 48 | applied;
}
inline uint64_t EpochOf(uint64_t stamp) { return stamp >> 48; }
inline LogIndex AppliedOf(uint64_t stamp) { return stamp & ((uint64_t{1} << 48) - 1); }

class AppendEntriesRep final : public Message {
 public:
  static constexpr MessageKind kKind = MessageKind::kAeRep;
  AppendEntriesRep(NodeId from, Term term, bool success, LogIndex match, uint64_t progress,
                   LogIndex last_hint, bool waiting_recovery, LogIndex commit = 0)
      : Message(kKind),
        from_(from),
        term_(term),
        success_(success),
        match_(match),
        progress_(progress),
        last_hint_(last_hint),
        waiting_recovery_(waiting_recovery),
        commit_(commit) {}

  int32_t PayloadBytes() const override { return kAeReplyBytes; }

  NodeId from() const { return from_; }
  Term term() const { return term_; }
  bool success() const { return success_; }
  LogIndex match() const { return match_; }
  uint64_t progress() const { return progress_; }
  LogIndex last_hint() const { return last_hint_; }
  bool waiting_recovery() const { return waiting_recovery_; }
  // The follower's commit index at reply time. Lets the leader track how far
  // each member has observed committed membership configs, gating the switch
  // back to aggregator-carried commit delivery across a config epoch change.
  LogIndex commit() const { return commit_; }

 private:
  NodeId from_;
  Term term_;
  bool success_;
  LogIndex match_;
  uint64_t progress_;
  LogIndex last_hint_;
  bool waiting_recovery_;
  LogIndex commit_;
};

class RequestVoteReq final : public Message {
 public:
  // With pre_vote set the request is a PreVote poll (Raft dissertation
  // section 9.6): `term` is the term the candidate *would* campaign at, and
  // handling it must never mutate the receiver's term or vote.
  RequestVoteReq(Term term, NodeId candidate, LogIndex last_idx, Term last_term,
                 bool pre_vote = false)
      : Message(pre_vote ? MessageKind::kPreVoteReq : MessageKind::kVoteReq),
        term_(term),
        candidate_(candidate),
        last_idx_(last_idx),
        last_term_(last_term) {}

  int32_t PayloadBytes() const override { return kVoteBytes; }

  Term term() const { return term_; }
  NodeId candidate() const { return candidate_; }
  LogIndex last_idx() const { return last_idx_; }
  Term last_term() const { return last_term_; }
  bool pre_vote() const { return kind() == MessageKind::kPreVoteReq; }

 private:
  Term term_;
  NodeId candidate_;
  LogIndex last_idx_;
  Term last_term_;
};

class RequestVoteRep final : public Message {
 public:
  // Pre-vote replies echo the candidate's proposed term (not the voter's
  // current term) so the pre-candidate can match them to its poll round.
  RequestVoteRep(NodeId from, Term term, bool granted, bool pre_vote = false)
      : Message(pre_vote ? MessageKind::kPreVoteRep : MessageKind::kVoteRep),
        from_(from),
        term_(term),
        granted_(granted) {}

  int32_t PayloadBytes() const override { return kVoteBytes; }

  NodeId from() const { return from_; }
  Term term() const { return term_; }
  bool granted() const { return granted_; }
  bool pre_vote() const { return kind() == MessageKind::kPreVoteRep; }

 private:
  NodeId from_;
  Term term_;
  bool granted_;
};

// Leader-to-replier grant of a linearizable read (ReadIndex, dissertation
// section 6.4): the leader confirmed its leadership lease and instructs
// `replier` to answer `rid` from its local state machine once its applied
// index reaches `read_index`. The request body travels separately via the
// client multicast (unordered store); only metadata crosses the wire here.
class ReadIndexGrantMsg final : public Message {
 public:
  static constexpr MessageKind kKind = MessageKind::kReadIndexGrant;
  ReadIndexGrantMsg(NodeId from, Term term, LogIndex read_index, RequestId rid)
      : Message(kKind), from_(from), term_(term), read_index_(read_index), rid_(rid) {}

  int32_t PayloadBytes() const override { return kVoteBytes; }

  NodeId from() const { return from_; }
  Term term() const { return term_; }
  LogIndex read_index() const { return read_index_; }
  const RequestId& rid() const { return rid_; }

 private:
  NodeId from_;
  Term term_;
  LogIndex read_index_;
  RequestId rid_;
};

// Multicast by the aggregator when the commit index advances (paper
// section 6.4). Carries per-node progress stamps ("completed requests") so
// the leader can run JBSQ without seeing individual append_entries replies.
class AggCommitMsg final : public Message {
 public:
  static constexpr MessageKind kKind = MessageKind::kAggCommit;
  AggCommitMsg(Term term, LogIndex commit, std::vector<uint64_t> stamps, LogIndex epoch = 0)
      : Message(kKind), term_(term), commit_(commit), progress_(std::move(stamps)), epoch_(epoch) {}

  int32_t PayloadBytes() const override {
    return kAggCommitFixedBytes + kAggCommitPerNodeBytes * static_cast<int32_t>(progress_.size());
  }

  Term term() const { return term_; }
  LogIndex commit() const { return commit_; }
  const std::vector<uint64_t>& progress() const { return progress_; }
  // Config epoch (log index of the committed config) the aggregator computed
  // this quorum under. Nodes discard AGG_COMMITs whose epoch does not match
  // their own committed config: a quorum counted over a stale voter set must
  // not advance the commit index (docs/membership.md).
  LogIndex epoch() const { return epoch_; }

 private:
  Term term_;
  LogIndex commit_;
  std::vector<uint64_t> progress_;
  LogIndex epoch_;
};

// Post-election handshake between a new leader and the aggregator (paper
// section 6.4): the vote_reply tells the leader the aggregator is alive, and
// the vote_request's term flushes aggregator soft state.
class AggVoteReq final : public Message {
 public:
  static constexpr MessageKind kKind = MessageKind::kAggVoteReq;
  explicit AggVoteReq(Term term, LogIndex epoch = 0) : Message(kKind), term_(term), epoch_(epoch) {}
  int32_t PayloadBytes() const override { return kVoteBytes; }
  Term term() const { return term_; }
  // The leader's committed config epoch; a probe whose epoch trails the
  // aggregator's installed config is answered with the aggregator's epoch so
  // the leader can re-probe after it catches up.
  LogIndex epoch() const { return epoch_; }

 private:
  Term term_;
  LogIndex epoch_;
};

class AggVoteRep final : public Message {
 public:
  static constexpr MessageKind kKind = MessageKind::kAggVoteRep;
  explicit AggVoteRep(Term term, LogIndex epoch = 0) : Message(kKind), term_(term), epoch_(epoch) {}
  int32_t PayloadBytes() const override { return kVoteBytes; }
  Term term() const { return term_; }
  LogIndex epoch() const { return epoch_; }

 private:
  Term term_;
  LogIndex epoch_;
};

constexpr int32_t kSnapshotFixedBytes = 40;

// Leader -> straggler state transfer: when log compaction has passed the
// entries a follower needs, the leader ships the full application state as
// of `last_included` instead (Raft's InstallSnapshot; an extension beyond
// the paper, which never runs long enough to compact).
class InstallSnapshotReq final : public Message {
 public:
  static constexpr MessageKind kKind = MessageKind::kSnapshotReq;
  InstallSnapshotReq(Term term, NodeId leader, LogIndex last_included, Term included_term,
                     Body state, MembershipConfigPtr config = nullptr, LogIndex config_idx = 0)
      : Message(kKind),
        term_(term),
        leader_(leader),
        last_included_(last_included),
        included_term_(included_term),
        state_(std::move(state)),
        config_(std::move(config)),
        config_idx_(config_idx) {}

  int32_t PayloadBytes() const override {
    return kSnapshotFixedBytes + BodySize(state_) + ConfigWireBytes(config_);
  }

  Term term() const { return term_; }
  NodeId leader() const { return leader_; }
  LogIndex last_included() const { return last_included_; }
  Term included_term() const { return included_term_; }
  const Body& state() const { return state_; }
  // Cluster config as of `last_included`, so a fresh learner whose log starts
  // from this snapshot still learns the membership (dissertation section 4.1:
  // snapshots carry the latest config covered by the snapshot).
  const MembershipConfigPtr& config() const { return config_; }
  LogIndex config_idx() const { return config_idx_; }

 private:
  Term term_;
  NodeId leader_;
  LogIndex last_included_;
  Term included_term_;
  Body state_;
  MembershipConfigPtr config_;
  LogIndex config_idx_;
};

class InstallSnapshotRep final : public Message {
 public:
  static constexpr MessageKind kKind = MessageKind::kSnapshotRep;
  InstallSnapshotRep(NodeId from, Term term, LogIndex last_included)
      : Message(kKind), from_(from), term_(term), last_included_(last_included) {}

  int32_t PayloadBytes() const override { return kSnapshotFixedBytes; }

  NodeId from() const { return from_; }
  Term term() const { return term_; }
  LogIndex last_included() const { return last_included_; }

 private:
  NodeId from_;
  Term term_;
  LogIndex last_included_;
};

// Follower -> leader request for a client payload it missed on multicast
// (paper section 5, recovery_request).
class RecoveryReq final : public Message {
 public:
  static constexpr MessageKind kKind = MessageKind::kRecoveryReq;
  RecoveryReq(NodeId from, RequestId rid) : Message(kKind), from_(from), rid_(rid) {}

  int32_t PayloadBytes() const override { return kRecoveryReqBytes; }

  NodeId from() const { return from_; }
  const RequestId& rid() const { return rid_; }

 private:
  NodeId from_;
  RequestId rid_;
};

class RecoveryRep final : public Message {
 public:
  static constexpr MessageKind kKind = MessageKind::kRecoveryRep;
  RecoveryRep(RequestId rid, std::shared_ptr<const RpcRequest> request)
      : Message(kKind), rid_(rid), request_(std::move(request)) {}

  int32_t PayloadBytes() const override {
    return kRecoveryRepFixedBytes + (request_ ? request_->PayloadBytes() : 0);
  }

  const RequestId& rid() const { return rid_; }
  bool found() const { return request_ != nullptr; }
  const std::shared_ptr<const RpcRequest>& request() const { return request_; }

 private:
  RequestId rid_;
  std::shared_ptr<const RpcRequest> request_;
};

}  // namespace hovercraft

#endif  // SRC_RAFT_MESSAGES_H_
