// The replicated log. Indices are 1-based; index 0 is the sentinel "before
// the log". Supports prefix compaction so long benchmark runs do not hold
// the entire history in memory: the compaction point remembers its term so
// the AppendEntries consistency check still works at the boundary.
#ifndef SRC_RAFT_LOG_H_
#define SRC_RAFT_LOG_H_

#include <cstdint>
#include <cstdio>
#include <deque>
#include <memory>
#include <vector>

#include "src/common/check.h"
#include "src/common/types.h"
#include "src/r2p2/messages.h"
#include "src/r2p2/request_id.h"

namespace hovercraft {

struct LogEntry {
  Term term = 0;
  bool noop = false;
  bool read_only = false;
  // Designated replier (paper section 3.3); immutable once announced.
  NodeId replier = kInvalidNode;
  RequestId rid;
  // FNV-1a hash of the request body, computed once at append; shipped with
  // metadata-only entries so followers can verify their unordered-set hit
  // (paper section 5).
  uint64_t body_hash = 0;
  // Client ack watermark, stamped by the leader from the submitted request
  // and replicated with the metadata. Applied to the session table on the
  // apply path so reply-cache GC is deterministic across replicas.
  uint64_t ack_watermark = 0;
  std::shared_ptr<const RpcRequest> request;  // null only for noop entries
};
// Eight entries per 512-byte deque node. The membership config a rare noop
// entry carries is not stored here but in RaftNode's config list
// (RaftNode::ConfigAt).
static_assert(sizeof(LogEntry) <= 64, "eight entries per 512-byte deque node");

// Canonical body hash for log entries.
uint64_t HashRequestBody(const RpcRequest& request);

class RaftLog {
 public:
  RaftLog() = default;

  // First index still present (after compaction). first_index() - 1 is the
  // compaction point whose term is base_term().
  LogIndex first_index() const { return base_index_ + 1; }
  LogIndex last_index() const { return base_index_ + entries_.size(); }
  Term base_term() const { return base_term_; }
  bool empty() const { return entries_.empty(); }
  size_t size() const { return entries_.size(); }

  Term last_term() const { return entries_.empty() ? base_term_ : entries_.back().term; }

  // Term at `idx`; valid for idx in [base_index, last_index].
  Term TermAt(LogIndex idx) const {
    if (idx == base_index_) {
      return base_term_;
    }
    return At(idx).term;
  }

  bool Contains(LogIndex idx) const { return idx >= first_index() && idx <= last_index(); }

  const LogEntry& At(LogIndex idx) const {
    if (!Contains(idx)) {
      std::fprintf(stderr, "RaftLog::At(%llu) out of range [%llu, %llu]\n",
                   static_cast<unsigned long long>(idx),
                   static_cast<unsigned long long>(first_index()),
                   static_cast<unsigned long long>(last_index()));
    }
    HC_CHECK(Contains(idx));
    return entries_[static_cast<size_t>(idx - base_index_ - 1)];
  }
  LogEntry& At(LogIndex idx) {
    HC_CHECK(Contains(idx));
    return entries_[static_cast<size_t>(idx - base_index_ - 1)];
  }

  // Appends at the tail; returns the new entry's index.
  LogIndex Append(LogEntry entry);

  // Removes all entries with index >= idx (conflict resolution on followers).
  void TruncateFrom(LogIndex idx);

  // Drops entries with index <= idx. idx must be <= last_index and at or
  // below any point still needed (callers enforce applied/match constraints).
  void CompactPrefix(LogIndex idx);

  // Discards the whole log and restarts it after a snapshot at (idx, term).
  // Used when an InstallSnapshot replaces a conflicting or missing history.
  void ResetTo(LogIndex idx, Term term);

  // Finds the log index holding `rid`, or kNoLogIndex. Used for duplicate
  // detection and for serving payload recovery. The latest append of a rid
  // wins; dropping the entry it maps to (truncation or compaction) forgets
  // the rid, even when an older copy of it is still in the log.
  LogIndex FindRequest(const RequestId& rid) const;
  // Slots in the rid index, dead and empty ones included.
  size_t rid_capacity() const { return rid_slots_.size(); }

 private:
  // The rid index is an open-addressing table with linear probing. A slot
  // holds the mapped LogIndex in its low 56 bits and the top byte of the
  // rid's hash above them; 0 is an empty slot. The rid itself is read back
  // from the entry, so the index costs one 8-byte slot per mapping and no
  // heap node, whatever seqs the clients send. A slot whose index is below
  // first_index() is dead: compaction forgets its entries' rids without
  // touching the table, and truncation (whose indices later appends reuse)
  // overwrites the slot with kRidTombstone. An append of a new rid reuses
  // the first dead slot on its probe path; the rest go at the next rehash:
  // an append rehashes before the table passes 3/4 full, dead slots counted,
  // and a compaction once the log would fit in an eighth of it.

  // The slot mapping `rid`, or the empty slot that ends its probe sequence.
  size_t FindRidSlot(const RequestId& rid, uint64_t hash) const;
  // The first slot on `hash`'s probe path that maps no live entry: a dead
  // slot, or the empty one that ends the path.
  size_t FreeRidSlot(uint64_t hash) const;
  bool RidSlotLive(uint64_t slot) const;
  // Rebuilds the table from its live slots, at most half full; in place when
  // that is its current capacity.
  void RehashRids();
  // Empties the dead slots and re-places the live ones, in place.
  void PurgeDeadRids();

  LogIndex base_index_ = 0;  // compaction point (0 = nothing compacted)
  Term base_term_ = 0;
  std::deque<LogEntry> entries_;
  std::vector<uint64_t> rid_slots_;  // power-of-two size, or empty
  size_t rid_slots_used_ = 0;        // non-empty slots, dead ones included
};

}  // namespace hovercraft

#endif  // SRC_RAFT_LOG_H_
