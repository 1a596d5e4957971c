#include "src/raft/log.h"

#include <cstddef>
#include <utility>

#include "src/common/buffer.h"

namespace hovercraft {

namespace {

constexpr int kRidTagShift = 56;
constexpr uint64_t kRidIndexMask = (uint64_t{1} << kRidTagShift) - 1;
// Index 0 is below every first_index(), so this is a dead, non-empty slot.
constexpr uint64_t kRidTombstone = uint64_t{1} << kRidTagShift;
constexpr size_t kMinRidSlots = 16;

uint64_t RidHash(const RequestId& rid) { return RequestIdHash()(rid); }
uint64_t RidTag(uint64_t hash) { return hash & ~kRidIndexMask; }

}  // namespace

uint64_t HashRequestBody(const RpcRequest& request) {
  if (request.body() == nullptr) {
    return 0;
  }
  return Fnv1aHash(std::span<const uint8_t>(request.body()->data(), request.body()->size()));
}

bool RaftLog::RidSlotLive(uint64_t slot) const {
  return slot != 0 && (slot & kRidIndexMask) >= first_index();
}

size_t RaftLog::FindRidSlot(const RequestId& rid, uint64_t hash) const {
  const size_t mask = rid_slots_.size() - 1;
  for (size_t pos = hash & mask;; pos = (pos + 1) & mask) {
    const uint64_t slot = rid_slots_[pos];
    if (slot == 0 || (RidTag(slot) == RidTag(hash) && RidSlotLive(slot) &&
                      At(slot & kRidIndexMask).rid == rid)) {
      return pos;
    }
  }
}

size_t RaftLog::FreeRidSlot(uint64_t hash) const {
  const size_t mask = rid_slots_.size() - 1;
  size_t pos = hash & mask;
  while (RidSlotLive(rid_slots_[pos])) {
    pos = (pos + 1) & mask;
  }
  return pos;
}

void RaftLog::RehashRids() {
  size_t live = 0;
  for (uint64_t slot : rid_slots_) {
    live += RidSlotLive(slot) ? 1 : 0;
  }
  size_t capacity = kMinRidSlots;
  while (capacity < 2 * (live + 1)) {
    capacity *= 2;
  }
  rid_slots_used_ = live;
  if (capacity == rid_slots_.size()) {
    PurgeDeadRids();
    return;
  }
  const std::vector<uint64_t> old = std::exchange(rid_slots_, std::vector<uint64_t>(capacity, 0));
  for (uint64_t slot : old) {
    if (RidSlotLive(slot)) {
      rid_slots_[FreeRidSlot(RidHash(At(slot & kRidIndexMask).rid))] = slot;
    }
  }
}

void RaftLog::PurgeDeadRids() {
  // An empty slot ends every probe path, so no live slot's path crosses the
  // first one (the table is at most 3/4 full, so there is one): sweeping
  // from just after it, each path lies before its slot.
  const size_t mask = rid_slots_.size() - 1;
  size_t start = 0;
  while (rid_slots_[start] != 0) {
    ++start;
  }
  for (uint64_t& slot : rid_slots_) {
    slot = RidSlotLive(slot) ? slot : 0;
  }
  // Re-placing each live slot at the first empty slot of its path moves it
  // back or leaves it; slots the sweep has passed are never emptied again,
  // so every path re-placed so far stays unbroken.
  for (size_t pos = (start + 1) & mask; pos != start; pos = (pos + 1) & mask) {
    const uint64_t slot = rid_slots_[pos];
    if (slot != 0) {
      rid_slots_[pos] = 0;
      rid_slots_[FreeRidSlot(RidHash(At(slot & kRidIndexMask).rid))] = slot;
    }
  }
}

LogIndex RaftLog::Append(LogEntry entry) {
  entries_.push_back(std::move(entry));
  const LogIndex idx = last_index();
  const LogEntry& e = entries_.back();
  if (!e.noop) {
    HC_CHECK_LE(idx, kRidIndexMask);
    if ((rid_slots_used_ + 1) * 4 > rid_slots_.size() * 3) {
      RehashRids();
    }
    const uint64_t hash = RidHash(e.rid);
    size_t pos = FindRidSlot(e.rid, hash);
    if (rid_slots_[pos] == 0) {
      // A new rid takes the first dead slot on its probe path when there is
      // one, so the slots compaction leaves dead are reused instead of
      // waiting for a rehash to purge them.
      pos = FreeRidSlot(hash);
      rid_slots_used_ += rid_slots_[pos] == 0 ? 1 : 0;
    }
    rid_slots_[pos] = RidTag(hash) | idx;
  }
  return idx;
}

void RaftLog::TruncateFrom(LogIndex idx) {
  HC_CHECK_GE(idx, first_index());
  while (last_index() >= idx) {
    const LogEntry& e = entries_.back();
    if (!e.noop) {
      // The latest append of a rid is the one its slot maps to, so the tail
      // entry's rid maps to the tail, or to nothing once a newer copy was
      // truncated.
      uint64_t& slot = rid_slots_[FindRidSlot(e.rid, RidHash(e.rid))];
      if (slot != 0) {
        HC_CHECK_EQ(slot & kRidIndexMask, last_index());
        slot = kRidTombstone;
      }
    }
    entries_.pop_back();
  }
}

void RaftLog::CompactPrefix(LogIndex idx) {
  if (idx <= base_index_) {
    return;
  }
  HC_CHECK_LE(idx, last_index());
  base_term_ = TermAt(idx);
  // The dropped entries' rid slots die with them (their indices fall below
  // first_index()); the table shrinks once it is mostly dead.
  entries_.erase(entries_.begin(), entries_.begin() + static_cast<ptrdiff_t>(idx - base_index_));
  base_index_ = idx;
  if (rid_slots_.size() > kMinRidSlots && entries_.size() * 8 < rid_slots_.size()) {
    RehashRids();
  }
}

void RaftLog::ResetTo(LogIndex idx, Term term) {
  entries_.clear();
  rid_slots_ = std::vector<uint64_t>();
  rid_slots_used_ = 0;
  base_index_ = idx;
  base_term_ = term;
}

LogIndex RaftLog::FindRequest(const RequestId& rid) const {
  if (rid_slots_.empty()) {
    return kNoLogIndex;
  }
  const uint64_t slot = rid_slots_[FindRidSlot(rid, RidHash(rid))];
  return slot & kRidIndexMask;
}

}  // namespace hovercraft
