#include "src/storage/stable_storage.h"

#include <algorithm>
#include <cstdio>
#include <limits>
#include <map>
#include <optional>
#include <utility>

#include "src/common/buffer.h"
#include "src/common/check.h"
#include "src/common/checksum.h"
#include "src/obs/observability.h"

namespace hovercraft {

namespace {

constexpr size_t kRecordHeaderBytes = 4 + 1 + 8;  // len, type, crc
constexpr char kSnapshotFile[] = "snapshot";
// A segment rotates once it reaches segment_bytes_, so it ends at most one
// record past that; its buffer is sized for this much overshoot up front.
constexpr size_t kSegmentHeadroom = 4096;
// The corruption hook flips the first byte of an entry record's term field:
// inside the CRC-covered payload, past the index a later scan still reads.
constexpr size_t kEntryFlipOffset = kRecordHeaderBytes + 8;

uint64_t RecordCrc(uint8_t type, std::span<const uint8_t> payload) {
  const uint8_t t[1] = {type};
  return Crc32c(payload, Crc32c(std::span<const uint8_t>(t, 1)));
}

// One WAL record: [u32 len][u8 type][u64 crc][payload]. The only parser of
// the framing; Recover and the corruption hook both walk records with it.
struct RecordFrame {
  uint8_t type = 0;
  uint64_t crc = 0;
  std::span<const uint8_t> payload;

  size_t size() const { return kRecordHeaderBytes + payload.size(); }
};

// The record starting at byte `off` (<= bytes.size()) of a segment, or
// nullopt when the segment ends inside it.
std::optional<RecordFrame> FrameAt(std::span<const uint8_t> bytes, size_t off) {
  if (bytes.size() - off < kRecordHeaderBytes) {
    return std::nullopt;
  }
  BufferReader hdr(bytes.subspan(off, kRecordHeaderBytes));
  uint32_t len = 0;
  RecordFrame frame;
  HC_CHECK(hdr.GetU32(len).ok() && hdr.GetU8(frame.type).ok() && hdr.GetU64(frame.crc).ok());
  if (bytes.size() - off - kRecordHeaderBytes < len) {
    return std::nullopt;
  }
  frame.payload = bytes.subspan(off + kRecordHeaderBytes, len);
  return frame;
}

}  // namespace

std::string StableStorage::SegmentName(uint64_t seq) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "wal-%08llu", static_cast<unsigned long long>(seq));
  return buf;
}

void StableStorage::OpenSegment(uint64_t seq) {
  segments_.push_back(Segment{seq, 0});
  open_name_ = SegmentName(seq);
  disk_->Reserve(open_name_, segment_bytes_ + kSegmentHeadroom);
}

StableStorage::Segment& StableStorage::WritableSegment() {
  if (segments_.empty()) {
    OpenSegment(1);
  } else if (!in_baseline_ && disk_->Size(open_name_) >= segment_bytes_) {
    OpenSegment(segments_.back().seq + 1);
    WriteBaseline();
  }
  return segments_.back();
}

void StableStorage::WriteBaseline() {
  // A freshly rotated segment restates the compaction point and the hard
  // state, so recovery can start from any retained segment prefix.
  in_baseline_ = true;
  {
    BufferWriter w(16);
    w.PutU64(base_idx_);
    w.PutU64(base_term_);
    AppendRecord(RecordType::kCompact, w.bytes());
  }
  {
    BufferWriter w(16);
    w.PutU64(static_cast<uint64_t>(term_));
    w.PutI64(static_cast<int64_t>(voted_for_));
    AppendRecord(RecordType::kHardState, w.bytes());
  }
  in_baseline_ = false;
}

void StableStorage::AppendRecord(RecordType type, std::span<const uint8_t> payload) {
  WritableSegment();
  BufferWriter w(kRecordHeaderBytes + payload.size());
  w.PutU32(static_cast<uint32_t>(payload.size()));
  w.PutU8(static_cast<uint8_t>(type));
  w.PutU64(RecordCrc(static_cast<uint8_t>(type), payload));
  w.PutBytes(payload);
  disk_->Append(open_name_, w.bytes().data(), w.bytes().size());
}

void StableStorage::PersistHardState(Term term, NodeId voted_for) {
  term_ = term;
  voted_for_ = voted_for;
  BufferWriter w(16);
  w.PutU64(static_cast<uint64_t>(term));
  w.PutI64(static_cast<int64_t>(voted_for));
  AppendRecord(RecordType::kHardState, w.bytes());
  ++stats_.meta_records;
  // A vote/term promise must never be forgotten across a crash; its sync is
  // deliberately priced at zero (rare, off the data path).
  disk_->SyncNow();
}

void StableStorage::AppendEntry(LogIndex idx, Term term, NodeId replier,
                                std::span<const uint8_t> payload) {
  BufferWriter w(24 + payload.size());
  w.PutU64(idx);
  w.PutU64(static_cast<uint64_t>(term));
  w.PutI64(static_cast<int64_t>(replier));
  w.PutBytes(payload);
  Segment& seg = WritableSegment();  // rotate before noting the segment's max
  seg.max_entry_idx = std::max(seg.max_entry_idx, idx);
  AppendRecord(RecordType::kEntry, w.bytes());
  ++stats_.entry_records;
}

void StableStorage::AppendAnnounce(LogIndex idx, NodeId replier) {
  BufferWriter w(16);
  w.PutU64(idx);
  w.PutI64(static_cast<int64_t>(replier));
  AppendRecord(RecordType::kAnnounce, w.bytes());
  ++stats_.meta_records;
}

void StableStorage::AppendTruncate(LogIndex from) {
  BufferWriter w(8);
  w.PutU64(from);
  AppendRecord(RecordType::kTruncate, w.bytes());
  ++stats_.meta_records;
}

void StableStorage::AppendCompact(LogIndex base_idx, Term base_term) {
  base_idx_ = base_idx;
  base_term_ = base_term;
  BufferWriter w(16);
  w.PutU64(base_idx);
  w.PutU64(base_term);
  AppendRecord(RecordType::kCompact, w.bytes());
  ++stats_.meta_records;
  // Drop the longest prefix of segments made obsolete by the new base. Only
  // a prefix is safe: a later segment's truncate/announce records may refer
  // to entries stored in any earlier retained segment.
  while (segments_.size() > 1 && segments_.front().max_entry_idx <= base_idx) {
    disk_->Delete(SegmentName(segments_.front().seq));
    segments_.erase(segments_.begin());
    ++stats_.segments_dropped;
  }
}

BufferWriter StableStorage::SnapshotWriter() {
  BufferWriter file;
  file.PutU64(0);  // crc
  file.PutU64(0);  // idx
  file.PutU64(0);  // term
  file.PutU32(0);  // len
  return file;
}

void StableStorage::SaveSnapshot(LogIndex idx, Term term, BufferWriter head, Image image) {
  HC_CHECK_GE(head.size(), kSnapshotHeaderBytes);
  const size_t len = head.size() - kSnapshotHeaderBytes + image.size();
  // The length field is 32 bits: a larger image would frame a file that
  // Recover rejects, silently turning every restart into a suspect one.
  HC_CHECK_LE(len, std::numeric_limits<uint32_t>::max());
  head.PatchU64(8, idx);
  head.PatchU64(16, static_cast<uint64_t>(term));
  head.PatchU32(24, static_cast<uint32_t>(len));
  const uint32_t head_crc = Crc32c(std::span<const uint8_t>(head.bytes()).subspan(8));
  head.PatchU64(0, Crc32cCombine(head_crc, image.crc(), image.size()));
  disk_->WriteAndSync(kSnapshotFile, head.TakeBytes(), std::move(image));
  ++stats_.snapshots_saved;
}

bool StableStorage::Sync(SyncCallback cb) {
  const bool coalesce = policy_ != FsyncPolicy::kSyncPerAppend;
  return disk_->Sync(std::move(cb), coalesce);
}

LogIndex StableStorage::CorruptNewestEntry(LogIndex lo, LogIndex hi,
                                           const std::function<bool(LogIndex)>& eligible) {
  if (lo > hi) {
    return kNoLogIndex;
  }
  // Replays the retained records' effect on [lo, hi]: an entry record above
  // the base locates its index, and a later truncate at or below the index,
  // a compaction past it or the last recovery's cut drops the location.
  // Only framing and indices are read, never CRCs, so an entry this hook
  // already flipped is still found (the flip avoids the index).
  struct Location {
    size_t segment = 0;  // position in segments_
    size_t offset = 0;
  };
  std::map<LogIndex, Location> live;
  LogIndex base = 0;
  bool cut_pending = recovered_seq_ != 0;
  auto apply_cut = [&] {
    live.erase(live.upper_bound(recovered_tail_), live.end());
    cut_pending = false;
  };
  for (size_t si = 0; si < segments_.size(); ++si) {
    const uint64_t seq = segments_[si].seq;
    if (cut_pending && seq > recovered_seq_) {
      apply_cut();
    }
    const std::span<const uint8_t> bytes = disk_->ReadView(SegmentName(seq));
    for (size_t off = 0;;) {
      if (cut_pending && seq == recovered_seq_ && off >= recovered_end_) {
        apply_cut();
      }
      const std::optional<RecordFrame> frame = FrameAt(bytes, off);
      if (!frame) {
        break;
      }
      BufferReader r(frame->payload);
      uint64_t v = 0;
      if (r.GetU64(v).ok()) {
        switch (static_cast<RecordType>(frame->type)) {
          case RecordType::kEntry:
            if (v > base && v >= lo && v <= hi) {
              live[v] = Location{si, off};
            }
            break;
          case RecordType::kTruncate:
            live.erase(live.lower_bound(v), live.end());
            break;
          case RecordType::kCompact:
            if (v > base) {
              base = v;
              live.erase(live.begin(), live.upper_bound(base));
            }
            break;
          default:
            break;
        }
      }
      off += frame->size();
    }
  }
  if (cut_pending) {
    apply_cut();
  }
  for (auto it = live.rbegin(); it != live.rend(); ++it) {
    const Location& at = it->second;
    if (eligible(it->first) &&
        disk_->FlipByte(SegmentName(segments_[at.segment].seq), at.offset + kEntryFlipOffset)) {
      return it->first;
    }
  }
  return kNoLogIndex;
}

bool StableStorage::CorruptEntry(LogIndex idx) {
  return CorruptNewestEntry(idx, idx, [](LogIndex) { return true; }) != kNoLogIndex;
}

bool StableStorage::CorruptSnapshot() {
  return disk_->FlipByte(kSnapshotFile, disk_->Size(kSnapshotFile) / 2);
}

StableStorage::Recovery StableStorage::Recover(bool protocol_aware) {
  ++stats_.recoveries;
  // Recovery milestone as a flight-recorder event.
  auto recovery_mark = [this](obs::FrRecovery kind, uint64_t arg) {
    Simulator* sim = disk_->sim();
    if (auto* fr = obs::FrOf(sim)) {
      fr->Record(sim->Now(), node_, obs::FrType::kRecovery,
                 static_cast<uint64_t>(kind), arg);
    }
  };
  Recovery rec;
  segments_.clear();

  // --- snapshot file --------------------------------------------------------
  if (disk_->Exists(kSnapshotFile)) {
    const Body raw = disk_->ReadBody(kSnapshotFile);
    BufferReader r(raw.bytes());
    uint64_t crc = 0;
    uint64_t idx = 0;
    uint64_t term = 0;
    uint32_t len = 0;
    bool ok = r.GetU64(crc).ok() && r.GetU64(idx).ok() && r.GetU64(term).ok() &&
              r.GetU32(len).ok() && r.remaining() == len;
    if (ok) {
      ok = crc == Crc32c(raw.bytes().subspan(8));
    }
    if (ok) {
      rec.has_snapshot = true;
      rec.snapshot_index = idx;
      rec.snapshot_term = term;
      rec.snapshot_payload = raw.Slice(kSnapshotHeaderBytes, len);
    } else {
      // A damaged snapshot loses durable applied state below the log base;
      // the node must be repaired by an InstallSnapshot from the leader.
      rec.suspect = true;
    }
  }

  // --- WAL segments ---------------------------------------------------------
  std::vector<std::string> files = disk_->List("wal-");
  bool hole = false;
  LogIndex hole_idx = 0;
  bool midstream_break = false;
  bool stop_all = false;  // naive-mode silent truncation tripped
  LogIndex durable_tail = 0;

  for (size_t fi = 0; fi < files.size(); ++fi) {
    const std::string& file = files[fi];
    uint64_t seq = 0;
    if (std::sscanf(file.c_str(), "wal-%llu", reinterpret_cast<unsigned long long*>(&seq)) != 1) {
      continue;
    }
    if (stop_all) {
      disk_->Delete(file);
      continue;
    }
    segments_.push_back(Segment{seq, 0});
    Segment& seg = segments_.back();
    const Body bytes = disk_->ReadBody(file);
    size_t off = 0;
    while (off < bytes.size()) {
      const std::optional<RecordFrame> frame = FrameAt(bytes, off);
      if (!frame) {
        // The byte stream ends mid-record. At the physical tail of the WAL
        // this is a torn write (unsynced, hence unacked): truncate it. A
        // CRC-valid record beyond the break — found by resyncing on the next
        // plausible header — proves the break sits *inside* durable data
        // (e.g. a flipped length field), so the entries beyond it are lost:
        // suspect territory, and their indices still raise the suspect floor.
        bool data_beyond = fi + 1 < files.size();
        if (protocol_aware) {
          size_t probe = off + 1;
          while (probe + kRecordHeaderBytes <= bytes.size()) {
            const std::optional<RecordFrame> found = FrameAt(bytes, probe);
            if (found && found->type >= 1 && found->type <= 5 &&
                found->crc == RecordCrc(found->type, found->payload)) {
              data_beyond = true;
              if (static_cast<RecordType>(found->type) == RecordType::kEntry) {
                BufferReader pr(found->payload);
                uint64_t pidx = 0;
                if (pr.GetU64(pidx).ok()) {
                  durable_tail = std::max<LogIndex>(durable_tail, pidx);
                }
              }
              probe += found->size();  // re-framed: walk records
              continue;
            }
            ++probe;
          }
        }
        if (data_beyond) {
          midstream_break = true;
          ++stats_.corrupt_records;
          recovery_mark(obs::FrRecovery::kCrcHole, off);
        } else {
          ++stats_.torn_truncations;
          recovery_mark(obs::FrRecovery::kTornTail, bytes.size() - off);
        }
        disk_->Truncate(file, off);
        break;
      }
      const std::span<const uint8_t> payload = frame->payload;
      const LogIndex next_expected =
          rec.entries.empty() ? rec.base_index + 1 : rec.entries.back().idx + 1;
      if (frame->crc != RecordCrc(frame->type, payload)) {
        ++stats_.corrupt_records;
        recovery_mark(obs::FrRecovery::kCrcHole, off);
        if (!protocol_aware) {
          // Naive recovery: silently truncate the log at the damage and
          // carry on as if the WAL simply ended here.
          disk_->Truncate(file, off);
          stop_all = true;
          break;
        }
        if (!hole) {
          hole = true;
          hole_idx = next_expected;
        }
        off += frame->size();
        continue;
      }
      BufferReader r(payload);
      switch (static_cast<RecordType>(frame->type)) {
        case RecordType::kHardState: {
          uint64_t term = 0;
          int64_t vote = 0;
          if (r.GetU64(term).ok() && r.GetI64(vote).ok()) {
            rec.term = static_cast<Term>(term);
            rec.voted_for = static_cast<NodeId>(vote);
          }
          break;
        }
        case RecordType::kEntry: {
          uint64_t idx = 0;
          uint64_t term = 0;
          int64_t replier = 0;
          if (r.GetU64(idx).ok() && r.GetU64(term).ok() && r.GetI64(replier).ok()) {
            durable_tail = std::max<LogIndex>(durable_tail, idx);
            if (idx > rec.base_index) {
              while (!rec.entries.empty() && rec.entries.back().idx >= idx) {
                rec.entries.pop_back();
              }
              RecoveredEntry e;
              e.idx = idx;
              e.term = static_cast<Term>(term);
              e.replier = static_cast<NodeId>(replier);
              e.payload.assign(payload.begin() + 24, payload.end());
              rec.entries.push_back(std::move(e));
              seg.max_entry_idx = std::max(seg.max_entry_idx, idx);
              if (hole && idx <= hole_idx) {
                hole = false;  // a later overwrite re-covered the damage
              }
            }
          }
          break;
        }
        case RecordType::kAnnounce: {
          uint64_t idx = 0;
          int64_t replier = 0;
          if (r.GetU64(idx).ok() && r.GetI64(replier).ok()) {
            auto it = std::lower_bound(
                rec.entries.begin(), rec.entries.end(), static_cast<LogIndex>(idx),
                [](const RecoveredEntry& e, LogIndex i) { return e.idx < i; });
            if (it != rec.entries.end() && it->idx == static_cast<LogIndex>(idx)) {
              it->replier = static_cast<NodeId>(replier);
            }
          }
          break;
        }
        case RecordType::kTruncate: {
          uint64_t from = 0;
          if (r.GetU64(from).ok()) {
            while (!rec.entries.empty() && rec.entries.back().idx >= static_cast<LogIndex>(from)) {
              rec.entries.pop_back();
            }
          }
          break;
        }
        case RecordType::kCompact: {
          uint64_t bidx = 0;
          uint64_t bterm = 0;
          if (r.GetU64(bidx).ok() && r.GetU64(bterm).ok() && bidx > rec.base_index) {
            rec.base_index = bidx;
            rec.base_term = static_cast<Term>(bterm);
            rec.entries.erase(rec.entries.begin(),
                              std::find_if(rec.entries.begin(), rec.entries.end(),
                                           [&rec](const RecoveredEntry& e) {
                                             return e.idx > rec.base_index;
                                           }));
            if (hole && hole_idx <= rec.base_index) {
              hole = false;  // the damage fell below a durable snapshot
            }
          }
          break;
        }
      }
      off += frame->size();
    }
  }

  // --- finalize -------------------------------------------------------------
  if (hole && hole_idx > rec.base_index) {
    auto it = std::lower_bound(rec.entries.begin(), rec.entries.end(), hole_idx,
                               [](const RecoveredEntry& e, LogIndex i) { return e.idx < i; });
    rec.entries.erase(it, rec.entries.end());
    rec.suspect = true;
    // The rotted record itself was durable — and if it was an entry, its
    // index was at least hole_idx (its payload can't be trusted to say).
    // The floor must cover it, or a hole in the *last* record would leave
    // the node free to campaign without the entry it may have acked.
    durable_tail = std::max(durable_tail, hole_idx);
  }
  if (midstream_break) {
    rec.suspect = true;
  }
  // Enforce contiguity from base+1; anything beyond a gap is unreachable and
  // discarding it means durable loss.
  LogIndex expected = rec.base_index + 1;
  for (size_t i = 0; i < rec.entries.size(); ++i) {
    if (rec.entries[i].idx != expected) {
      rec.entries.resize(i);
      rec.suspect = true;
      break;
    }
    ++expected;
  }
  rec.suspect_floor = std::max(durable_tail, rec.base_index);
  if (rec.suspect) {
    ++stats_.suspect_recoveries;
  }
  stats_.recovered_entries += rec.entries.size();

  // Re-open the last retained segment for appending; with none, the first
  // append opens segment 1. Entry records the replay left behind the kept
  // tail stay on disk, cut off by recovered_* (see CorruptNewestEntry).
  recovered_seq_ = 0;
  if (!segments_.empty()) {
    open_name_ = SegmentName(segments_.back().seq);
    disk_->Reserve(open_name_, segment_bytes_ + kSegmentHeadroom);
    recovered_seq_ = segments_.back().seq;
    recovered_end_ = disk_->Size(open_name_);
    recovered_tail_ = rec.entries.empty() ? rec.base_index : rec.entries.back().idx;
  }
  term_ = rec.term;
  voted_for_ = rec.voted_for;
  base_idx_ = rec.base_index;
  base_term_ = rec.base_term;
  return rec;
}

}  // namespace hovercraft
