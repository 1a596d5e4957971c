// StableStorage: the node's durable Raft state on a SimDisk.
//
// Layout (docs/durability.md):
//   wal-<seq>   segmented append-only record log. Record framing is
//               [u32 len][u8 type][u64 crc][payload]; the CRC-32C
//               (src/common/checksum.h, zero-extended into the u64) covers
//               the type byte and the payload. Entry payloads are opaque to
//               this layer (src/raft/wal_codec.h encodes/decodes them); the
//               storage layer reads only the (index, term, replier) envelope
//               it needs for replay, truncation, and corruption targeting.
//               It keeps no per-entry index in memory: corruption targeting
//               scans the retained segments (CorruptNewestEntry).
//   snapshot    the latest local state snapshot (session table + application
//               state blob), written atomically via WriteAndSync. Framing is
//               [u64 crc][u64 idx][u64 term][u32 len][payload]; the CRC-32C
//               covers everything after itself. The file keeps the
//               application image by reference as its shared tail
//               (sim_disk.h); the CRC is combined from the head's CRC and
//               the image's, never recomputed over the image.
//
// Durability discipline: records land in the volatile tail; Sync() runs a
// barrier priced by persist_latency under the configured FsyncPolicy. Hard
// state (term/vote) and snapshots are synced inline at zero cost — they are
// rare and off the data path; the model prices only the per-entry fsync the
// paper's §2.3 NVM assumption is about.
//
// Recovery replays the WAL with per-record CRC validation:
//   - a framing break at the physical tail is a torn write: the tail is
//     truncated (it was unsynced, hence unacked — safe);
//   - a CRC-bad record (or a framing break with data after it) means durable
//     bytes were lost: the reconstructed log is cut at the damage and the
//     recovery is marked *suspect* — the node must not campaign until its
//     commit index reaches everything it may ever have acknowledged
//     (`suspect_floor`), so an amnesiac replica cannot win an election and
//     un-commit acknowledged data; the missing entries are re-fetched from
//     the leader through the ordinary AppendEntries / InstallSnapshot path.
//   - with protocol-aware recovery disabled (the chaos control), the scan
//     silently truncates at the first bad record and sets no suspect flag —
//     the naive behaviour the defended path exists to avoid.
#ifndef SRC_STORAGE_STABLE_STORAGE_H_
#define SRC_STORAGE_STABLE_STORAGE_H_

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "src/common/body.h"
#include "src/common/buffer.h"
#include "src/common/image.h"
#include "src/common/types.h"
#include "src/storage/fsync_policy.h"
#include "src/storage/sim_disk.h"

namespace hovercraft {

struct StorageStats {
  uint64_t entry_records = 0;
  uint64_t meta_records = 0;  // hard-state / announce / truncate / compact
  uint64_t snapshots_saved = 0;
  uint64_t recoveries = 0;
  uint64_t recovered_entries = 0;
  uint64_t torn_truncations = 0;    // torn tails cut during recovery
  uint64_t corrupt_records = 0;     // CRC-failed records found during recovery
  uint64_t suspect_recoveries = 0;  // recoveries that lost durable bytes
  uint64_t segments_dropped = 0;
};

class StableStorage {
 public:
  // WAL record types (framing byte). Values are part of the on-disk format.
  enum class RecordType : uint8_t {
    kHardState = 1,  // u64 term, i64 voted_for
    kEntry = 2,      // u64 idx, u64 term, i64 replier, opaque entry payload
    kAnnounce = 3,   // u64 idx, i64 replier
    kTruncate = 4,   // u64 from
    kCompact = 5,    // u64 base_idx, u64 base_term
  };

  struct RecoveredEntry {
    LogIndex idx = 0;
    Term term = 0;
    NodeId replier = kInvalidNode;
    std::vector<uint8_t> payload;  // wal_codec bytes
  };

  struct Recovery {
    Term term = 0;
    NodeId voted_for = kInvalidNode;
    // Log base after replay (latest durable compaction point).
    LogIndex base_index = 0;
    Term base_term = 0;
    // Contiguous from base_index + 1.
    std::vector<RecoveredEntry> entries;
    // Durable data was discarded: the node may have acknowledged entries it
    // no longer holds and must not campaign until commit >= suspect_floor.
    bool suspect = false;
    LogIndex suspect_floor = 0;
    // Latest local snapshot, if one survived (CRC-validated).
    bool has_snapshot = false;
    LogIndex snapshot_index = 0;
    Term snapshot_term = 0;
    Body snapshot_payload;  // the framed payload, a slice of the file image
  };

  StableStorage(SimDisk* disk, FsyncPolicy policy, size_t segment_bytes = 256 * 1024)
      : disk_(disk), policy_(policy), segment_bytes_(segment_bytes) {}
  StableStorage(const StableStorage&) = delete;
  StableStorage& operator=(const StableStorage&) = delete;

  // --- write path (RaftNode hooks) -----------------------------------------
  // Term/vote change; synced inline (zero cost, see header comment).
  void PersistHardState(Term term, NodeId voted_for);
  void AppendEntry(LogIndex idx, Term term, NodeId replier,
                   std::span<const uint8_t> payload);
  void AppendAnnounce(LogIndex idx, NodeId replier);
  void AppendTruncate(LogIndex from);
  // Logical prefix compaction; drops whole WAL segments that fell below the
  // new base. Callers persist a covering snapshot first.
  void AppendCompact(LogIndex base_idx, Term base_term);
  // Local snapshots are framed in place: the caller starts the file's head
  // with SnapshotWriter() (header reserved) and appends the payload's small
  // prefix; `image`, the payload's bulk, follows it. SaveSnapshot fills in the
  // header and the CRC, combined from the head's CRC and image.crc(), and
  // hands both to the disk — the head (the small prefix) copied into the
  // file, the image's parts shared, never copied. Atomically replaces the
  // local snapshot (synced inline).
  static constexpr size_t kSnapshotHeaderBytes = 8 + 8 + 8 + 4;  // crc, idx, term, len
  static BufferWriter SnapshotWriter();
  void SaveSnapshot(LogIndex idx, Term term, BufferWriter head, Image image);

  // Durability barrier under the configured policy. Returns true when it
  // completed inline (cb already ran); false when cb runs later, unless the
  // process crashes first — a crash drops pending barriers entirely.
  using SyncCallback = SimDisk::SyncCallback;
  bool Sync(SyncCallback cb);

  // --- fault hooks ----------------------------------------------------------
  void Crash() { disk_->Crash(); }
  // Flips a byte (CRC-detectable) inside the WAL record of the newest index
  // in [lo, hi] that passes `eligible` and still has a live entry record:
  // the newest one for that index that no later truncate or compact record
  // invalidated. Returns that index, or kNoLogIndex when there is none. One
  // scan of the retained segments: a fault hook, off the data path.
  LogIndex CorruptNewestEntry(LogIndex lo, LogIndex hi,
                              const std::function<bool(LogIndex)>& eligible);
  // CorruptNewestEntry for `idx` alone; false when it has no live record.
  bool CorruptEntry(LogIndex idx);
  // Flips a byte in the middle of the local snapshot file, so the next
  // Recover rejects it; false when there is no snapshot file.
  bool CorruptSnapshot();

  // --- recovery -------------------------------------------------------------
  // Replays the WAL (see header comment) and re-opens it for appending.
  Recovery Recover(bool protocol_aware);

  FsyncPolicy policy() const { return policy_; }
  // Names the owning node so recovery trace instants and flight-recorder
  // events carry the right scope.
  void set_node(NodeId node) { node_ = node; }
  SimDisk* disk() { return disk_; }
  const StorageStats& stats() const { return stats_; }

 private:
  struct Segment {
    uint64_t seq = 0;
    LogIndex max_entry_idx = 0;
  };

  static std::string SegmentName(uint64_t seq);
  // Makes `seq` the open segment and sizes its buffer for a whole segment.
  void OpenSegment(uint64_t seq);
  // Returns the current segment, rotating (with a fresh baseline) first when
  // it outgrew segment_bytes_.
  Segment& WritableSegment();
  void AppendRecord(RecordType type, std::span<const uint8_t> payload);
  void WriteBaseline();

  SimDisk* disk_;
  FsyncPolicy policy_;
  size_t segment_bytes_;
  NodeId node_ = kInvalidNode;

  std::vector<Segment> segments_;
  std::string open_name_;  // SegmentName(segments_.back().seq)
  // Mirrors of the latest persisted values, used for rotation baselines.
  Term term_ = 0;
  NodeId voted_for_ = kInvalidNode;
  LogIndex base_idx_ = 0;
  Term base_term_ = 0;
  bool in_baseline_ = false;

  // The last Recover's cut: it kept entries up to recovered_tail_, and the
  // WAL then ended at byte recovered_end_ of segment recovered_seq_. Records
  // before that point for a later index are stale, exactly as if a truncate
  // record sat there; CorruptNewestEntry applies it. recovered_seq_ 0: no recovery.
  uint64_t recovered_seq_ = 0;
  size_t recovered_end_ = 0;
  LogIndex recovered_tail_ = 0;

  StorageStats stats_;
};

}  // namespace hovercraft

#endif  // SRC_STORAGE_STABLE_STORAGE_H_
