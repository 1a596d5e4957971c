// WAL recovery fuzz: cut the byte stream at every record boundary and at
// every mid-record position band, flip bytes at seeded offsets, and check
// that replay always reconstructs exactly the synced prefix — idempotently
// and byte-deterministically (docs/durability.md).
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/random.h"
#include "src/common/types.h"
#include "src/sim/simulator.h"
#include "src/storage/fsync_policy.h"
#include "src/storage/sim_disk.h"
#include "src/storage/stable_storage.h"

namespace hovercraft {
namespace {

std::vector<uint8_t> Payload(uint64_t tag) {
  std::vector<uint8_t> p(16);
  for (size_t i = 0; i < p.size(); ++i) {
    p[i] = static_cast<uint8_t>(tag * 31 + i);
  }
  return p;
}

// Builds a single-segment WAL of `n` synced entries and returns the disk
// image of that segment so callers can cut or corrupt it precisely.
struct WalImage {
  Simulator sim;
  SimDisk disk{&sim, 1, 0};
  StableStorage storage{&disk, FsyncPolicy::kGroupCommit};
  std::string segment;

  explicit WalImage(int n) {
    storage.PersistHardState(1, kInvalidNode);
    for (LogIndex i = 1; i <= static_cast<LogIndex>(n); ++i) {
      storage.AppendEntry(i, 1, /*replier=*/0, Payload(i));
    }
    storage.Sync(nullptr);
    const std::vector<std::string> files = disk.List("wal-");
    EXPECT_EQ(files.size(), 1u);
    segment = files.front();
  }
};

// Record boundaries of a segment, from the framing alone.
std::vector<size_t> RecordBoundaries(const Body& bytes) {
  std::vector<size_t> cuts = {0};
  size_t off = 0;
  while (off + 13 <= bytes.size()) {
    const uint32_t len = static_cast<uint32_t>(bytes[off]) |
                         static_cast<uint32_t>(bytes[off + 1]) << 8 |
                         static_cast<uint32_t>(bytes[off + 2]) << 16 |
                         static_cast<uint32_t>(bytes[off + 3]) << 24;
    off += 13 + len;
    if (off > bytes.size()) {
      break;
    }
    cuts.push_back(off);
  }
  return cuts;
}

TEST(WalFuzzTest, CrashAtEveryRecordBoundaryYieldsExactPrefix) {
  const int kEntries = 12;
  WalImage ref(kEntries);
  const Body image = ref.disk.ReadBody(ref.segment);
  const std::vector<size_t> cuts = RecordBoundaries(image);
  // hard-state record + kEntries entry records
  ASSERT_EQ(cuts.size(), static_cast<size_t>(kEntries) + 2);

  for (size_t ci = 0; ci < cuts.size(); ++ci) {
    Simulator sim;
    SimDisk disk(&sim, 1, 0);
    StableStorage storage(&disk, FsyncPolicy::kGroupCommit);
    std::vector<uint8_t> cut(image.begin(), image.begin() + static_cast<ptrdiff_t>(cuts[ci]));
    disk.WriteAndSync(ref.segment, cut);

    StableStorage::Recovery rec = storage.Recover(/*protocol_aware=*/true);
    // Boundary ci keeps the hard-state record (boundary 1+) and ci-1 entries.
    const size_t want = ci <= 1 ? 0 : ci - 1;
    ASSERT_EQ(rec.entries.size(), want) << "cut at boundary " << ci;
    for (size_t i = 0; i < want; ++i) {
      EXPECT_EQ(rec.entries[i].idx, i + 1);
      EXPECT_EQ(rec.entries[i].payload, Payload(i + 1));
    }
    EXPECT_FALSE(rec.suspect);  // a clean cut at the tail is never suspect
    EXPECT_EQ(rec.term, ci >= 1 ? 1u : 0u);
  }
}

TEST(WalFuzzTest, CrashMidRecordTruncatesTornTail) {
  const int kEntries = 6;
  WalImage ref(kEntries);
  const Body image = ref.disk.ReadBody(ref.segment);
  const std::vector<size_t> cuts = RecordBoundaries(image);

  // Cut one byte into every record, and one byte before every record's end.
  std::vector<size_t> probes;
  for (size_t ci = 0; ci + 1 < cuts.size(); ++ci) {
    probes.push_back(cuts[ci] + 1);
    probes.push_back(cuts[ci + 1] - 1);
  }
  for (size_t cut_at : probes) {
    Simulator sim;
    SimDisk disk(&sim, 1, 0);
    StableStorage storage(&disk, FsyncPolicy::kGroupCommit);
    std::vector<uint8_t> cut(image.begin(), image.begin() + static_cast<ptrdiff_t>(cut_at));
    disk.WriteAndSync(ref.segment, cut);

    StableStorage::Recovery rec = storage.Recover(true);
    // The torn record is truncated; everything before the containing record
    // boundary survives intact.
    size_t boundary = 0;
    for (size_t c : cuts) {
      if (c <= cut_at) {
        boundary = c;
      }
    }
    size_t want = 0;
    for (size_t ci = 0; ci + 1 < cuts.size(); ++ci) {
      if (cuts[ci + 1] <= boundary && ci >= 1) {
        want = ci;
      }
    }
    ASSERT_EQ(rec.entries.size(), want) << "cut at offset " << cut_at;
    EXPECT_FALSE(rec.suspect);
    EXPECT_EQ(storage.stats().torn_truncations, 1u);
    // Idempotence: recovering the truncated image again changes nothing.
    StableStorage::Recovery again = storage.Recover(true);
    EXPECT_EQ(again.entries.size(), rec.entries.size());
    EXPECT_EQ(storage.stats().torn_truncations, 1u);
  }
}

TEST(WalFuzzTest, BitFlipsNeverYieldWrongEntriesOnlyMissingOnes) {
  const int kEntries = 8;
  WalImage ref(kEntries);
  const Body image = ref.disk.ReadBody(ref.segment);

  // A flip inside the *final* record's length field turns it into a framing
  // break at the physical end of the WAL — indistinguishable, by content
  // alone, from a torn write of that same record. Recovery must classify it
  // as torn (or every real torn tail would strand the node suspect), so the
  // suspect expectation below exempts those four bytes.
  const std::vector<size_t> cuts = RecordBoundaries(image);
  ASSERT_GE(cuts.size(), 2u);
  const size_t last_record = cuts[cuts.size() - 2];

  Rng rng(0xF1F1F1F1);
  for (int trial = 0; trial < 200; ++trial) {
    Simulator sim;
    SimDisk disk(&sim, 1, 0);
    StableStorage storage(&disk, FsyncPolicy::kGroupCommit);
    disk.WriteAndSync(ref.segment, std::vector<uint8_t>(image.begin(), image.end()));
    const size_t offset = rng.NextBelow(image.size());
    const bool tail_len_flip = offset >= last_record && offset < last_record + 4;
    ASSERT_TRUE(disk.FlipByte(ref.segment, offset));

    StableStorage::Recovery rec = storage.Recover(true);
    // Whatever was damaged, replay must never invent or mangle an entry:
    // every recovered entry is bit-exact, contiguous from the base.
    LogIndex expect_idx = 1;
    for (const auto& e : rec.entries) {
      EXPECT_EQ(e.idx, expect_idx++);
      EXPECT_EQ(e.term, 1u);
      EXPECT_EQ(e.payload, Payload(e.idx));
    }
    // A flip that removed entries must raise the suspect flag — unless it hit
    // the hard-state record head of the WAL, which carries no entries (the
    // stream break after it still counts as damage and is flagged).
    if (rec.entries.size() < static_cast<size_t>(kEntries) && !tail_len_flip) {
      EXPECT_TRUE(rec.suspect) << "flip at " << offset << " lost entries silently";
      EXPECT_GE(rec.suspect_floor, static_cast<LogIndex>(kEntries))
          << "flip at " << offset;
    }
  }
}

TEST(WalFuzzTest, RecoveryIsByteDeterministic) {
  // Two storages driven through an identical append/truncate/compact/crash
  // history end with byte-identical disk images, and recovery of each yields
  // identical results.
  auto drive = [](SimDisk* disk) {
    StableStorage storage(disk, FsyncPolicy::kGroupCommit, /*segment_bytes=*/512);
    storage.PersistHardState(1, 2);
    for (LogIndex i = 1; i <= 30; ++i) {
      storage.AppendEntry(i, 1, 0, Payload(i));
    }
    storage.AppendTruncate(28);
    storage.AppendEntry(28, 2, 1, Payload(91));
    storage.AppendCompact(10, 1);
    storage.Sync(nullptr);
    storage.AppendEntry(29, 2, 1, Payload(92));  // unsynced: dies in the crash
    storage.Crash();
    StableStorage::Recovery rec = storage.Recover(true);
    return rec;
  };

  Simulator sim;
  SimDisk a(&sim, 1, 0);
  SimDisk b(&sim, 1, 0);
  StableStorage::Recovery ra = drive(&a);
  StableStorage::Recovery rb = drive(&b);

  ASSERT_EQ(a.List("wal-"), b.List("wal-"));
  for (const std::string& f : a.List("wal-")) {
    EXPECT_EQ(a.ReadBody(f), b.ReadBody(f)) << f;
  }
  ASSERT_EQ(ra.entries.size(), rb.entries.size());
  EXPECT_EQ(ra.base_index, rb.base_index);
  EXPECT_EQ(ra.term, rb.term);
  EXPECT_EQ(ra.voted_for, rb.voted_for);
  for (size_t i = 0; i < ra.entries.size(); ++i) {
    EXPECT_EQ(ra.entries[i].idx, rb.entries[i].idx);
    EXPECT_EQ(ra.entries[i].payload, rb.entries[i].payload);
  }
  // And the recovered tail is exactly the synced prefix: 11..28.
  ASSERT_FALSE(ra.entries.empty());
  EXPECT_EQ(ra.entries.front().idx, 11u);
  EXPECT_EQ(ra.entries.back().idx, 28u);
  EXPECT_EQ(ra.entries.back().payload, Payload(91));
  EXPECT_FALSE(ra.suspect);
}

}  // namespace
}  // namespace hovercraft
