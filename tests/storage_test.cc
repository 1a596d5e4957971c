// Unit coverage for the simulated durable-storage layer: SimDisk barrier and
// crash semantics, and StableStorage's WAL framing, recovery rules, and
// corruption handling (docs/durability.md).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <random>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "src/common/body.h"
#include "src/common/buffer.h"
#include "src/common/checksum.h"
#include "src/common/image.h"
#include "src/common/types.h"
#include "src/sim/simulator.h"
#include "src/storage/fsync_policy.h"
#include "src/storage/sim_disk.h"
#include "src/storage/stable_storage.h"

namespace hovercraft {
namespace {

std::vector<uint8_t> Bytes(std::initializer_list<uint8_t> b) { return std::vector<uint8_t>(b); }

void Append(SimDisk* disk, const std::string& file, const std::vector<uint8_t>& b) {
  disk->Append(file, b.data(), b.size());
}

// ---------------------------------------------------------------------------
// SimDisk
// ---------------------------------------------------------------------------

TEST(SimDiskTest, ZeroLatencySyncCompletesInlineAndSchedulesNothing) {
  Simulator sim;
  SimDisk disk(&sim, 1, 0);
  Append(&disk, "f", Bytes({1, 2, 3}));
  bool ran = false;
  EXPECT_TRUE(disk.Sync([&]() { ran = true; }, /*coalesce=*/true));
  EXPECT_TRUE(ran);
  EXPECT_EQ(disk.SyncedSize("f"), 3u);
  // Nothing was scheduled: the simulator has no pending events.
  EXPECT_EQ(sim.RunToCompletion(), 0u);
}

TEST(SimDiskTest, PricedSyncCompletesAfterLatency) {
  Simulator sim;
  SimDisk disk(&sim, 1, 500);
  Append(&disk, "f", Bytes({1, 2, 3}));
  TimeNs done_at = -1;
  EXPECT_FALSE(disk.Sync([&]() { done_at = sim.Now(); }, true));
  EXPECT_EQ(disk.SyncedSize("f"), 0u);
  sim.RunToCompletion();
  EXPECT_EQ(done_at, 500);
  EXPECT_EQ(disk.SyncedSize("f"), 3u);
}

TEST(SimDiskTest, CrashDropsUnsyncedSuffixAndPendingCallbacks) {
  Simulator sim;
  SimDisk disk(&sim, 1, 500);
  Append(&disk, "f", Bytes({1, 2, 3, 4}));
  bool ran = false;
  disk.Sync([&]() { ran = true; }, true);
  disk.Crash();
  sim.RunToCompletion();
  EXPECT_FALSE(ran);  // the process died; nothing acks from the grave
  EXPECT_EQ(disk.Size("f"), 0u);
  EXPECT_EQ(disk.stats().bytes_lost, 4u);
}

TEST(SimDiskTest, CrashKeepsSyncedPrefix) {
  Simulator sim;
  SimDisk disk(&sim, 1, 0);
  Append(&disk, "f", Bytes({1, 2}));
  disk.SyncNow();
  Append(&disk, "f", Bytes({3, 4, 5}));
  disk.Crash();
  EXPECT_EQ(disk.ReadBody("f"), Bytes({1, 2}));
}

TEST(SimDiskTest, ReadViewSeesTheAppendedBytesInPlace) {
  Simulator sim;
  SimDisk disk(&sim, 1, 0);
  EXPECT_TRUE(disk.ReadView("f").empty());
  Append(&disk, "f", Bytes({1, 2, 3}));
  const std::span<const uint8_t> view = disk.ReadView("f");
  EXPECT_EQ(std::vector<uint8_t>(view.begin(), view.end()), disk.ReadBody("f"));
  ASSERT_TRUE(disk.FlipByte("f", 1));
  EXPECT_EQ(view[1], 2 ^ 0x40);  // no copy: the view reads the file itself
}

TEST(SimDiskTest, TornCrashKeepsStrictPrefixOfUnsyncedTail) {
  Simulator sim;
  SimDisk disk(&sim, 7, 0);
  Append(&disk, "f", Bytes({1, 2}));
  disk.SyncNow();
  Append(&disk, "f", Bytes({3, 4, 5, 6}));
  disk.set_next_crash_torn();
  disk.Crash();
  // The synced prefix always survives; at most a strict prefix of the
  // unsynced tail does.
  ASSERT_GE(disk.Size("f"), 2u);
  ASSERT_LT(disk.Size("f"), 6u);
  EXPECT_EQ(disk.ReadBody("f")[0], 1);
  EXPECT_EQ(disk.ReadBody("f")[1], 2);
}

// Regression: a barrier requested while a flush is already in flight must NOT
// ride that flush — its frontier was captured at start and does not cover
// bytes appended since. Riding it acked unsynced entries, which a power
// failure then un-committed (found by the disk-corrupt-entry chaos pair).
TEST(SimDiskTest, CoalescedSyncNeverRidesTheRunningFlush) {
  Simulator sim;
  SimDisk disk(&sim, 1, 500);
  Append(&disk, "f", Bytes({1}));
  disk.Sync(nullptr, true);  // starts the flush; frontier = 1 byte
  Append(&disk, "f", Bytes({2, 3}));
  size_t covered_at_cb = 0;
  disk.Sync([&]() { covered_at_cb = disk.SyncedSize("f"); }, /*coalesce=*/true);
  sim.RunToCompletion();
  EXPECT_EQ(covered_at_cb, 3u);  // the callback's barrier covers both appends
}

TEST(SimDiskTest, GroupCommitCoalescesQueuedBarriers) {
  Simulator sim;
  SimDisk disk(&sim, 1, 500);
  Append(&disk, "f", Bytes({1}));
  disk.Sync(nullptr, true);  // running flush
  int callbacks = 0;
  for (int i = 0; i < 5; ++i) {
    Append(&disk, "f", Bytes({static_cast<uint8_t>(i)}));
    disk.Sync([&]() { ++callbacks; }, /*coalesce=*/true);
  }
  sim.RunToCompletion();
  EXPECT_EQ(callbacks, 5);
  // One running flush + one coalesced group: two priced barriers, not six.
  EXPECT_EQ(disk.stats().syncs, 2u);
}

TEST(SimDiskTest, StallPricesEverySubsequentBarrier) {
  Simulator sim;
  SimDisk disk(&sim, 1, 100);
  disk.set_stall(900);
  Append(&disk, "f", Bytes({1}));
  TimeNs done_at = -1;
  disk.Sync([&]() { done_at = sim.Now(); }, true);
  sim.RunToCompletion();
  EXPECT_EQ(done_at, 1000);
  disk.set_stall(0);
}

TEST(SimDiskTest, FlipByteOnlyTouchesExistingBytes) {
  Simulator sim;
  SimDisk disk(&sim, 1, 0);
  Append(&disk, "f", Bytes({0x00, 0x10}));
  EXPECT_FALSE(disk.FlipByte("missing", 0));
  EXPECT_FALSE(disk.FlipByte("f", 2));
  EXPECT_TRUE(disk.FlipByte("f", 1));
  EXPECT_NE(disk.ReadBody("f")[1], 0x10);
}

// A file written as an owned head plus a shared tail sizes, syncs, reads and
// counts like the same bytes written flat, and survives a crash untouched.
TEST(SimDiskTest, SharedTailFileMatchesFlatFile) {
  Simulator sim;
  SimDisk shared(&sim, 1, 500);
  SimDisk flat(&sim, 1, 500);
  const std::vector<uint8_t> image = {4, 5, 6, 7, 8};
  shared.WriteAndSync("f", Bytes({1, 2, 3}), Image::Of(MakeBody(image)));
  flat.WriteAndSync("f", Bytes({1, 2, 3, 4, 5, 6, 7, 8}));
  EXPECT_EQ(shared.Size("f"), 8u);
  EXPECT_EQ(shared.SyncedSize("f"), 8u);
  EXPECT_EQ(shared.ReadBody("f"), flat.ReadBody("f"));
  EXPECT_EQ(shared.stats().bytes_written, flat.stats().bytes_written);
  EXPECT_EQ(shared.stats().appends, flat.stats().appends);

  // A priced barrier captures the whole file in its frontier; the crash
  // after it keeps every byte of both parts.
  for (SimDisk* disk : {&shared, &flat}) {
    Append(disk, "wal", Bytes({9}));
    disk->Sync(nullptr, /*coalesce=*/true);
  }
  sim.RunToCompletion();
  shared.Crash();
  flat.Crash();
  EXPECT_EQ(shared.SyncedSize("f"), flat.SyncedSize("f"));
  EXPECT_EQ(shared.ReadBody("f"), flat.ReadBody("f"));
  EXPECT_EQ(shared.stats().bytes_lost, 0u);
}

// Fault injectors and appends never write through to the tail's owner: each
// mutation copies the tail into the file first.
TEST(SimDiskTest, MutationsCopyTheSharedTailFirst) {
  const std::vector<uint8_t> original = {10, 11, 12, 13, 14, 15};
  struct Case {
    const char* name;
    std::function<void(SimDisk*)> mutate;
    std::vector<uint8_t> expect;
  };
  const std::vector<Case> cases = {
      {"flip in tail", [](SimDisk* d) { ASSERT_TRUE(d->FlipByte("f", 4)); },
       Bytes({1, 2, 10, 11, 12 ^ 0x40, 13, 14, 15})},
      {"flip in head", [](SimDisk* d) { ASSERT_TRUE(d->FlipByte("f", 0)); },
       Bytes({1 ^ 0x40, 2, 10, 11, 12, 13, 14, 15})},
      {"truncate into tail", [](SimDisk* d) { d->Truncate("f", 5); },
       Bytes({1, 2, 10, 11, 12})},
      {"truncate into head", [](SimDisk* d) { d->Truncate("f", 1); }, Bytes({1})},
      {"append", [](SimDisk* d) { Append(d, "f", Bytes({99})); },
       Bytes({1, 2, 10, 11, 12, 13, 14, 15, 99})},
  };
  for (const Case& c : cases) {
    Simulator sim;
    SimDisk disk(&sim, 1, 0);
    const Body image = MakeBody(original);
    disk.WriteAndSync("f", Bytes({1, 2}), Image::Of(image));
    c.mutate(&disk);
    EXPECT_EQ(disk.ReadBody("f"), c.expect) << c.name;
    EXPECT_EQ(disk.Size("f"), c.expect.size()) << c.name;
    EXPECT_TRUE(image == original) << c.name << ": the owner's buffer changed";
  }
}

TEST(SimDiskTest, TornCrashAfterAppendKeepsSyncedSharedPrefix) {
  const std::vector<uint8_t> original = {10, 11, 12, 13};
  const std::vector<uint8_t> durable = {1, 2, 10, 11, 12, 13};
  for (uint64_t seed = 1; seed <= 16; ++seed) {
    Simulator sim;
    SimDisk disk(&sim, seed, 0);
    const Body image = MakeBody(original);
    disk.WriteAndSync("f", Bytes({1, 2}), Image::Of(image));
    Append(&disk, "f", Bytes({20, 21, 22, 23}));
    disk.set_next_crash_torn();
    disk.Crash();
    const Body after = disk.ReadBody("f");
    ASSERT_GE(after.size(), durable.size()) << "seed " << seed;
    ASSERT_LT(after.size(), durable.size() + 4) << "seed " << seed;
    EXPECT_TRUE(std::equal(durable.begin(), durable.end(), after.begin())) << "seed " << seed;
    EXPECT_EQ(disk.SyncedSize("f"), after.size());
    EXPECT_TRUE(image == original) << "seed " << seed;
  }
}

// A snapshot-style file whose tail is several parts, each owned elsewhere
// (as a kvstore's per-key parts are): a 2-byte head, then parts of 3, 1, 4
// and 2 bytes.
struct PartedFile {
  std::vector<std::vector<uint8_t>> originals;
  std::vector<Body> owners;
  std::vector<size_t> starts;  // file offset of each part
  Image tail;
  std::vector<uint8_t> flat;   // the file's bytes

  PartedFile() : flat({1, 2}) {
    uint8_t next = 10;
    for (size_t len : {3, 1, 4, 2}) {
      std::vector<uint8_t> part;
      for (size_t i = 0; i < len; ++i) {
        part.push_back(next++);
      }
      starts.push_back(flat.size());
      flat.insert(flat.end(), part.begin(), part.end());
      owners.push_back(MakeBody(part));
      tail.Append(owners.back(), Crc32c(part));
      originals.push_back(std::move(part));
    }
  }

  void Write(SimDisk* disk) const { disk->WriteAndSync("f", Bytes({1, 2}), tail); }

  // Every owner still holds exactly the bytes it handed over.
  bool OwnersIntact() const {
    for (size_t k = 0; k < owners.size(); ++k) {
      if (!(owners[k] == originals[k])) {
        return false;
      }
    }
    return true;
  }
};

TEST(SimDiskTest, MultiPartTailReadsAsTheFlatBytes) {
  Simulator sim;
  SimDisk parted(&sim, 1, 0);
  SimDisk flat(&sim, 1, 0);
  const PartedFile file;
  file.Write(&parted);
  flat.WriteAndSync("f", file.flat);
  EXPECT_EQ(parted.ReadBody("f"), file.flat);
  EXPECT_EQ(parted.Size("f"), file.flat.size());
  EXPECT_EQ(parted.SyncedSize("f"), file.flat.size());
  EXPECT_EQ(parted.stats().bytes_written, flat.stats().bytes_written);
  EXPECT_EQ(parted.stats().appends, flat.stats().appends);
}

// A flip or a truncation landing in any byte, of the head or of part k,
// mutates only the file: the read shows it, and every part's owner keeps its
// bytes.
TEST(SimDiskTest, MultiPartTailFaultsLeaveEveryOwnerIntact) {
  const size_t size = PartedFile().flat.size();
  for (size_t offset = 0; offset < size; ++offset) {
    {
      Simulator sim;
      SimDisk disk(&sim, 1, 0);
      const PartedFile file;
      file.Write(&disk);
      ASSERT_TRUE(disk.FlipByte("f", offset));
      std::vector<uint8_t> expect = file.flat;
      expect[offset] ^= 0x40;
      EXPECT_EQ(disk.ReadBody("f"), expect) << "flip at " << offset;
      EXPECT_EQ(disk.SyncedSize("f"), size) << "flip at " << offset;
      EXPECT_TRUE(file.OwnersIntact()) << "flip at " << offset;
    }
    {
      Simulator sim;
      SimDisk disk(&sim, 1, 0);
      const PartedFile file;
      file.Write(&disk);
      disk.Truncate("f", offset);
      const std::vector<uint8_t> expect(file.flat.begin(),
                                        file.flat.begin() + static_cast<ptrdiff_t>(offset));
      EXPECT_EQ(disk.ReadBody("f"), expect) << "truncate at " << offset;
      EXPECT_EQ(disk.Size("f"), offset);
      EXPECT_EQ(disk.SyncedSize("f"), offset);
      EXPECT_TRUE(file.OwnersIntact()) << "truncate at " << offset;
    }
  }
}

// A torn crash whose cut lands inside part k's byte range: the file is cut
// back to the start of part k, part k is rewritten unsynced, and the crash
// keeps a strict prefix of it. The durable prefix survives; no owner changes.
TEST(SimDiskTest, TornCrashInsideAPartLeavesEveryOwnerIntact) {
  const PartedFile shape;
  for (size_t k = 0; k < shape.owners.size(); ++k) {
    for (uint64_t seed = 1; seed <= 8; ++seed) {
      Simulator sim;
      SimDisk disk(&sim, seed, 0);
      const PartedFile file;
      file.Write(&disk);
      const size_t start = file.starts[k];
      disk.Truncate("f", start);
      Append(&disk, "f", file.originals[k]);
      disk.set_next_crash_torn();
      disk.Crash();
      const Body after = disk.ReadBody("f");
      ASSERT_GE(after.size(), start) << "part " << k << " seed " << seed;
      ASSERT_LT(after.size(), start + file.originals[k].size()) << "part " << k;
      EXPECT_TRUE(std::equal(after.begin(), after.end(), file.flat.begin()))
          << "part " << k << " seed " << seed;
      EXPECT_EQ(disk.stats().torn_crashes, 1u);
      EXPECT_TRUE(file.OwnersIntact()) << "part " << k << " seed " << seed;
    }
  }
}

// A disk built without disk_faults keeps each file as a size and a durable
// watermark. The same writes and barriers on it and on a disk that keeps its
// bytes report the same sizes, frontiers, listings and stats at every step.
TEST(SimDiskTest, DiskWithoutBytesTracksSizesLikeADiskWithBytes) {
  Simulator sim;
  SimDisk kept(&sim, 1, 500);
  SimDisk sized(&sim, 1, 500, /*disk_faults=*/false);
  auto both = [&](const std::function<void(SimDisk&)>& op) {
    op(kept);
    op(sized);
  };
  auto expect_same = [&](const char* step) {
    for (const char* f : {"a", "b", "snap"}) {
      EXPECT_EQ(sized.Exists(f), kept.Exists(f)) << step << " " << f;
      EXPECT_EQ(sized.Size(f), kept.Size(f)) << step << " " << f;
      EXPECT_EQ(sized.SyncedSize(f), kept.SyncedSize(f)) << step << " " << f;
    }
    EXPECT_EQ(sized.List(""), kept.List("")) << step;
    EXPECT_EQ(sized.queue_depth(), kept.queue_depth()) << step;
    const SimDiskStats& s = sized.stats();
    const SimDiskStats& k = kept.stats();
    EXPECT_EQ(s.appends, k.appends) << step;
    EXPECT_EQ(s.bytes_written, k.bytes_written) << step;
    EXPECT_EQ(s.syncs, k.syncs) << step;
    EXPECT_EQ(s.coalesced, k.coalesced) << step;
  };

  both([](SimDisk& d) { d.Reserve("a", 4096); });
  expect_same("reserve");
  both([](SimDisk& d) {
    Append(&d, "a", Bytes({1, 2, 3, 4, 5}));
    Append(&d, "b", Bytes({6}));
  });
  expect_same("append");
  int synced = 0;
  both([&](SimDisk& d) { d.Sync([&]() { ++synced; }, /*coalesce=*/true); });
  both([](SimDisk& d) { Append(&d, "a", Bytes({7, 8})); });
  both([&](SimDisk& d) { d.Sync([&]() { ++synced; }, /*coalesce=*/true); });
  expect_same("syncs queued");
  sim.RunToCompletion();
  EXPECT_EQ(synced, 4);
  expect_same("syncs done");
  both([](SimDisk& d) { Append(&d, "a", Bytes({9, 9, 9})); });
  both([](SimDisk& d) { d.Truncate("a", 8); });
  expect_same("truncate into the unsynced tail");
  both([](SimDisk& d) { d.Truncate("a", 3); });
  expect_same("truncate below the durable watermark");
  both([](SimDisk& d) { d.Truncate("a", 100); });
  expect_same("truncate past the end");

  const Body image = MakeBody(std::vector<uint8_t>(100, 7));
  both([&](SimDisk& d) { d.WriteAndSync("snap", Bytes({1, 2, 3}), Image::Of(image)); });
  expect_same("write and sync");
  EXPECT_EQ(sized.Size("snap"), 103u);
  EXPECT_EQ(image.refcount(), 2u);  // this test's and `kept`'s: `sized` holds no part
  both([](SimDisk& d) { d.Truncate("snap", 50); });
  expect_same("truncate inside the shared tail");
  both([](SimDisk& d) {
    Append(&d, "snap", Bytes({4, 5}));
    d.SyncNow();
  });
  expect_same("sync now");
  both([](SimDisk& d) { d.Delete("b"); });
  expect_same("delete");
}

// Without disk_faults there are no bytes to crash, corrupt or read back:
// each of those calls fails a CHECK instead of answering from nothing.
TEST(SimDiskDeathTest, FaultsAndReadsNeedDiskFaults) {
  Simulator sim;
  SimDisk disk(&sim, 1, 0, /*disk_faults=*/false);
  Append(&disk, "f", Bytes({1, 2, 3}));
  disk.SyncNow();
  EXPECT_DEATH(disk.Crash(), "disk_faults");
  EXPECT_DEATH(disk.FlipByte("f", 1), "disk_faults");
  EXPECT_DEATH(disk.ReadView("f"), "disk_faults");
  EXPECT_DEATH(disk.ReadBody("f"), "disk_faults");
}

// ---------------------------------------------------------------------------
// StableStorage
// ---------------------------------------------------------------------------

std::vector<uint8_t> Payload(uint8_t tag) { return std::vector<uint8_t>(8, tag); }

void SaveSnapshot(StableStorage* storage, LogIndex idx, Term term,
                  const std::vector<uint8_t>& payload) {
  storage->SaveSnapshot(idx, term, StableStorage::SnapshotWriter(), Image::Of(MakeBody(payload)));
}

// Rewrites `file` with one bit of `original` inverted (bit index counts from
// the first byte's least significant bit).
void WriteWithBitFlipped(SimDisk* disk, const std::string& file,
                         const Body& original, size_t bit) {
  std::vector<uint8_t> bytes(original.begin(), original.end());
  bytes[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
  disk->WriteAndSync(file, std::move(bytes));
}

TEST(StableStorageTest, HardStateAndEntriesRoundTrip) {
  Simulator sim;
  SimDisk disk(&sim, 1, 0);
  StableStorage storage(&disk, FsyncPolicy::kGroupCommit);
  storage.PersistHardState(3, 1);
  for (LogIndex i = 1; i <= 5; ++i) {
    storage.AppendEntry(i, 3, /*replier=*/2, Payload(static_cast<uint8_t>(i)));
  }
  storage.Sync(nullptr);

  StableStorage::Recovery rec = storage.Recover(/*protocol_aware=*/true);
  EXPECT_EQ(rec.term, 3u);
  EXPECT_EQ(rec.voted_for, 1);
  EXPECT_EQ(rec.base_index, 0u);
  ASSERT_EQ(rec.entries.size(), 5u);
  EXPECT_FALSE(rec.suspect);
  for (size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(rec.entries[i].idx, i + 1);
    EXPECT_EQ(rec.entries[i].term, 3u);
    EXPECT_EQ(rec.entries[i].replier, 2);
    EXPECT_EQ(rec.entries[i].payload, Payload(static_cast<uint8_t>(i + 1)));
  }
}

TEST(StableStorageTest, CrashLosesUnsyncedEntriesOnly) {
  Simulator sim;
  SimDisk disk(&sim, 1, 500);
  StableStorage storage(&disk, FsyncPolicy::kGroupCommit);
  storage.PersistHardState(1, kInvalidNode);
  storage.AppendEntry(1, 1, 0, Payload(1));
  storage.AppendEntry(2, 1, 0, Payload(2));
  storage.Sync(nullptr);
  sim.RunToCompletion();  // barrier covers entries 1-2
  storage.AppendEntry(3, 1, 0, Payload(3));
  storage.Crash();

  StableStorage::Recovery rec = storage.Recover(true);
  ASSERT_EQ(rec.entries.size(), 2u);
  EXPECT_EQ(rec.entries.back().idx, 2u);
  // Losing an unsynced (hence unacked) suffix is clean, not suspect.
  EXPECT_FALSE(rec.suspect);
  EXPECT_EQ(storage.stats().torn_truncations, 0u);
}

TEST(StableStorageTest, TornTailIsTruncatedWithoutSuspicion) {
  Simulator sim;
  SimDisk disk(&sim, 11, 500);
  StableStorage storage(&disk, FsyncPolicy::kGroupCommit);
  storage.AppendEntry(1, 1, 0, Payload(1));
  storage.Sync(nullptr);
  sim.RunToCompletion();
  storage.AppendEntry(2, 1, 0, Payload(2));
  disk.set_next_crash_torn();
  storage.Crash();

  StableStorage::Recovery rec = storage.Recover(true);
  ASSERT_EQ(rec.entries.size(), 1u);
  EXPECT_FALSE(rec.suspect);
  // A partial record at the physical end is a torn write, not corruption.
  EXPECT_EQ(storage.stats().corrupt_records, 0u);
}

TEST(StableStorageTest, CorruptedCommittedEntryMakesRecoverySuspect) {
  Simulator sim;
  SimDisk disk(&sim, 1, 0);
  StableStorage storage(&disk, FsyncPolicy::kGroupCommit);
  for (LogIndex i = 1; i <= 4; ++i) {
    storage.AppendEntry(i, 1, 0, Payload(static_cast<uint8_t>(i)));
  }
  storage.Sync(nullptr);
  ASSERT_TRUE(storage.CorruptEntry(2));

  StableStorage::Recovery rec = storage.Recover(true);
  // The log is cut at the damage: entries 2-4 are gone even though 3 and 4
  // are intact — contiguity is what replay can vouch for.
  ASSERT_EQ(rec.entries.size(), 1u);
  EXPECT_EQ(rec.entries[0].idx, 1u);
  EXPECT_TRUE(rec.suspect);
  // The floor covers everything that was ever durable, so the node cannot
  // campaign until a leader has re-fed it all four entries.
  EXPECT_GE(rec.suspect_floor, 4u);
  EXPECT_EQ(storage.stats().corrupt_records, 1u);
  EXPECT_EQ(storage.stats().suspect_recoveries, 1u);
}

TEST(StableStorageTest, NaiveRecoveryTruncatesSilently) {
  Simulator sim;
  SimDisk disk(&sim, 1, 0);
  StableStorage storage(&disk, FsyncPolicy::kGroupCommit);
  for (LogIndex i = 1; i <= 4; ++i) {
    storage.AppendEntry(i, 1, 0, Payload(static_cast<uint8_t>(i)));
  }
  storage.Sync(nullptr);
  ASSERT_TRUE(storage.CorruptEntry(2));

  StableStorage::Recovery rec = storage.Recover(/*protocol_aware=*/false);
  ASSERT_EQ(rec.entries.size(), 1u);
  EXPECT_FALSE(rec.suspect);  // the unsafe control: amnesia without the flag
  EXPECT_EQ(storage.stats().suspect_recoveries, 0u);
}

TEST(StableStorageTest, TruncateRecordRewindsReplay) {
  Simulator sim;
  SimDisk disk(&sim, 1, 0);
  StableStorage storage(&disk, FsyncPolicy::kGroupCommit);
  storage.AppendEntry(1, 1, 0, Payload(1));
  storage.AppendEntry(2, 1, 0, Payload(2));
  storage.AppendEntry(3, 1, 0, Payload(3));
  storage.AppendTruncate(2);  // conflict: entries 2-3 were replaced
  storage.AppendEntry(2, 2, 0, Payload(9));
  storage.Sync(nullptr);

  StableStorage::Recovery rec = storage.Recover(true);
  ASSERT_EQ(rec.entries.size(), 2u);
  EXPECT_EQ(rec.entries[1].idx, 2u);
  EXPECT_EQ(rec.entries[1].term, 2u);
  EXPECT_EQ(rec.entries[1].payload, Payload(9));
}

TEST(StableStorageTest, CompactDropsWholeSegmentsBelowBase) {
  Simulator sim;
  SimDisk disk(&sim, 1, 0);
  // Tiny segments force rotation every few records.
  StableStorage storage(&disk, FsyncPolicy::kGroupCommit, /*segment_bytes=*/256);
  for (LogIndex i = 1; i <= 40; ++i) {
    storage.AppendEntry(i, 1, 0, Payload(static_cast<uint8_t>(i)));
  }
  storage.Sync(nullptr);
  ASSERT_GT(disk.List("wal-").size(), 1u);
  storage.AppendCompact(30, 1);
  EXPECT_GT(storage.stats().segments_dropped, 0u);

  StableStorage::Recovery rec = storage.Recover(true);
  EXPECT_EQ(rec.base_index, 30u);
  EXPECT_EQ(rec.base_term, 1u);
  ASSERT_EQ(rec.entries.size(), 10u);
  EXPECT_EQ(rec.entries.front().idx, 31u);
  EXPECT_FALSE(rec.suspect);
}

TEST(StableStorageTest, SnapshotRoundTripsAndSurvivesCrash) {
  Simulator sim;
  SimDisk disk(&sim, 1, 500);
  StableStorage storage(&disk, FsyncPolicy::kGroupCommit);
  SaveSnapshot(&storage, 12, 2, Payload(7));
  storage.Crash();  // snapshots are synced inline; the crash loses nothing

  StableStorage::Recovery rec = storage.Recover(true);
  ASSERT_TRUE(rec.has_snapshot);
  EXPECT_EQ(rec.snapshot_index, 12u);
  EXPECT_EQ(rec.snapshot_term, 2u);
  EXPECT_EQ(rec.snapshot_payload, Payload(7));
  EXPECT_FALSE(rec.suspect);
}

TEST(StableStorageTest, DamagedSnapshotMarksRecoverySuspect) {
  Simulator sim;
  SimDisk disk(&sim, 1, 0);
  StableStorage storage(&disk, FsyncPolicy::kGroupCommit);
  SaveSnapshot(&storage, 12, 2, Payload(7));
  ASSERT_TRUE(disk.FlipByte("snapshot", disk.Size("snapshot") - 1));

  StableStorage::Recovery rec = storage.Recover(true);
  EXPECT_FALSE(rec.has_snapshot);
  EXPECT_TRUE(rec.suspect);
}

TEST(StableStorageTest, SnapshotFrameIsFilledInPlace) {
  Simulator sim;
  SimDisk disk(&sim, 1, 0);
  StableStorage storage(&disk, FsyncPolicy::kGroupCommit);
  SaveSnapshot(&storage, 0x0102, 3, Payload(9));
  const Body file = disk.ReadBody("snapshot");
  ASSERT_EQ(file.size(), StableStorage::kSnapshotHeaderBytes + 8);
  BufferReader r(file);
  uint64_t crc = 0;
  uint64_t idx = 0;
  uint64_t term = 0;
  uint32_t len = 0;
  ASSERT_TRUE(r.GetU64(crc).ok() && r.GetU64(idx).ok() && r.GetU64(term).ok() &&
              r.GetU32(len).ok());
  // CRC-32C over everything after the crc field, zero-extended into the u64.
  EXPECT_EQ(crc, Crc32c(std::span<const uint8_t>(file).subspan(8)));
  EXPECT_EQ(idx, 0x0102u);
  EXPECT_EQ(term, 3u);
  EXPECT_EQ(len, 8u);
  EXPECT_EQ(std::vector<uint8_t>(file.begin() + 28, file.end()), Payload(9));
}

// A multi-part image behind a head prefix: the CRC combined from the part
// CRCs is the CRC of the flat file, and recovery reads the payload back.
TEST(StableStorageTest, MultiPartImageSnapshotMatchesFlatFraming) {
  Simulator sim;
  SimDisk disk(&sim, 1, 0);
  StableStorage storage(&disk, FsyncPolicy::kGroupCommit);
  const PartedFile parted;
  BufferWriter head = StableStorage::SnapshotWriter();
  head.PutBytes(Bytes({1, 2}));
  storage.SaveSnapshot(21, 4, std::move(head), parted.tail);
  const Body file = disk.ReadBody("snapshot");
  ASSERT_EQ(file.size(), StableStorage::kSnapshotHeaderBytes + parted.flat.size());
  BufferReader r(file);
  uint64_t crc = 0;
  ASSERT_TRUE(r.GetU64(crc).ok());
  EXPECT_EQ(crc, Crc32cPortable(std::span<const uint8_t>(file).subspan(8)));

  StableStorage::Recovery rec = storage.Recover(true);
  ASSERT_TRUE(rec.has_snapshot);
  EXPECT_FALSE(rec.suspect);
  EXPECT_EQ(rec.snapshot_index, 21u);
  EXPECT_EQ(rec.snapshot_payload, parted.flat);
}

TEST(StableStorageTest, EverySnapshotBitFlipIsDetected) {
  Simulator sim;
  SimDisk disk(&sim, 1, 0);
  {
    StableStorage storage(&disk, FsyncPolicy::kGroupCommit);
    SaveSnapshot(&storage, 12, 2, std::vector<uint8_t>{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11});
  }
  const Body original = disk.ReadBody("snapshot");
  for (size_t bit = 0; bit < original.size() * 8; ++bit) {
    WriteWithBitFlipped(&disk, "snapshot", original, bit);
    StableStorage storage(&disk, FsyncPolicy::kGroupCommit);
    StableStorage::Recovery rec = storage.Recover(true);
    ASSERT_FALSE(rec.has_snapshot) << "bit " << bit;
    ASSERT_TRUE(rec.suspect) << "bit " << bit;
  }
}

TEST(StableStorageTest, EveryEntryRecordBitFlipIsDetected) {
  // Three entries; every single-bit flip inside the middle record's framing,
  // CRC or payload must cost it (and, through contiguity, its successor)
  // and mark the recovery suspect — never replay a silently altered entry.
  Simulator sim;
  SimDisk disk(&sim, 1, 0);
  const std::string wal = "wal-00000001";
  size_t record_begin = 0;
  size_t record_end = 0;
  {
    StableStorage storage(&disk, FsyncPolicy::kGroupCommit);
    storage.AppendEntry(1, 1, 0, Payload(1));
    record_begin = disk.Size(wal);
    storage.AppendEntry(2, 1, 0, Payload(2));
    record_end = disk.Size(wal);
    storage.AppendEntry(3, 1, 0, Payload(3));
    storage.Sync(nullptr);
  }
  const Body original = disk.ReadBody(wal);
  {
    StableStorage storage(&disk, FsyncPolicy::kGroupCommit);
    ASSERT_EQ(storage.Recover(true).entries.size(), 3u);
  }
  for (size_t bit = record_begin * 8; bit < record_end * 8; ++bit) {
    WriteWithBitFlipped(&disk, wal, original, bit);
    StableStorage storage(&disk, FsyncPolicy::kGroupCommit);
    StableStorage::Recovery rec = storage.Recover(true);
    ASSERT_EQ(rec.entries.size(), 1u) << "bit " << bit;
    EXPECT_EQ(rec.entries[0].payload, Payload(1));
    ASSERT_TRUE(rec.suspect) << "bit " << bit;
    ASSERT_GE(rec.suspect_floor, 2u) << "bit " << bit;
  }
}

// --- corruption targeting ---------------------------------------------------

// Every WAL segment's bytes, by name.
std::map<std::string, Body> WalImage(const SimDisk& disk) {
  std::map<std::string, Body> image;
  for (const std::string& file : disk.List("wal-")) {
    image[file] = disk.ReadBody(file);
  }
  return image;
}

// The (file, offset) of every byte that differs between two WAL images of
// the same files.
std::vector<std::pair<std::string, size_t>> WalDiff(
    const std::map<std::string, Body>& before,
    const std::map<std::string, Body>& after) {
  std::vector<std::pair<std::string, size_t>> diff;
  for (const auto& [file, bytes] : after) {
    const Body& old = before.at(file);
    EXPECT_EQ(old.size(), bytes.size()) << file;
    for (size_t i = 0; i < std::min(old.size(), bytes.size()); ++i) {
      if (old[i] != bytes[i]) {
        diff.emplace_back(file, i);
      }
    }
  }
  return diff;
}

// Where an entry record landed: [begin, end) of the newest WAL segment.
struct RecordSpan {
  std::string file;
  size_t begin = 0;
  size_t end = 0;
};

RecordSpan AppendAndLocate(StableStorage* storage, SimDisk* disk, LogIndex idx, Term term,
                           const std::vector<uint8_t>& payload) {
  storage->AppendEntry(idx, term, 0, payload);
  RecordSpan span;
  span.file = disk->List("wal-").back();
  span.end = disk->Size(span.file);
  span.begin = span.end - (13 + 24 + payload.size());  // header + envelope + payload
  return span;
}

// Payloads big enough that a 512-byte segment holds only a few records.
std::vector<uint8_t> BigPayload(LogIndex idx) {
  return std::vector<uint8_t>(64, static_cast<uint8_t>(idx));
}

// Runs CorruptEntry(idx) and returns where the flipped byte landed.
std::vector<std::pair<std::string, size_t>> CorruptAndDiff(StableStorage* storage,
                                                           const SimDisk& disk, LogIndex idx,
                                                           bool* corrupted) {
  const auto before = WalImage(disk);
  *corrupted = storage->CorruptEntry(idx);
  return WalDiff(before, WalImage(disk));
}

bool Within(const std::pair<std::string, size_t>& at, const RecordSpan& span) {
  return at.first == span.file && at.second >= span.begin && at.second < span.end;
}

TEST(StableStorageTest, CorruptEntryTargetsTheReappendedRecord) {
  Simulator sim;
  SimDisk disk(&sim, 1, 0);
  StableStorage storage(&disk, FsyncPolicy::kGroupCommit, /*segment_bytes=*/512);
  for (LogIndex i = 1; i <= 12; ++i) {
    AppendAndLocate(&storage, &disk, i, 1, BigPayload(i));
  }
  storage.AppendTruncate(10);
  const RecordSpan newer = AppendAndLocate(&storage, &disk, 10, 2, BigPayload(99));
  bool corrupted = false;
  const auto diff = CorruptAndDiff(&storage, disk, 10, &corrupted);
  ASSERT_TRUE(corrupted);
  ASSERT_EQ(diff.size(), 1u);
  EXPECT_TRUE(Within(diff[0], newer)) << diff[0].first << "@" << diff[0].second;
  // Truncated and never re-appended: nothing to target.
  const auto none = CorruptAndDiff(&storage, disk, 11, &corrupted);
  EXPECT_FALSE(corrupted);
  EXPECT_TRUE(none.empty());
}

TEST(StableStorageTest, CorruptEntryIgnoresIndicesBelowTheCompaction) {
  Simulator sim;
  SimDisk disk(&sim, 1, 0);
  StableStorage storage(&disk, FsyncPolicy::kGroupCommit, /*segment_bytes=*/512);
  for (LogIndex i = 1; i <= 12; ++i) {
    AppendAndLocate(&storage, &disk, i, 1, BigPayload(i));
  }
  // Entries 1-6 fill the first segment, 7-11 the second. Compacting at 8
  // drops the first segment but keeps records 7 and 8 on disk.
  storage.AppendCompact(8, 1);
  ASSERT_EQ(storage.stats().segments_dropped, 1u);
  EXPECT_FALSE(storage.CorruptEntry(8));
  EXPECT_FALSE(storage.CorruptEntry(7));
  EXPECT_FALSE(storage.CorruptEntry(3));
  EXPECT_EQ(disk.stats().flips, 0u);
  EXPECT_TRUE(storage.CorruptEntry(9));
  EXPECT_EQ(disk.stats().flips, 1u);
}

TEST(StableStorageTest, CorruptEntryFindsRecordsInEarlierSegments) {
  Simulator sim;
  SimDisk disk(&sim, 1, 0);
  StableStorage storage(&disk, FsyncPolicy::kGroupCommit, /*segment_bytes=*/512);
  const RecordSpan first = AppendAndLocate(&storage, &disk, 1, 1, BigPayload(1));
  for (LogIndex i = 2; i <= 20; ++i) {
    AppendAndLocate(&storage, &disk, i, 1, BigPayload(i));
  }
  ASSERT_GE(disk.List("wal-").size(), 3u);
  ASSERT_EQ(first.file, disk.List("wal-").front());
  bool corrupted = false;
  const auto diff = CorruptAndDiff(&storage, disk, 1, &corrupted);
  ASSERT_TRUE(corrupted);
  ASSERT_EQ(diff.size(), 1u);
  EXPECT_TRUE(Within(diff[0], first));
  // The flip is CRC-detectable: replay cuts the log at entry 1.
  storage.Sync(nullptr);
  StableStorage::Recovery rec = storage.Recover(true);
  EXPECT_TRUE(rec.entries.empty());
  EXPECT_TRUE(rec.suspect);
}

TEST(StableStorageTest, CorruptEntryTargetsRecoveredEntries) {
  Simulator sim;
  SimDisk disk(&sim, 1, 0);
  StableStorage storage(&disk, FsyncPolicy::kGroupCommit, /*segment_bytes=*/512);
  std::vector<RecordSpan> spans(1);  // spans[i]: entry i's record
  for (LogIndex i = 1; i <= 16; ++i) {
    spans.push_back(AppendAndLocate(&storage, &disk, i, 1, BigPayload(i)));
  }
  storage.Sync(nullptr);
  ASSERT_EQ(storage.Recover(true).entries.size(), 16u);

  // A clean recovery leaves every entry targetable where it was written.
  bool corrupted = false;
  auto diff = CorruptAndDiff(&storage, disk, 12, &corrupted);
  ASSERT_TRUE(corrupted);
  ASSERT_EQ(diff.size(), 1u);
  EXPECT_TRUE(Within(diff[0], spans[12]));

  // The damage cuts the next recovery at entry 12. Entries 13-16 are still on
  // disk but are no longer part of the log, so they are not targets, while
  // the kept prefix is.
  StableStorage::Recovery rec = storage.Recover(true);
  ASSERT_EQ(rec.entries.size(), 11u);
  EXPECT_TRUE(rec.suspect);
  EXPECT_FALSE(storage.CorruptEntry(13));
  EXPECT_FALSE(storage.CorruptEntry(16));
  diff = CorruptAndDiff(&storage, disk, 11, &corrupted);
  ASSERT_TRUE(corrupted);
  ASSERT_EQ(diff.size(), 1u);
  EXPECT_TRUE(Within(diff[0], spans[11]));
  ASSERT_TRUE(storage.CorruptEntry(11));  // flip it back

  // Re-fed entries are written anew and targeted there.
  for (LogIndex i = 12; i <= 14; ++i) {
    spans[i] = AppendAndLocate(&storage, &disk, i, 2, BigPayload(i + 50));
  }
  diff = CorruptAndDiff(&storage, disk, 13, &corrupted);
  ASSERT_TRUE(corrupted);
  ASSERT_EQ(diff.size(), 1u);
  EXPECT_TRUE(Within(diff[0], spans[13]));
  EXPECT_FALSE(storage.CorruptEntry(15));
}

TEST(StableStorageTest, CorruptEntryMatchesLocationModel) {
  // A seeded history of appends, truncations, compactions and clean
  // recoveries over rotating segments. A model keeps the location of the
  // newest live record per index; CorruptEntry must flip a byte of exactly
  // that record, and report false exactly when the model has none, and
  // CorruptNewestEntry must pick the newest eligible modelled index of its
  // range. Each flip is undone by a second CorruptEntry of the same index.
  Simulator sim;
  SimDisk disk(&sim, 1, 0);
  StableStorage storage(&disk, FsyncPolicy::kGroupCommit, /*segment_bytes=*/512);
  std::mt19937_64 rng(77);
  std::map<LogIndex, RecordSpan> model;
  LogIndex base = 0;
  LogIndex tail = 0;
  Term term = 1;
  int ranged_hits = 0;
  for (int op = 0; op < 600; ++op) {
    const uint64_t dice = rng() % 100;
    if (dice < 60) {
      ++tail;
      model[tail] = AppendAndLocate(&storage, &disk, tail, term, BigPayload(tail));
    } else if (dice < 70 && tail > base) {
      const LogIndex from = tail - rng() % std::min<LogIndex>(tail - base, 4);
      storage.AppendTruncate(from);
      model.erase(model.lower_bound(from), model.end());
      tail = from - 1;
      ++term;
    } else if (dice < 78 && tail > base + 4) {
      base += 1 + rng() % (tail - base - 2);
      storage.AppendCompact(base, term);
      model.erase(model.begin(), model.upper_bound(base));
    } else if (dice < 80) {
      storage.Sync(nullptr);
      StableStorage::Recovery rec = storage.Recover(true);
      ASSERT_FALSE(rec.suspect) << "op " << op;
      ASSERT_EQ(rec.entries.size(), tail - base) << "op " << op;
    } else if (dice < 90) {
      // The nemesis form: the newest eligible index of a range in one scan.
      const LogIndex lo = base + 1 + rng() % (tail - base + 2);
      const LogIndex hi = lo + rng() % (tail - base + 2);
      const uint64_t modulus = 1 + rng() % 3;
      auto eligible = [modulus](LogIndex i) { return i % modulus == 0; };
      LogIndex expect = kNoLogIndex;
      for (auto it = model.upper_bound(hi); it != model.begin();) {
        --it;
        if (it->first < lo) {
          break;
        }
        if (eligible(it->first)) {
          expect = it->first;
          break;
        }
      }
      const auto pristine = WalImage(disk);
      const LogIndex hit = storage.CorruptNewestEntry(lo, hi, eligible);
      ASSERT_EQ(hit, expect) << "op " << op << " range " << lo << "-" << hi;
      const auto diff = WalDiff(pristine, WalImage(disk));
      if (hit == kNoLogIndex) {
        ASSERT_TRUE(diff.empty()) << "op " << op;
      } else {
        ASSERT_EQ(diff.size(), 1u) << "op " << op;
        ASSERT_TRUE(Within(diff[0], model[hit])) << "op " << op << " idx " << hit;
        ASSERT_TRUE(storage.CorruptEntry(hit));  // undone
        ++ranged_hits;
      }
    } else {
      const LogIndex idx = base + 1 + rng() % (tail - base + 3);  // a few past the tail too
      const auto pristine = WalImage(disk);
      bool corrupted = false;
      const auto diff = CorruptAndDiff(&storage, disk, idx, &corrupted);
      auto it = model.find(idx);
      ASSERT_EQ(corrupted, it != model.end()) << "op " << op << " idx " << idx;
      if (corrupted) {
        ASSERT_EQ(diff.size(), 1u) << "op " << op;
        ASSERT_TRUE(Within(diff[0], it->second)) << "op " << op << " idx " << idx;
        ASSERT_TRUE(storage.CorruptEntry(idx));  // the same record again: undone
        ASSERT_TRUE(WalImage(disk) == pristine) << "op " << op;
      }
    }
  }
  EXPECT_GT(disk.List("wal-").size(), 1u);
  EXPECT_GT(storage.stats().segments_dropped, 0u);
  EXPECT_GT(ranged_hits, 10);
}

TEST(StableStorageTest, SyncPerAppendDoesNotCoalesce) {
  Simulator sim;
  SimDisk disk(&sim, 1, 500);
  StableStorage storage(&disk, FsyncPolicy::kSyncPerAppend);
  for (LogIndex i = 1; i <= 3; ++i) {
    storage.AppendEntry(i, 1, 0, Payload(static_cast<uint8_t>(i)));
    storage.Sync(nullptr);
  }
  sim.RunToCompletion();
  EXPECT_EQ(disk.stats().syncs, 3u);  // one priced barrier per append

  SimDisk disk2(&sim, 1, 500);
  StableStorage grouped(&disk2, FsyncPolicy::kGroupCommit);
  for (LogIndex i = 1; i <= 3; ++i) {
    grouped.AppendEntry(i, 1, 0, Payload(static_cast<uint8_t>(i)));
    grouped.Sync(nullptr);
  }
  sim.RunToCompletion();
  EXPECT_EQ(disk2.stats().syncs, 2u);  // running barrier + one coalesced group
}

}  // namespace
}  // namespace hovercraft
