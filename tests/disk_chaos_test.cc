// Paired disk-fault chaos proofs (docs/durability.md): with fsync-before-ack
// and protocol-aware recovery enabled, every disk-fault schedule stays
// linearizable with zero committed-entry overwrites; with either defense
// disabled (the ack-before-sync and naive-recovery controls), the same
// schedules produce detectable violations. A failing case replays outside
// the binary:
//   chaos_runner --disk-fault=<schedule> --seed=<seed> --retries [control flags]
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "src/chaos/runner.h"
#include "src/storage/fsync_policy.h"

namespace hovercraft {
namespace {

ChaosRunConfig DiskConfig(const std::string& schedule, uint64_t seed) {
  ChaosRunConfig config;
  config.cluster.mode = ClusterMode::kHovercRaft;
  config.schedule = schedule;
  config.cluster.seed = seed;
  config.retry_enabled = true;
  // A nonzero fsync window, or there is nothing for a power cut to lose
  // (same default the chaos_runner CLI applies to disk-* schedules).
  config.cluster.raft.persist_latency = Micros(500);
  return config;
}

const std::vector<std::string> kDiskSchedules = {
    "disk-power-fail",
    "disk-torn-write",
    "disk-corrupt-entry",
    "disk-fsync-stall",
    "disk-corrupt-snapshot",
};

// Defended runs: every fault mode, several seeds each. Crashes lose the
// unsynced suffix, torn writes shear records, committed entries and
// snapshots rot on the platter, fsyncs stall — and the history stays
// linearizable with zero committed entries overwritten, because no ack ever
// preceded its fsync and recovery re-fetches what the disk lost.
TEST(DiskChaosTest, DefendedRunsSurviveEveryDiskFault) {
  for (const std::string& schedule : kDiskSchedules) {
    for (uint64_t seed = 1; seed <= 3; ++seed) {
      SCOPED_TRACE("schedule=" + schedule + " seed=" + std::to_string(seed));
      const ChaosRunResult result = RunChaosSchedule(DiskConfig(schedule, seed));
      EXPECT_TRUE(result.ok()) << result.Describe();
      EXPECT_TRUE(result.linearizability.conclusive()) << result.Describe();
      EXPECT_EQ(result.committed_overwritten, 0u) << result.Describe();
      EXPECT_EQ(result.double_applies, 0u) << result.Describe();
      // The schedule actually bit: nodes crashed and recovered from WAL.
      EXPECT_FALSE(result.nemesis_events.empty());
      EXPECT_GT(result.wal_recoveries, 0u) << result.Describe();
      EXPECT_GT(result.completed, 200u) << result.Describe();
    }
  }
}

// Per-fault engagement: each schedule exercises the specific machinery it
// was built to test, visible in the run's durability counters.
TEST(DiskChaosTest, EachFaultExercisesItsRecoveryPath) {
  {
    const ChaosRunResult r = RunChaosSchedule(DiskConfig("disk-power-fail", 1));
    EXPECT_GT(r.disk_bytes_lost, 0u) << r.Describe();
    // Acks parked behind fsyncs existed; a power cut vaporizes them with the
    // disk queue rather than tripping the restart fence (that fence is the
    // fail-stop case — DurabilityTest.NodeKilledInsidePersistWindowNeverAcks).
    EXPECT_GT(r.acks_deferred_persist, 0u) << r.Describe();
  }
  {
    const ChaosRunResult r = RunChaosSchedule(DiskConfig("disk-torn-write", 2));
    EXPECT_GT(r.torn_truncations, 0u) << r.Describe();
  }
  {
    const ChaosRunResult r = RunChaosSchedule(DiskConfig("disk-corrupt-entry", 1));
    EXPECT_GT(r.corrupt_records, 0u) << r.Describe();
    EXPECT_GT(r.suspect_recoveries, 0u) << r.Describe();
    EXPECT_EQ(r.suspect_repaired, r.suspect_recoveries) << r.Describe();
  }
  {
    const ChaosRunResult r = RunChaosSchedule(DiskConfig("disk-fsync-stall", 1));
    EXPECT_GT(r.acks_deferred_persist, 0u) << r.Describe();
  }
  {
    // The victim's rejected snapshot is the only damage (no WAL record
    // failed its CRC), so its suspect recovery is the unreadable-snapshot
    // fallback, and the leader's repair cleared it.
    const ChaosRunResult r = RunChaosSchedule(DiskConfig("disk-corrupt-snapshot", 1));
    bool corrupted = false;
    for (const std::string& event : r.nemesis_events) {
      corrupted |= event.find("disk: corrupt snapshot on node") != std::string::npos;
    }
    EXPECT_TRUE(corrupted) << r.Describe();
    EXPECT_EQ(r.corrupt_records, 0u) << r.Describe();
    EXPECT_EQ(r.suspect_recoveries, 1u) << r.Describe();
    EXPECT_EQ(r.suspect_repaired, 1u) << r.Describe();
  }
}

// Control 1 — ack-before-sync: replicas confirm AppendEntries before the WAL
// write is durable. A power cut then destroys entries the leader already
// counted toward commit, and the checker catches the damage. Seeds pinned to
// values where the fault window provably bites (see the CI job).
TEST(DiskChaosTest, AckBeforeSyncControlViolatesUnderPowerLoss) {
  const std::vector<std::pair<std::string, uint64_t>> cases = {
      {"disk-power-fail", 1}, {"disk-power-fail", 2}, {"disk-torn-write", 2},
      {"disk-torn-write", 3}, {"disk-fsync-stall", 1}, {"disk-fsync-stall", 2},
  };
  for (const auto& [schedule, seed] : cases) {
    SCOPED_TRACE("schedule=" + schedule + " seed=" + std::to_string(seed));
    ChaosRunConfig config = DiskConfig(schedule, seed);
    config.cluster.server_template.fsync_policy = FsyncPolicy::kAckBeforeSync;
    const ChaosRunResult result = RunChaosSchedule(config);
    EXPECT_FALSE(result.ok()) << "unsafe ack policy went undetected\n" << result.Describe();
  }
}

// Control 2 — naive recovery: a CRC failure silently truncates the WAL at the
// damage and the node rejoins without suspicion. The amnesiac follower pair
// forms a quorum while the pristine leader is down, and committed entries
// whose replies clients already hold are overwritten.
TEST(DiskChaosTest, NaiveRecoveryControlLosesCommittedEntries) {
  for (const uint64_t seed : {1u, 2u, 4u}) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    ChaosRunConfig config = DiskConfig("disk-corrupt-entry", seed);
    config.cluster.server_template.wal_recovery = false;
    const ChaosRunResult result = RunChaosSchedule(config);
    EXPECT_FALSE(result.ok()) << "naive recovery went undetected\n" << result.Describe();
  }
}

// Same config, same seed, same run — byte-for-byte. Storage events (fsync
// completions, crash recovery, WAL replay) ride the same deterministic
// simulator timeline as everything else.
TEST(DiskChaosTest, DiskRunsAreDeterministic) {
  for (const std::string& schedule : kDiskSchedules) {
    SCOPED_TRACE("schedule=" + schedule);
    const ChaosRunConfig config = DiskConfig(schedule, 3);
    const ChaosRunResult a = RunChaosSchedule(config);
    const ChaosRunResult b = RunChaosSchedule(config);
    EXPECT_EQ(a.nemesis_events, b.nemesis_events);
    EXPECT_EQ(a.invoked, b.invoked);
    EXPECT_EQ(a.completed, b.completed);
    EXPECT_EQ(a.dropped_by_fault, b.dropped_by_fault);
    EXPECT_EQ(a.wal_recoveries, b.wal_recoveries);
    EXPECT_EQ(a.disk_bytes_lost, b.disk_bytes_lost);
    EXPECT_EQ(a.committed_overwritten, b.committed_overwritten);
    EXPECT_EQ(a.node_states, b.node_states);
    EXPECT_EQ(a.linearizability.states_explored, b.linearizability.states_explored);
  }
}

}  // namespace
}  // namespace hovercraft
