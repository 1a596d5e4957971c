// Mutation tests for the obs v2 stack (flight recorder + watchdog +
// critical-path analyzer). Each safety invariant the watchdog asserts is
// deliberately violated by seeding the recorder with a poisoned event
// sequence, and the test requires the correct violation code and a non-empty
// dump; the clean-path tests require total silence (zero violations) on
// legitimate sequences and on full chaos runs, and identical chaos outcomes
// with the recorder on and off (the zero-perturbation contract).
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "src/chaos/runner.h"
#include "src/obs/critical_path.h"
#include "src/obs/flight_recorder.h"
#include "src/obs/watchdog.h"

namespace hovercraft {
namespace obs {
namespace {

// A recorder with the watchdog attached, the same wiring the cluster and the
// chaos runner install.
struct Rig {
  FlightRecorder fr{64};
  Watchdog wd{&fr};
  Rig() { fr.AddSink(&wd); }

  std::string Dump() {
    std::ostringstream out;
    fr.WriteDump(out);
    return out.str();
  }

  void ExpectViolation(WatchdogCode code) {
    ASSERT_GE(wd.violations_total(), 1u) << wd.Summary();
    EXPECT_EQ(wd.violations()[0].code, code) << wd.Summary();
    const std::string dump = Dump();
    EXPECT_FALSE(dump.empty());
    // The watchdog records its detection into the same ring it watches, so
    // the dump always ends with the violation marker.
    EXPECT_NE(dump.find("\"violation\""), std::string::npos);
  }
};

constexpr auto kLeader = static_cast<uint64_t>(FrRole::kLeader);
constexpr auto kCandidate = static_cast<uint64_t>(FrRole::kCandidate);

TEST(WatchdogMutationTest, DualLeaderSameTerm) {
  Rig rig;
  rig.fr.Record(100, 0, FrType::kRole, 5, kLeader);
  rig.fr.Record(200, 1, FrType::kRole, 5, kLeader);
  rig.ExpectViolation(WatchdogCode::kDualLeader);
}

TEST(WatchdogMutationTest, DistinctTermsAreNotDualLeadership) {
  Rig rig;
  rig.fr.Record(100, 0, FrType::kRole, 5, kLeader);
  rig.fr.Record(200, 1, FrType::kRole, 6, kLeader);
  rig.fr.Record(300, 0, FrType::kRole, 7, kLeader);  // re-election of node 0
  EXPECT_TRUE(rig.wd.ok()) << rig.wd.Summary();
}

TEST(WatchdogMutationTest, CommitMovingBackwards) {
  Rig rig;
  rig.fr.Record(100, 0, FrType::kCommit, 10, 1);
  rig.fr.Record(200, 0, FrType::kCommit, 5, 1);
  rig.ExpectViolation(WatchdogCode::kCommitRegression);
}

TEST(WatchdogMutationTest, CommittedEntriesOverwritten) {
  Rig rig;
  rig.fr.Record(100, 0, FrType::kCommitLoss, 5, 10);
  rig.ExpectViolation(WatchdogCode::kCommitRegression);
}

TEST(WatchdogMutationTest, RestartResetsTheCommitFloor) {
  Rig rig;
  rig.fr.Record(100, 0, FrType::kCommit, 10, 1);
  rig.fr.Record(200, 0, FrType::kRecovery, static_cast<uint64_t>(FrRecovery::kRestart), 3);
  rig.fr.Record(300, 0, FrType::kCommit, 3, 1);  // re-advancing from the WAL baseline
  EXPECT_TRUE(rig.wd.ok()) << rig.wd.Summary();
}

TEST(WatchdogMutationTest, LogDivergenceAtCommit) {
  Rig rig;
  rig.fr.Record(100, 0, FrType::kCommit, 7, 2);
  rig.fr.Record(200, 1, FrType::kCommit, 7, 3);  // same index, different entry term
  rig.ExpectViolation(WatchdogCode::kLogDivergence);
}

TEST(WatchdogMutationTest, DurableIndexRegression) {
  Rig rig;
  rig.fr.Record(100, 0, FrType::kDurable, 100, 0);
  rig.fr.Record(200, 0, FrType::kDurable, 90, 0);  // same restart epoch
  rig.ExpectViolation(WatchdogCode::kDurableRegression);
}

TEST(WatchdogMutationTest, TruncationLegitimatelyLowersDurable) {
  Rig rig;
  rig.fr.Record(100, 0, FrType::kDurable, 100, 0);
  rig.fr.Record(200, 0, FrType::kRecovery, static_cast<uint64_t>(FrRecovery::kTruncate), 90);
  rig.fr.Record(300, 0, FrType::kDurable, 90, 0);  // conflicting suffix cut
  EXPECT_TRUE(rig.wd.ok()) << rig.wd.Summary();
}

TEST(WatchdogMutationTest, StaleReadGrantBelowCommitWatermark) {
  Rig rig;
  rig.fr.Record(100, 0, FrType::kCommit, 50, 1);
  rig.fr.Record(200, 1, FrType::kLeaseGrant, 49, 1);  // deposed leader still serving
  rig.ExpectViolation(WatchdogCode::kStaleReadGrant);
}

TEST(WatchdogMutationTest, GrantAtTheWatermarkIsClean) {
  Rig rig;
  rig.fr.Record(100, 0, FrType::kCommit, 50, 1);
  rig.fr.Record(200, 0, FrType::kLeaseGrant, 50, 1);
  EXPECT_TRUE(rig.wd.ok()) << rig.wd.Summary();
}

TEST(WatchdogMutationTest, DoubleApplyWithDedupBypassed) {
  Rig rig;
  rig.fr.Record(100, 0, FrType::kApply, 42, 7, 1);  // c=1: session table bypassed
  rig.ExpectViolation(WatchdogCode::kDoubleApply);
}

TEST(WatchdogMutationTest, FlowControlSlotLeak) {
  Rig rig;
  rig.fr.Record(100, kInvalidNode, FrType::kFlow, 1'000'000, 1,
                static_cast<uint32_t>(FrFlowOp::kClose));
  rig.ExpectViolation(WatchdogCode::kFlowImbalance);
}

TEST(WatchdogMutationTest, BalancedFlowLedgerIsClean) {
  Rig rig;
  rig.fr.Record(100, kInvalidNode, FrType::kFlow, 1, 128,
                static_cast<uint32_t>(FrFlowOp::kOpen));
  rig.fr.Record(200, kInvalidNode, FrType::kFlow, 2, 128,
                static_cast<uint32_t>(FrFlowOp::kOpen));
  rig.fr.Record(300, kInvalidNode, FrType::kFlow, 1, 128,
                static_cast<uint32_t>(FrFlowOp::kClose));
  EXPECT_TRUE(rig.wd.ok()) << rig.wd.Summary();
}

TEST(WatchdogMutationTest, SuspectNodeCampaigning) {
  Rig rig;
  rig.fr.Record(100, 2, FrType::kRole, 9, kCandidate, 1);  // c=1: recovery-suspect
  rig.ExpectViolation(WatchdogCode::kSuspectCampaign);
}

// ---------------------------------------------------------------------------
// Chaos integration: injections fire end to end, clean runs stay silent, and
// the recorder does not perturb the run it records.

ChaosRunConfig BaseConfig(ClusterMode mode, const std::string& schedule, uint64_t seed) {
  ChaosRunConfig config;
  config.cluster.mode = mode;
  config.schedule = schedule;
  config.cluster.seed = seed;
  return config;
}

TEST(WatchdogChaosTest, InjectedViolationsFireWithDumps) {
  const struct {
    const char* inject;
    const char* code;
  } kCases[] = {
      {"dual-leader", "dual_leader"},
      {"commit-regression", "commit_regression"},
      {"lease-overlap", "stale_read_grant"},
      {"double-apply", "double_apply"},
      {"flow-leak", "flow_imbalance"},
  };
  for (const auto& c : kCases) {
    SCOPED_TRACE(c.inject);
    ChaosRunConfig config = BaseConfig(ClusterMode::kHovercRaft, "none", 7);
    config.inject_violation = c.inject;
    config.dump_path = testing::TempDir() + "fr_dump_" + c.code + ".json";
    std::remove(config.dump_path.c_str());
    const ChaosRunResult result = RunChaosSchedule(config);
    EXPECT_FALSE(result.watchdog_ok);
    EXPECT_GE(result.watchdog_violations, 1u);
    EXPECT_NE(result.watchdog_summary.find(c.code), std::string::npos)
        << result.watchdog_summary;
    EXPECT_FALSE(result.ok());
    std::ifstream dump(config.dump_path);
    ASSERT_TRUE(dump.good()) << "no dump at " << config.dump_path;
    std::stringstream content;
    content << dump.rdbuf();
    EXPECT_NE(content.str().find("\"violation\""), std::string::npos);
  }
}

TEST(WatchdogChaosTest, CleanChaosRunIsSilent) {
  const ChaosRunResult result =
      RunChaosSchedule(BaseConfig(ClusterMode::kHovercRaftPP, "flap", 3));
  EXPECT_TRUE(result.ok());
  EXPECT_TRUE(result.watchdog_ok);
  EXPECT_EQ(result.watchdog_violations, 0u);
  EXPECT_GT(result.watchdog_events, 0u);
  EXPECT_GT(result.watchdog_checks, 0u);
  EXPECT_GT(result.recorder_events, 0u);
  EXPECT_EQ(result.watchdog_summary.rfind("invariants=", 0), 0u)
      << result.watchdog_summary;
}

TEST(WatchdogChaosTest, RecorderAndWatchdogDoNotPerturbTheRun) {
  ChaosRunConfig on = BaseConfig(ClusterMode::kHovercRaft, "random", 11);
  ChaosRunConfig off = on;
  off.fabric.flight_recorder_depth = 0;  // recorder (and therefore watchdog) absent
  const ChaosRunResult a = RunChaosSchedule(on);
  const ChaosRunResult b = RunChaosSchedule(off);
  EXPECT_GT(a.recorder_events, 0u);
  EXPECT_EQ(b.recorder_events, 0u);
  EXPECT_EQ(b.watchdog_summary, "off");
  // The observed run must be byte-for-byte the same simulation.
  EXPECT_EQ(a.leader_alive, b.leader_alive);
  EXPECT_EQ(a.digests_converged, b.digests_converged);
  EXPECT_EQ(a.linearizability.linearizable, b.linearizability.linearizable);
  EXPECT_EQ(a.final_members, b.final_members);
  EXPECT_EQ(a.final_config_idx, b.final_config_idx);
  EXPECT_EQ(a.invoked, b.invoked);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.nacked, b.nacked);
  EXPECT_EQ(a.dropped_by_fault, b.dropped_by_fault);
  EXPECT_EQ(a.retransmits, b.retransmits);
  EXPECT_EQ(a.dedup_hits, b.dedup_hits);
  EXPECT_EQ(a.double_applies, b.double_applies);
  EXPECT_EQ(a.entries_appended, b.entries_appended);
  EXPECT_EQ(a.max_term, b.max_term);
}

// ---------------------------------------------------------------------------
// Critical-path analyzer: blame must telescope exactly to end-to-end latency.

TEST(CriticalPathTest, BlameTelescopesToEndToEnd) {
  FlightRecorder fr(1024);
  CriticalPath cp;
  fr.AddSink(&cp);
  auto mark = [&](uint64_t seq, Stage stage, TimeNs ts) {
    fr.Record(ts, 0, FrType::kStage, /*client=*/1, seq, static_cast<uint32_t>(stage));
  };
  // 100 requests with a linearly growing end-to-end latency; stages split
  // the path 30% to commit, 50% to apply, 20% to the reply leg.
  constexpr int kRequests = 100;
  for (int i = 0; i < kRequests; ++i) {
    const TimeNs start = 10'000 * i;
    const TimeNs e2e = 1'000 + 10 * i;
    mark(i, Stage::kClientSend, start);
    mark(i, Stage::kCommitted, start + (e2e * 3) / 10);
    mark(i, Stage::kApplyEnd, start + (e2e * 8) / 10);
    mark(i, Stage::kComplete, start + e2e);
  }
  EXPECT_EQ(cp.completed(), static_cast<size_t>(kRequests));
  const auto rows = cp.Attribution();
  ASSERT_EQ(rows.size(), 3u);
  for (const auto& row : rows) {
    double sum = 0;
    for (double blame : row.blame_ns) sum += blame;
    EXPECT_NEAR(sum, row.e2e_ns, 1e-6) << row.population;
    EXPECT_GT(row.count, 0u);
  }
  EXPECT_LT(cp.MaxSumError(), 1e-9);
  // Nearest-rank p50 of 1000..1990 step 10: rank round(0.5 * 99) = 50.
  EXPECT_EQ(rows[0].percentile_ns, 1'500);
}

TEST(CriticalPathTest, NackedRequestsAreExcluded) {
  FlightRecorder fr(64);
  CriticalPath cp;
  fr.AddSink(&cp);
  fr.Record(100, 0, FrType::kStage, 1, 1, static_cast<uint32_t>(Stage::kClientSend));
  fr.Record(200, 0, FrType::kStage, 1, 1, static_cast<uint32_t>(Stage::kNacked));
  fr.Record(300, 0, FrType::kStage, 1, 2, static_cast<uint32_t>(Stage::kClientSend));
  fr.Record(900, 0, FrType::kStage, 1, 2, static_cast<uint32_t>(Stage::kComplete));
  EXPECT_EQ(cp.completed(), 1u);
  EXPECT_LT(cp.MaxSumError(), 1e-9);
}

}  // namespace
}  // namespace obs
}  // namespace hovercraft
