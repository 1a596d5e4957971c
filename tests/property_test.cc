// Property-style tests (parameterized sweeps) over the protocol's core
// invariants:
//   - determinism: same seed => byte-identical run outcomes
//   - safety under random loss and random schedules: replicas never diverge
//   - HovercRaft equivalence: the extensions never change the committed
//     history's application result vs. vanilla Raft under the same input
//   - bounded queues: a dead replier costs at most B replies
#include <gtest/gtest.h>

#include <memory>
#include <tuple>

#include "src/app/kvstore/service.h"
#include "src/app/synthetic.h"
#include "src/core/cluster.h"
#include "src/loadgen/client.h"
#include "src/loadgen/experiment.h"
#include "src/loadgen/workload.h"

namespace hovercraft {
namespace {

struct RunOutcome {
  uint64_t completed = 0;
  uint64_t applied = 0;
  uint64_t digest = 0;
  bool converged = false;
};

RunOutcome RunCluster(ClusterMode mode, int32_t nodes, uint64_t seed, double loss,
                      double rate, ReplierPolicy policy, TimeNs extra_settle = Millis(200)) {
  ClusterConfig config;
  config.mode = mode;
  config.nodes = nodes;
  config.seed = seed;
  config.replier_policy = policy;
  config.bounded_queue_depth = 32;
  config.app_factory = []() { return std::make_unique<SyntheticService>(); };

  Cluster cluster(config);
  cluster.network().set_loss_probability(loss);
  if (mode != ClusterMode::kUnreplicated && cluster.WaitForLeader() == kInvalidNode) {
    return RunOutcome{};
  }

  SyntheticWorkloadConfig wc;
  wc.read_only_fraction = 0.5;
  wc.service_time = std::make_shared<FixedDistribution>(Micros(1));
  auto client = std::make_unique<ClientHost>(
      &cluster.sim(), config.costs, [&cluster]() { return cluster.ClientTarget(); },
      std::make_unique<SyntheticWorkload>(wc), rate, seed ^ 0xC11E47ull);
  cluster.network().Attach(client.get());

  const TimeNs t0 = cluster.sim().Now();
  client->StartLoad(t0, t0 + Millis(60));
  // Let retransmissions settle so every replica reaches the same commit.
  cluster.network().set_loss_probability(0.0);
  cluster.sim().RunUntil(t0 + Millis(60) + extra_settle);

  RunOutcome out;
  out.completed = client->total_completed();
  out.applied = cluster.server(0).app().ApplyCount();
  out.digest = cluster.server(0).app().Digest();
  out.converged = true;
  for (NodeId n = 1; n < cluster.node_count(); ++n) {
    if (cluster.server(n).app().Digest() != out.digest ||
        cluster.server(n).app().ApplyCount() != out.applied) {
      out.converged = false;
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Determinism: identical seeds replay identically.
// ---------------------------------------------------------------------------

class DeterminismTest
    : public ::testing::TestWithParam<std::tuple<ClusterMode, uint64_t>> {};

TEST_P(DeterminismTest, SameSeedSameOutcome) {
  const auto [mode, seed] = GetParam();
  const RunOutcome a = RunCluster(mode, 3, seed, 0.005, 40'000, ReplierPolicy::kJbsq);
  const RunOutcome b = RunCluster(mode, 3, seed, 0.005, 40'000, ReplierPolicy::kJbsq);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.applied, b.applied);
  EXPECT_EQ(a.digest, b.digest);
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, DeterminismTest,
    ::testing::Combine(::testing::Values(ClusterMode::kHovercRaft, ClusterMode::kHovercRaftPP),
                       ::testing::Values(1u, 17u, 923u)));

// ---------------------------------------------------------------------------
// Safety sweep: random loss rates and seeds never produce divergence.
// ---------------------------------------------------------------------------

class SafetySweepTest
    : public ::testing::TestWithParam<std::tuple<ClusterMode, int32_t, uint64_t, int>> {};

TEST_P(SafetySweepTest, ReplicasNeverDiverge) {
  const auto [mode, nodes, seed, loss_permille] = GetParam();
  const RunOutcome out = RunCluster(mode, nodes, seed, loss_permille / 1000.0, 30'000,
                                    ReplierPolicy::kJbsq, Millis(400));
  EXPECT_TRUE(out.converged) << "mode=" << ClusterModeName(mode) << " nodes=" << nodes
                             << " seed=" << seed << " loss=" << loss_permille << "permille";
  EXPECT_GT(out.applied, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    LossGrid, SafetySweepTest,
    ::testing::Combine(::testing::Values(ClusterMode::kVanillaRaft, ClusterMode::kHovercRaft,
                                         ClusterMode::kHovercRaftPP),
                       ::testing::Values(3, 5), ::testing::Values(11u, 29u),
                       ::testing::Values(0, 5, 20)));

// ---------------------------------------------------------------------------
// Equivalence: for the same client input, all replicated modes apply the
// same number of read-write operations (the digests differ only if ordering
// semantics were violated; with a single client the arrival order is the
// commit order in every mode).
// ---------------------------------------------------------------------------

TEST(EquivalenceTest, AllReplicatedModesApplySameWriteCount) {
  const RunOutcome vanilla =
      RunCluster(ClusterMode::kVanillaRaft, 3, 5, 0.0, 20'000, ReplierPolicy::kLeaderOnly);
  const RunOutcome hovercraft =
      RunCluster(ClusterMode::kHovercRaft, 3, 5, 0.0, 20'000, ReplierPolicy::kJbsq);
  const RunOutcome hovercraftpp =
      RunCluster(ClusterMode::kHovercRaftPP, 3, 5, 0.0, 20'000, ReplierPolicy::kJbsq);
  EXPECT_TRUE(vanilla.converged);
  EXPECT_TRUE(hovercraft.converged);
  EXPECT_TRUE(hovercraftpp.converged);
  // Same client stream (same seed) => same set of writes committed.
  EXPECT_EQ(vanilla.applied, hovercraft.applied);
  EXPECT_EQ(vanilla.applied, hovercraftpp.applied);
}

// ---------------------------------------------------------------------------
// KvStore under replication: every replica's store has identical content.
// ---------------------------------------------------------------------------

class KvReplicationTest : public ::testing::TestWithParam<ClusterMode> {};

TEST_P(KvReplicationTest, StoresConvergeUnderYcsb) {
  ClusterConfig config;
  config.mode = GetParam();
  config.nodes = 3;
  config.seed = 77;
  config.replier_policy = ReplierPolicy::kJbsq;
  config.bounded_queue_depth = 32;
  YcsbEConfig ycsb;
  ycsb.conversation_count = 50;
  ycsb.preload_per_conversation = 2;
  config.app_factory = [ycsb]() {
    auto svc = std::make_unique<KvService>();
    // Identical deterministic preload on every replica.
    Rng rng(424242);
    YcsbEGenerator gen(ycsb);
    for (const KvCommand& cmd : gen.PreloadCommands(rng)) {
      svc->Apply(cmd);
    }
    return svc;
  };

  Cluster cluster(config);
  ASSERT_NE(cluster.WaitForLeader(), kInvalidNode);
  auto client = std::make_unique<ClientHost>(
      &cluster.sim(), config.costs, [&cluster]() { return cluster.ClientTarget(); },
      std::make_unique<YcsbEWorkload>(ycsb), 5'000, 31);
  cluster.network().Attach(client.get());
  const TimeNs t0 = cluster.sim().Now();
  client->StartLoad(t0, t0 + Millis(100));
  cluster.sim().RunUntil(t0 + Millis(300));

  EXPECT_GT(client->total_completed(), 200u);
  const auto& store0 = static_cast<const KvService&>(cluster.server(0).app()).store();
  const uint64_t digest0 = store0.ContentDigest();
  EXPECT_GT(store0.key_count(), 0u);
  for (NodeId n = 1; n < 3; ++n) {
    const auto& store = static_cast<const KvService&>(cluster.server(n).app()).store();
    EXPECT_EQ(store.ContentDigest(), digest0) << "node " << n;
  }
}

INSTANTIATE_TEST_SUITE_P(Modes, KvReplicationTest,
                         ::testing::Values(ClusterMode::kVanillaRaft, ClusterMode::kHovercRaft,
                                           ClusterMode::kHovercRaftPP),
                         [](const ::testing::TestParamInfo<ClusterMode>& mode_info) {
                           switch (mode_info.param) {
                             case ClusterMode::kVanillaRaft:
                               return "VanillaRaft";
                             case ClusterMode::kHovercRaft:
                               return "HovercRaft";
                             case ClusterMode::kHovercRaftPP:
                               return "HovercRaftPP";
                             default:
                               return "unknown";
                           }
                         });

}  // namespace
}  // namespace hovercraft

namespace hovercraft {
namespace {

// ---------------------------------------------------------------------------
// Sequential-replay equivalence: executing the committed log on a fresh
// state machine reproduces every replica's state exactly — replicated
// execution is indistinguishable from a single sequential server (the SMR
// linearizability contract).
// ---------------------------------------------------------------------------

TEST(ReplayEquivalenceTest, CommittedLogReplaysToSameState) {
  ClusterConfig config;
  config.mode = ClusterMode::kHovercRaftPP;
  config.nodes = 3;
  config.seed = 1234;
  config.replier_policy = ReplierPolicy::kJbsq;
  config.app_factory = []() { return std::make_unique<KvService>(); };
  // Keep the whole log so we can replay it afterwards.
  config.raft.log_retention_entries = 1'000'000;
  config.server_template.straggler_lag_entries = 1'000'000;
  Cluster cluster(config);
  ASSERT_NE(cluster.WaitForLeader(), kInvalidNode);

  YcsbEConfig ycsb;
  ycsb.conversation_count = 40;
  ycsb.scan_fraction = 0.6;  // plenty of writes so state accumulates
  auto client = std::make_unique<ClientHost>(
      &cluster.sim(), config.costs, [&cluster]() { return cluster.ClientTarget(); },
      std::make_unique<YcsbEWorkload>(ycsb), 10'000, 55);
  cluster.network().Attach(client.get());
  const TimeNs t0 = cluster.sim().Now();
  client->StartLoad(t0, t0 + Millis(100));
  cluster.sim().RunUntil(t0 + Millis(300));
  ASSERT_GT(client->total_completed(), 300u);

  // Replay the committed prefix of the leader's log on a fresh service.
  const NodeId leader = cluster.LeaderId();
  const RaftNode& raft = *cluster.server(leader).raft();
  KvService replay;
  uint64_t replayed = 0;
  for (LogIndex idx = raft.log().first_index(); idx <= raft.commit_index(); ++idx) {
    const LogEntry& entry = raft.log().At(idx);
    if (entry.noop) {
      continue;
    }
    // Replay rule mirrors the read-only optimization: reads touch no state,
    // so skipping them preserves equivalence; writes execute everywhere.
    if (!entry.request->read_only()) {
      replay.Execute(*entry.request);
      ++replayed;
    }
  }
  EXPECT_GT(replayed, 0u);

  // Wait — the replica digests include the mutation digest seeded by rids;
  // the replay applied exactly the same write sequence, so full equality.
  for (NodeId n = 0; n < 3; ++n) {
    EXPECT_EQ(cluster.server(n).app().Digest(), replay.Digest()) << "node " << n;
    EXPECT_EQ(cluster.server(n).app().ApplyCount(), replay.ApplyCount()) << "node " << n;
  }
}

}  // namespace
}  // namespace hovercraft
