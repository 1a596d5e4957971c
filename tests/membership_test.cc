// Dynamic membership: live AddServer/RemoveServer reconfiguration across the
// full stack — learner catch-up and promotion, leader step-down on
// self-removal, snapshot-carried configs to fresh learners, one-in-flight
// enforcement, and every layer (multicast, scheduler, aggregator, flow
// control) reacting on config commit. See docs/membership.md.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "src/app/synthetic.h"
#include "src/core/cluster.h"
#include "src/loadgen/client.h"
#include "src/loadgen/workload.h"
#include "src/raft/membership.h"

namespace hovercraft {
namespace {

ClusterConfig BaseConfig(ClusterMode mode, int32_t nodes, int32_t spares, uint64_t seed) {
  ClusterConfig config;
  config.mode = mode;
  config.nodes = nodes;
  config.spare_nodes = spares;
  config.seed = seed;
  config.app_factory = []() { return std::make_unique<SyntheticService>(); };
  if (mode == ClusterMode::kHovercRaft || mode == ClusterMode::kHovercRaftPP) {
    config.replier_policy = ReplierPolicy::kJbsq;
    config.bounded_queue_depth = 64;
  }
  return config;
}

std::unique_ptr<ClientHost> MakeClient(Cluster& cluster, uint64_t rps, uint64_t seed) {
  SyntheticWorkloadConfig wc;
  wc.request_bytes = 24;
  wc.reply_bytes = 8;
  wc.service_time = std::make_shared<FixedDistribution>(Micros(1));
  auto client = std::make_unique<ClientHost>(
      &cluster.sim(), cluster.config().costs, [&cluster]() { return cluster.ClientTarget(); },
      std::make_unique<SyntheticWorkload>(wc), rps, seed);
  cluster.network().Attach(client.get());
  return client;
}

// --- membership config value type -------------------------------------------

TEST(MembershipConfigTest, FactoriesKeepSetsSortedAndDisjoint) {
  auto base = MakeInitialConfig(3);
  EXPECT_EQ(base->voters, (std::vector<NodeId>{0, 1, 2}));
  EXPECT_TRUE(base->learners.empty());
  EXPECT_EQ(base->majority(), 2);

  auto with_learner = WithLearner(*base, 3);
  EXPECT_EQ(with_learner->voters, (std::vector<NodeId>{0, 1, 2}));
  EXPECT_EQ(with_learner->learners, (std::vector<NodeId>{3}));
  EXPECT_EQ(with_learner->members, (std::vector<NodeId>{0, 1, 2, 3}));
  EXPECT_TRUE(with_learner->IsLearner(3));
  EXPECT_FALSE(with_learner->IsVoter(3));
  EXPECT_EQ(with_learner->majority(), 2);  // learners do not count

  auto promoted = WithPromoted(*with_learner, 3);
  EXPECT_EQ(promoted->voters, (std::vector<NodeId>{0, 1, 2, 3}));
  EXPECT_TRUE(promoted->learners.empty());
  EXPECT_EQ(promoted->majority(), 3);

  auto removed = WithRemoved(*promoted, 1);
  EXPECT_EQ(removed->voters, (std::vector<NodeId>{0, 2, 3}));
  EXPECT_FALSE(removed->IsMember(1));
  EXPECT_EQ(removed->majority(), 2);
}

// --- add: spare -> learner -> voter -----------------------------------------

class MembershipModesTest : public ::testing::TestWithParam<ClusterMode> {};

TEST_P(MembershipModesTest, AddServerPromotesSpareToVoter) {
  ClusterConfig config = BaseConfig(GetParam(), 3, /*spares=*/1, 41);
  Cluster cluster(config);
  ASSERT_NE(cluster.WaitForLeader(), kInvalidNode);
  auto client = MakeClient(cluster, 30'000, 11);

  const TimeNs t0 = cluster.sim().Now();
  client->StartLoad(t0, t0 + Millis(120));
  cluster.sim().RunUntil(t0 + Millis(20));

  // The spare is passive before the change: no vote, no log.
  EXPECT_FALSE(cluster.IsMember(3));
  EXPECT_EQ(cluster.server(3).raft()->log().last_index(), 0u);

  cluster.AddServer(3);
  cluster.sim().RunUntil(t0 + Millis(250));

  const NodeId leader = cluster.LeaderId();
  ASSERT_NE(leader, kInvalidNode);
  const MembershipConfig& active = cluster.server(leader).raft()->active_config();
  EXPECT_TRUE(active.IsVoter(3)) << active.Describe();
  EXPECT_TRUE(active.learners.empty()) << active.Describe();
  EXPECT_EQ(cluster.Members().size(), 4u);
  EXPECT_GE(cluster.server(leader).raft()->stats().learners_promoted, 1u);
  // Two committed configs: add-as-learner, then promote-to-voter.
  EXPECT_GE(cluster.server(leader).raft()->stats().config_changes_committed, 2u);

  // The new member replicates for real: identical state machine.
  EXPECT_GT(cluster.server(3).app().ApplyCount(), 0u);
  EXPECT_EQ(cluster.server(3).app().Digest(), cluster.server(leader).app().Digest());
}

INSTANTIATE_TEST_SUITE_P(Modes, MembershipModesTest,
                         ::testing::Values(ClusterMode::kHovercRaft, ClusterMode::kHovercRaftPP),
                         [](const ::testing::TestParamInfo<ClusterMode>& mode_info) {
                           return mode_info.param == ClusterMode::kHovercRaft ? "HovercRaft"
                                                                              : "HovercRaftPP";
                         });

// --- remove: follower and leader --------------------------------------------

TEST(MembershipTest, RemoveFollowerShrinksClusterAndRetiresIt) {
  ClusterConfig config = BaseConfig(ClusterMode::kHovercRaft, 3, 0, 43);
  Cluster cluster(config);
  ASSERT_NE(cluster.WaitForLeader(), kInvalidNode);
  auto client = MakeClient(cluster, 30'000, 13);

  const TimeNs t0 = cluster.sim().Now();
  client->StartLoad(t0, t0 + Millis(300));
  cluster.sim().RunUntil(t0 + Millis(20));

  const NodeId leader = cluster.LeaderId();
  const NodeId victim = (leader + 1) % 3;
  cluster.RemoveServer(victim);
  cluster.sim().RunUntil(t0 + Millis(200));

  EXPECT_EQ(cluster.Members().size(), 2u);
  EXPECT_FALSE(cluster.IsMember(victim));
  EXPECT_TRUE(cluster.server(victim).raft()->retired());
  // The shrunk cluster keeps serving: majority is now 1 of... 2 voters.
  const uint64_t before = client->total_completed();
  cluster.sim().RunUntil(t0 + Millis(260));
  EXPECT_GT(client->total_completed(), before);
  // The removed node stopped receiving replication traffic.
  const MembershipConfig& active =
      cluster.server(cluster.LeaderId()).raft()->active_config();
  EXPECT_FALSE(active.IsMember(victim));
  EXPECT_EQ(active.voters.size(), 2u);
}

TEST(MembershipTest, RemoveLeaderStepsDownAfterCommit) {
  ClusterConfig config = BaseConfig(ClusterMode::kHovercRaft, 3, 0, 47);
  Cluster cluster(config);
  ASSERT_NE(cluster.WaitForLeader(), kInvalidNode);
  auto client = MakeClient(cluster, 30'000, 17);

  const TimeNs t0 = cluster.sim().Now();
  client->StartLoad(t0, t0 + Millis(400));
  cluster.sim().RunUntil(t0 + Millis(20));

  const NodeId old_leader = cluster.LeaderId();
  cluster.RemoveServer(old_leader);
  cluster.sim().RunUntil(t0 + Millis(300));

  // The deposed leader retired and someone else leads.
  EXPECT_TRUE(cluster.server(old_leader).raft()->retired());
  const NodeId new_leader = cluster.LeaderId();
  ASSERT_NE(new_leader, kInvalidNode);
  EXPECT_NE(new_leader, old_leader);
  EXPECT_EQ(cluster.Members().size(), 2u);
  EXPECT_FALSE(cluster.IsMember(old_leader));

  // Liveness after the handover.
  const uint64_t before = client->total_completed();
  cluster.sim().RunUntil(t0 + Millis(400));
  EXPECT_GT(client->total_completed(), before);
}

// --- one change in flight ----------------------------------------------------

TEST(MembershipTest, SecondChangeRejectedWhileFirstInFlight) {
  ClusterConfig config = BaseConfig(ClusterMode::kHovercRaft, 3, 2, 53);
  Cluster cluster(config);
  ASSERT_NE(cluster.WaitForLeader(), kInvalidNode);
  const NodeId leader = cluster.LeaderId();
  RaftNode* raft = cluster.server(leader).raft();

  EXPECT_TRUE(raft->StartAddServer(3));
  EXPECT_TRUE(raft->ConfigChangeInFlight());
  // Dissertation section 4: at most one config entry in flight.
  EXPECT_FALSE(raft->StartAddServer(4));
  EXPECT_FALSE(raft->StartRemoveServer(1));
  // Redundant and nonsensical changes are rejected outright.
  EXPECT_FALSE(raft->StartAddServer(leader));
  EXPECT_FALSE(raft->StartRemoveServer(99));

  // Via the management plane, back-to-back changes retry until both land.
  cluster.AddServer(4);
  cluster.sim().RunUntil(cluster.sim().Now() + Millis(400));
  EXPECT_EQ(cluster.Members().size(), 5u);
  const MembershipConfig& active = cluster.server(cluster.LeaderId()).raft()->active_config();
  EXPECT_TRUE(active.IsVoter(3));
  EXPECT_TRUE(active.IsVoter(4));
}

// --- snapshot-carried config --------------------------------------------------

TEST(MembershipTest, SnapshotCarriesConfigToFreshLearner) {
  ClusterConfig config = BaseConfig(ClusterMode::kHovercRaft, 3, 1, 59);
  // Aggressive compaction: by the time the spare is added, the log prefix
  // (and the initial entries a fresh learner would need) is long gone, so
  // catch-up must go through InstallSnapshot — which must carry the config.
  config.raft.log_retention_entries = 128;
  config.server_template.straggler_lag_entries = 256;
  config.server_template.compaction_interval = Millis(5);
  Cluster cluster(config);
  ASSERT_NE(cluster.WaitForLeader(), kInvalidNode);
  auto client = MakeClient(cluster, 50'000, 19);

  const TimeNs t0 = cluster.sim().Now();
  client->StartLoad(t0, t0 + Millis(200));
  cluster.sim().RunUntil(t0 + Millis(80));

  // The log head is compacted well past a fresh learner's position.
  const NodeId leader = cluster.LeaderId();
  ASSERT_GT(cluster.server(leader).raft()->log().first_index(), 1u);

  cluster.AddServer(3);
  cluster.sim().RunUntil(t0 + Millis(400));

  // Caught up via state transfer, knows the membership, and votes.
  EXPECT_GE(cluster.server(3).server_stats().snapshots_restored, 1u);
  EXPECT_GT(cluster.server(3).raft()->committed_config_idx(), 0u);
  EXPECT_TRUE(cluster.server(3).raft()->active_config().IsMember(3));
  const NodeId final_leader = cluster.LeaderId();
  ASSERT_NE(final_leader, kInvalidNode);
  EXPECT_TRUE(cluster.server(final_leader).raft()->active_config().IsVoter(3));
  EXPECT_EQ(cluster.server(3).app().Digest(), cluster.server(final_leader).app().Digest());
}

// --- configs across a power-fail restart -------------------------------------

// A restarted node's recovered log can still hold a config entry below the
// config its local snapshot carries. The node must go on answering ConfigAt
// for that entry like every other replica: a leader ships it, config
// included, to a follower lagging that far.
TEST(MembershipTest, RestartKeepsConfigEntriesBelowTheSnapshotConfig) {
  ClusterConfig config = BaseConfig(ClusterMode::kHovercRaft, 3, 2, 67);
  config.server_template.disk_faults = true;
  config.stagger_first_election = false;
  // Local snapshots every 5 ms, while the log (and so the WAL) keeps
  // everything.
  config.server_template.compaction_interval = Millis(5);
  config.raft.log_retention_entries = 1'000'000;
  Cluster cluster(config);
  ASSERT_NE(cluster.WaitForLeader(), kInvalidNode);
  auto client = MakeClient(cluster, 30'000, 23);

  const TimeNs t0 = cluster.sim().Now();
  client->StartLoad(t0, t0 + Millis(300));
  cluster.sim().RunUntil(t0 + Millis(20));
  cluster.AddServer(3);
  cluster.sim().RunUntil(t0 + Millis(100));
  const LogIndex first = cluster.server(cluster.LeaderId()).raft()->committed_config_idx();
  cluster.AddServer(4);
  cluster.sim().RunUntil(t0 + Millis(180));
  const NodeId leader = cluster.LeaderId();
  const LogIndex second = cluster.server(leader).raft()->committed_config_idx();
  ASSERT_GT(first, 0u);
  ASSERT_GT(second, first);

  const NodeId victim = (leader + 1) % 3;
  cluster.PowerFailNode(victim);
  cluster.sim().RunUntil(t0 + Millis(190));
  cluster.RestartNode(victim);
  const RaftNode& restarted = *cluster.server(victim).raft();
  // Recovery took the second config from the snapshot, the first from the log.
  EXPECT_EQ(restarted.committed_config_idx(), second);
  ASSERT_LE(restarted.log().first_index(), first);
  const RaftNode& reference = *cluster.server(leader).raft();
  for (const LogIndex idx : {first, second}) {
    ASSERT_NE(restarted.ConfigAt(idx), nullptr) << "idx " << idx;
    ASSERT_NE(reference.ConfigAt(idx), nullptr) << "idx " << idx;
    EXPECT_EQ(restarted.ConfigAt(idx)->voters, reference.ConfigAt(idx)->voters) << "idx " << idx;
    EXPECT_EQ(restarted.ConfigAt(idx)->learners, reference.ConfigAt(idx)->learners)
        << "idx " << idx;
  }
  EXPECT_EQ(restarted.ConfigAt(first + 1), nullptr);
  EXPECT_TRUE(restarted.active_config().IsVoter(4));

  cluster.sim().RunUntil(t0 + Millis(400));
  EXPECT_EQ(cluster.server(victim).app().Digest(),
            cluster.server(cluster.LeaderId()).app().Digest());
}

// --- flow-control ledger convergence across a config change -------------------

TEST(MembershipTest, LedgerStaysConvergedAcrossReconfiguration) {
  ClusterConfig config = BaseConfig(ClusterMode::kHovercRaft, 3, 1, 61);
  config.flow_control_threshold = 256;
  Cluster cluster(config);
  ASSERT_NE(cluster.WaitForLeader(), kInvalidNode);
  auto client = MakeClient(cluster, 40'000, 23);

  const TimeNs t0 = cluster.sim().Now();
  client->StartLoad(t0, t0 + Millis(150));
  cluster.sim().RunUntil(t0 + Millis(20));
  cluster.AddServer(3);
  cluster.sim().RunUntil(t0 + Millis(60));
  cluster.RemoveServer(1);
  // Let the load finish and drain completely.
  cluster.sim().RunUntil(t0 + Millis(500));

  EXPECT_EQ(cluster.Members().size(), 3u);
  EXPECT_FALSE(cluster.IsMember(1));
  // Every admitted request was repaid: the ledger converged to zero open
  // slots even though repliers joined and left mid-run.
  EXPECT_EQ(cluster.flow_control()->outstanding(), 0);
  EXPECT_EQ(cluster.flow_control()->force_released(), 0u);
  // Exactly-once held throughout.
  for (NodeId n = 0; n < cluster.total_node_count(); ++n) {
    EXPECT_EQ(cluster.server(n).server_stats().double_applies, 0u) << "node " << n;
  }
}

}  // namespace
}  // namespace hovercraft
