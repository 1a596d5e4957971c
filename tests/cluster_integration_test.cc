// End-to-end cluster tests: real clients, the full protocol stack, and the
// simulated fabric, across all four configurations of the paper.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/app/synthetic.h"
#include "src/common/slab_pool.h"
#include "src/core/cluster.h"
#include "src/loadgen/client.h"
#include "src/loadgen/experiment.h"
#include "src/loadgen/workload.h"

namespace hovercraft {
namespace {

ClusterConfig BaseConfig(ClusterMode mode, int32_t nodes, uint64_t seed = 1) {
  ClusterConfig config;
  config.mode = mode;
  config.nodes = nodes;
  config.seed = seed;
  config.app_factory = []() { return std::make_unique<SyntheticService>(); };
  if (mode == ClusterMode::kHovercRaft || mode == ClusterMode::kHovercRaftPP) {
    config.replier_policy = ReplierPolicy::kJbsq;
    config.bounded_queue_depth = 64;
  }
  return config;
}

ExperimentConfig BaseExperiment(ClusterMode mode, int32_t nodes, uint64_t seed = 1) {
  ExperimentConfig config;
  config.cluster = BaseConfig(mode, nodes, seed);
  config.workload_factory = []() {
    SyntheticWorkloadConfig wc;
    wc.request_bytes = 24;
    wc.reply_bytes = 8;
    wc.service_time = std::make_shared<FixedDistribution>(Micros(1));
    return std::make_unique<SyntheticWorkload>(wc);
  };
  config.client_count = 2;
  config.warmup = Millis(20);
  config.measure = Millis(50);
  config.drain = Millis(100);
  return config;
}

// --- basic liveness: every mode completes requests with sane latency -------

class AllModesTest : public ::testing::TestWithParam<ClusterMode> {};

TEST_P(AllModesTest, CompletesRequestsAtLowLoad) {
  ExperimentConfig config = BaseExperiment(GetParam(), 3);
  const LoadMetrics m = RunLoadPoint(config, 10'000);
  EXPECT_GT(m.completed, 400u);
  EXPECT_EQ(m.lost, 0u);
  EXPECT_EQ(m.nacked, 0u);
  // Near the offered rate.
  EXPECT_NEAR(m.achieved_rps, 10'000, 1'500);
  // Unloaded latency is tens of microseconds, never milliseconds.
  EXPECT_LT(m.p99_ns, Micros(200));
  EXPECT_GT(m.p50_ns, 0);
}

TEST_P(AllModesTest, ModerateLoadKeepsTailBounded) {
  ExperimentConfig config = BaseExperiment(GetParam(), 3, 7);
  const LoadMetrics m = RunLoadPoint(config, 200'000);
  EXPECT_EQ(m.lost, 0u);
  EXPECT_NEAR(m.achieved_rps, 200'000, 20'000);
  EXPECT_LT(m.p99_ns, Micros(500));
}

INSTANTIATE_TEST_SUITE_P(Modes, AllModesTest,
                         ::testing::Values(ClusterMode::kUnreplicated, ClusterMode::kVanillaRaft,
                                           ClusterMode::kHovercRaft, ClusterMode::kHovercRaftPP),
                         [](const ::testing::TestParamInfo<ClusterMode>& mode_info) {
                           switch (mode_info.param) {
                             case ClusterMode::kUnreplicated:
                               return "UnRep";
                             case ClusterMode::kVanillaRaft:
                               return "VanillaRaft";
                             case ClusterMode::kHovercRaft:
                               return "HovercRaft";
                             case ClusterMode::kHovercRaftPP:
                               return "HovercRaftPP";
                           }
                           return "unknown";
                         });

// --- replication correctness ------------------------------------------------

class ReplicatedModesTest : public ::testing::TestWithParam<ClusterMode> {};

TEST_P(ReplicatedModesTest, ReplicasConvergeToIdenticalState) {
  ExperimentConfig config = BaseExperiment(GetParam(), 3, 21);
  Cluster cluster(config.cluster);
  ASSERT_NE(cluster.WaitForLeader(), kInvalidNode);

  auto client = std::make_unique<ClientHost>(
      &cluster.sim(), config.cluster.costs, [&cluster]() { return cluster.ClientTarget(); },
      config.workload_factory(), 50'000, 99);
  cluster.network().Attach(client.get());
  client->SetMeasureWindow(0, Millis(40));
  client->StartLoad(cluster.sim().Now(), cluster.sim().Now() + Millis(40));
  cluster.sim().RunUntil(cluster.sim().Now() + Millis(140));

  EXPECT_GT(client->total_completed(), 1000u);
  // All replicas applied the same RW sequence.
  const uint64_t digest0 = cluster.server(0).app().Digest();
  const uint64_t count0 = cluster.server(0).app().ApplyCount();
  EXPECT_GT(count0, 0u);
  for (NodeId n = 1; n < cluster.node_count(); ++n) {
    EXPECT_EQ(cluster.server(n).app().Digest(), digest0) << "node " << n;
    EXPECT_EQ(cluster.server(n).app().ApplyCount(), count0) << "node " << n;
  }
}

TEST_P(ReplicatedModesTest, CommitIndexesAgree) {
  ExperimentConfig config = BaseExperiment(GetParam(), 5, 33);
  Cluster cluster(config.cluster);
  ASSERT_NE(cluster.WaitForLeader(), kInvalidNode);

  auto client = std::make_unique<ClientHost>(
      &cluster.sim(), config.cluster.costs, [&cluster]() { return cluster.ClientTarget(); },
      config.workload_factory(), 20'000, 7);
  cluster.network().Attach(client.get());
  client->StartLoad(cluster.sim().Now(), cluster.sim().Now() + Millis(30));
  cluster.sim().RunUntil(cluster.sim().Now() + Millis(130));

  const NodeId leader = cluster.LeaderId();
  ASSERT_NE(leader, kInvalidNode);
  const LogIndex commit = cluster.server(leader).raft()->commit_index();
  EXPECT_GT(commit, 0u);
  for (NodeId n = 0; n < cluster.node_count(); ++n) {
    // Followers may lag by the in-flight window but must be close behind.
    EXPECT_GE(cluster.server(n).raft()->commit_index() + 200, commit) << "node " << n;
    EXPECT_LE(cluster.server(n).raft()->commit_index(), commit) << "node " << n;
  }
}

INSTANTIATE_TEST_SUITE_P(Modes, ReplicatedModesTest,
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

// --- HovercRaft-specific behaviour ------------------------------------------

TEST(HovercraftTest, RepliesAreLoadBalancedAcrossNodes) {
  ExperimentConfig config = BaseExperiment(ClusterMode::kHovercRaft, 3, 5);
  Cluster cluster(config.cluster);
  ASSERT_NE(cluster.WaitForLeader(), kInvalidNode);

  auto client = std::make_unique<ClientHost>(
      &cluster.sim(), config.cluster.costs, [&cluster]() { return cluster.ClientTarget(); },
      config.workload_factory(), 100'000, 13);
  cluster.network().Attach(client.get());
  client->StartLoad(cluster.sim().Now(), cluster.sim().Now() + Millis(50));
  cluster.sim().RunUntil(cluster.sim().Now() + Millis(150));

  uint64_t total = 0;
  for (NodeId n = 0; n < 3; ++n) {
    const uint64_t replies = cluster.server(n).server_stats().replies_sent;
    EXPECT_GT(replies, 0u) << "node " << n << " never replied";
    total += replies;
  }
  // Roughly even split (JBSQ with identical nodes).
  for (NodeId n = 0; n < 3; ++n) {
    const double share =
        static_cast<double>(cluster.server(n).server_stats().replies_sent) / total;
    EXPECT_GT(share, 0.15) << "node " << n;
    EXPECT_LT(share, 0.55) << "node " << n;
  }
}

TEST(HovercraftTest, ReadOnlyOpsExecuteOnlyOnReplier) {
  ExperimentConfig config = BaseExperiment(ClusterMode::kHovercRaft, 3, 17);
  config.workload_factory = []() {
    SyntheticWorkloadConfig wc;
    wc.read_only_fraction = 1.0;  // everything read-only
    wc.service_time = std::make_shared<FixedDistribution>(Micros(1));
    return std::make_unique<SyntheticWorkload>(wc);
  };
  Cluster cluster(config.cluster);
  ASSERT_NE(cluster.WaitForLeader(), kInvalidNode);

  auto client = std::make_unique<ClientHost>(
      &cluster.sim(), config.cluster.costs, [&cluster]() { return cluster.ClientTarget(); },
      config.workload_factory(), 100'000, 23);
  cluster.network().Attach(client.get());
  client->StartLoad(cluster.sim().Now(), cluster.sim().Now() + Millis(50));
  cluster.sim().RunUntil(cluster.sim().Now() + Millis(150));

  uint64_t executed = 0;
  uint64_t skipped = 0;
  for (NodeId n = 0; n < 3; ++n) {
    executed += cluster.server(n).server_stats().ops_executed;
    skipped += cluster.server(n).server_stats().ro_skipped;
  }
  // Each RO op executes exactly once cluster-wide and is skipped N-1 times.
  EXPECT_GT(executed, 1000u);
  EXPECT_NEAR(static_cast<double>(skipped) / executed, 2.0, 0.1);
  EXPECT_GT(client->total_completed(), 0u);
}

TEST(HovercraftTest, VanillaLeaderSendsAllReplies) {
  ExperimentConfig config = BaseExperiment(ClusterMode::kVanillaRaft, 3, 19);
  Cluster cluster(config.cluster);
  ASSERT_NE(cluster.WaitForLeader(), kInvalidNode);

  auto client = std::make_unique<ClientHost>(
      &cluster.sim(), config.cluster.costs, [&cluster]() { return cluster.ClientTarget(); },
      config.workload_factory(), 50'000, 29);
  cluster.network().Attach(client.get());
  client->StartLoad(cluster.sim().Now(), cluster.sim().Now() + Millis(40));
  cluster.sim().RunUntil(cluster.sim().Now() + Millis(140));

  const NodeId leader = cluster.LeaderId();
  ASSERT_NE(leader, kInvalidNode);
  for (NodeId n = 0; n < 3; ++n) {
    if (n == leader) {
      EXPECT_GT(cluster.server(n).server_stats().replies_sent, 0u);
    } else {
      EXPECT_EQ(cluster.server(n).server_stats().replies_sent, 0u);
    }
  }
}

TEST(HovercraftTest, FeedbackKeepsFlowControlCounterBounded) {
  ExperimentConfig config = BaseExperiment(ClusterMode::kHovercRaft, 3, 31);
  config.cluster.flow_control_threshold = 1'000'000;  // effectively unlimited
  Cluster cluster(config.cluster);
  ASSERT_NE(cluster.WaitForLeader(), kInvalidNode);

  auto client = std::make_unique<ClientHost>(
      &cluster.sim(), config.cluster.costs, [&cluster]() { return cluster.ClientTarget(); },
      config.workload_factory(), 100'000, 37);
  cluster.network().Attach(client.get());
  client->StartLoad(cluster.sim().Now(), cluster.sim().Now() + Millis(50));
  cluster.sim().RunUntil(cluster.sim().Now() + Millis(200));

  ASSERT_NE(cluster.flow_control(), nullptr);
  EXPECT_GT(cluster.flow_control()->forwarded(), 1000u);
  // After drain, outstanding returns near zero (repliers send FEEDBACK for
  // every forwarded request).
  EXPECT_LT(cluster.flow_control()->outstanding(), 50);
}

TEST(HovercraftTest, AggregatorAbsorbsFollowerReplies) {
  ExperimentConfig config = BaseExperiment(ClusterMode::kHovercRaftPP, 3, 41);
  Cluster cluster(config.cluster);
  ASSERT_NE(cluster.WaitForLeader(), kInvalidNode);

  auto client = std::make_unique<ClientHost>(
      &cluster.sim(), config.cluster.costs, [&cluster]() { return cluster.ClientTarget(); },
      config.workload_factory(), 100'000, 43);
  cluster.network().Attach(client.get());
  client->StartLoad(cluster.sim().Now(), cluster.sim().Now() + Millis(50));
  cluster.sim().RunUntil(cluster.sim().Now() + Millis(150));

  ASSERT_NE(cluster.aggregator(), nullptr);
  const auto& agg = cluster.aggregator()->agg_stats();
  EXPECT_GT(agg.ae_forwarded, 100u);
  EXPECT_GT(agg.replies_absorbed, 100u);
  EXPECT_GT(agg.commits_sent, 100u);
  EXPECT_GT(client->total_completed(), 1000u);
}

// Table 1's claim: the HovercRaft++ leader's message count per request is
// constant, while VanillaRaft's grows with the cluster.
TEST(HovercraftTest, LeaderMessageCountsMatchTable1Shape) {
  auto leader_msgs_per_req = [](ClusterMode mode, int32_t nodes) {
    ExperimentConfig config = BaseExperiment(mode, nodes, 47);
    Cluster cluster(config.cluster);
    EXPECT_NE(cluster.WaitForLeader(), kInvalidNode);
    auto client = std::make_unique<ClientHost>(
        &cluster.sim(), config.cluster.costs, [&cluster]() { return cluster.ClientTarget(); },
        config.workload_factory(), 100'000, 53);
    cluster.network().Attach(client.get());

    const NodeId leader = cluster.LeaderId();
    cluster.sim().RunUntil(cluster.sim().Now() + Millis(5));
    const NetCounters before = cluster.server(leader).counters();
    const TimeNs t0 = cluster.sim().Now();
    client->StartLoad(t0, t0 + Millis(50));
    cluster.sim().RunUntil(t0 + Millis(120));
    const NetCounters& after = cluster.server(leader).counters();
    const uint64_t requests = client->total_completed();
    EXPECT_GT(requests, 1000u);
    const double rx = static_cast<double>(after.rx_msgs - before.rx_msgs) / requests;
    const double tx = static_cast<double>(after.tx_msgs - before.tx_msgs) / requests;
    return std::pair<double, double>(rx, tx);
  };

  const auto [van3_rx, van3_tx] = leader_msgs_per_req(ClusterMode::kVanillaRaft, 3);
  const auto [van5_rx, van5_tx] = leader_msgs_per_req(ClusterMode::kVanillaRaft, 5);
  const auto [hpp3_rx, hpp3_tx] = leader_msgs_per_req(ClusterMode::kHovercRaftPP, 3);
  const auto [hpp5_rx, hpp5_tx] = leader_msgs_per_req(ClusterMode::kHovercRaftPP, 5);

  // Vanilla leader traffic grows with N…
  EXPECT_GT(van5_rx, van3_rx * 1.2);
  EXPECT_GT(van5_tx, van3_tx * 1.2);
  // …while the ++ leader is flat in N (within noise).
  EXPECT_NEAR(hpp5_rx, hpp3_rx, 0.5);
  EXPECT_NEAR(hpp5_tx, hpp3_tx, 0.5);
  // And the ++ leader handles far fewer messages than the vanilla leader.
  EXPECT_LT(hpp5_rx + hpp5_tx, van5_rx + van5_tx);
}

// --- message pool -------------------------------------------------------------

// Destroying a deployment mid-run, with requests, appends, replies and sync
// callbacks still queued, hands every pooled message and body block back.
TEST(MessagePoolTest, ClusterTeardownMidRunReturnsEveryBlock) {
  const size_t before = SlabPool::Outstanding();
  {
    Cluster cluster(BaseConfig(ClusterMode::kHovercRaftPP, 3, 5));
    ASSERT_NE(cluster.WaitForLeader(), kInvalidNode);
    SyntheticWorkloadConfig wc;
    wc.request_bytes = 24;
    wc.reply_bytes = 8;
    wc.service_time = std::make_shared<FixedDistribution>(Micros(1));
    ClientHost client(&cluster.sim(), cluster.config().costs,
                      [&cluster]() { return cluster.ClientTarget(); },
                      std::make_unique<SyntheticWorkload>(wc), 200'000, 3);
    cluster.network().Attach(&client);
    const TimeNs t0 = cluster.sim().Now();
    client.StartLoad(t0, t0 + Millis(10));
    cluster.sim().RunUntil(t0 + Millis(5));
    EXPECT_GT(client.total_completed(), 100u);
    EXPECT_GT(client.total_sent(), client.total_completed());  // some still in flight
    EXPECT_GT(SlabPool::Outstanding(), before);
  }
  EXPECT_EQ(SlabPool::Outstanding(), before);
}

// --- every node runs the paper-mode table and the tuning as set -----------

// For every mode with and without reply load balancing, each node's Raft
// extension switches are the paper's for that mode, and every tuning value
// set on ClusterConfig::raft and ::server_template reaches every node
// unchanged. The one documented exception is stagger_first_election, which
// gives node 0 a 1-2 ms election timeout.
TEST(ClusterConfigTest, NodesRunTheModeTableAndTheTuningAsSet) {
  struct Row {
    ClusterMode mode;
    ReplierPolicy policy;
    bool metadata_only;
    bool assign_repliers;
    bool use_aggregator;
  };
  const Row kTable[] = {
      {ClusterMode::kUnreplicated, ReplierPolicy::kLeaderOnly, false, false, false},
      {ClusterMode::kUnreplicated, ReplierPolicy::kJbsq, false, false, false},
      {ClusterMode::kVanillaRaft, ReplierPolicy::kLeaderOnly, false, false, false},
      {ClusterMode::kVanillaRaft, ReplierPolicy::kJbsq, false, false, false},
      {ClusterMode::kHovercRaft, ReplierPolicy::kLeaderOnly, true, false, false},
      {ClusterMode::kHovercRaft, ReplierPolicy::kJbsq, true, true, false},
      {ClusterMode::kHovercRaftPP, ReplierPolicy::kLeaderOnly, true, false, true},
      {ClusterMode::kHovercRaftPP, ReplierPolicy::kJbsq, true, true, true},
  };
  for (const Row& row : kTable) {
    SCOPED_TRACE(std::string(ClusterModeName(row.mode)) +
                 (row.policy == ReplierPolicy::kJbsq ? " jbsq" : " leader-only"));
    const bool multicast =
        row.mode == ClusterMode::kHovercRaft || row.mode == ClusterMode::kHovercRaftPP;
    ClusterConfig config = BaseConfig(row.mode, 3);
    config.spare_nodes = 1;
    config.replier_policy = row.policy;
    config.bounded_queue_depth = 17;
    config.raft.election_timeout_min = Millis(7);
    config.raft.election_timeout_max = Millis(9);
    config.raft.max_entries_per_ae = 8;
    config.raft.pre_vote = false;
    config.raft.persist_latency = Micros(3);
    config.server_template.compaction_interval = Millis(7);
    config.server_template.dedup_enabled = false;
    Cluster cluster(config);
    ASSERT_EQ(cluster.total_node_count(), row.mode == ClusterMode::kUnreplicated ? 1 : 4);
    for (NodeId n = 0; n < cluster.total_node_count(); ++n) {
      SCOPED_TRACE("node " + std::to_string(n));
      const ReplicatedServer& server = cluster.server(n);
      EXPECT_EQ(server.config().mode, row.mode);
      EXPECT_EQ(server.config().compaction_interval, Millis(7));
      EXPECT_FALSE(server.config().dedup_enabled);
      EXPECT_FALSE(server.config().sharded);
      // What the node's Raft layer runs with (the server's copy when
      // unreplicated, which has no Raft layer).
      const RaftOptions& raft =
          server.raft() != nullptr ? server.raft()->options() : server.config().raft;
      EXPECT_EQ(raft.metadata_only, row.metadata_only);
      EXPECT_EQ(raft.assign_repliers, row.assign_repliers);
      EXPECT_EQ(raft.use_aggregator, row.use_aggregator);
      EXPECT_EQ(raft.replier_policy, multicast ? row.policy : ReplierPolicy::kLeaderOnly);
      EXPECT_EQ(raft.bounded_queue_depth, multicast ? 17 : 128);
      EXPECT_EQ(raft.id, n);
      EXPECT_EQ(raft.cluster_size, cluster.total_node_count());
      EXPECT_EQ(raft.InitialVoterCount(), std::min(3, cluster.total_node_count()));
      EXPECT_EQ(raft.obs_node_base, 0);
      EXPECT_EQ(raft.election_timeout_min, n == 0 ? Millis(1) : Millis(7));
      EXPECT_EQ(raft.election_timeout_max, n == 0 ? Millis(2) : Millis(9));
      EXPECT_EQ(raft.max_entries_per_ae, 8u);
      EXPECT_FALSE(raft.pre_vote);
      EXPECT_EQ(raft.persist_latency, Micros(3));
    }
  }
}

}  // namespace
}  // namespace hovercraft
