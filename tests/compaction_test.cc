// Log compaction on length: a node compacts once the prefix it may drop
// reaches log_retention_entries entries, as well as on its timer, so its log
// stays within twice the retention plus its unapplied tail whatever the
// offered rate; and a follower that power-fails while the leader compacts
// this way is repaired by InstallSnapshot.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "src/app/kvstore/service.h"
#include "src/app/synthetic.h"
#include "src/chaos/history.h"
#include "src/chaos/kv_workload.h"
#include "src/chaos/linearizability.h"
#include "src/core/cluster.h"
#include "src/loadgen/client.h"
#include "src/loadgen/workload.h"
#include "src/sim/simulator.h"

namespace hovercraft {
namespace {

// Every `period` until `stop`, checks each live node's log against the
// bound: log().size() <= 2 x log_retention_entries + (last_index -
// applied_index).
class LogBoundProbe final : public EventHandler {
 public:
  LogBoundProbe(Cluster* cluster, TimeNs period, TimeNs stop)
      : cluster_(cluster), period_(period), stop_(stop) {
    cluster_->sim().After(period_, this);
  }

  void OnEvent() override {
    ++checks_;
    for (NodeId n = 0; n < cluster_->node_count(); ++n) {
      if (cluster_->server(n).failed()) {
        continue;
      }
      const RaftNode& raft = *cluster_->server(n).raft();
      const RaftLog& log = raft.log();
      const LogIndex unapplied =
          log.last_index() - std::min(log.last_index(), raft.applied_index());
      const LogIndex bound = 2 * raft.options().log_retention_entries + unapplied;
      max_entries_ = std::max<size_t>(max_entries_, log.size());
      if (log.size() > bound && violations_.size() < 5) {
        violations_.push_back("node " + std::to_string(n) + " at " +
                              std::to_string(cluster_->sim().Now()) + " ns holds " +
                              std::to_string(log.size()) + " entries > " + std::to_string(bound));
      }
    }
    if (cluster_->sim().Now() + period_ < stop_) {
      cluster_->sim().After(period_, this);
    }
  }

  uint64_t checks() const { return checks_; }
  size_t max_entries() const { return max_entries_; }
  const std::vector<std::string>& violations() const { return violations_; }

 private:
  Cluster* cluster_;
  TimeNs period_;
  TimeNs stop_;
  uint64_t checks_ = 0;
  size_t max_entries_ = 0;
  std::vector<std::string> violations_;
};

class LogLengthBoundTest : public ::testing::TestWithParam<ClusterMode> {};

// Fig. 7-shaped writes at 100 kRPS against a retention of 256: each 20 ms
// compaction interval appends 2,000 entries, about four times the bound, so
// the timer alone would let every log grow past it.
TEST_P(LogLengthBoundTest, LogStaysWithinTwiceTheRetentionUnderOverload) {
  constexpr LogIndex kRetention = 256;
  ClusterConfig config;
  config.mode = GetParam();
  config.nodes = 3;
  config.seed = 5;
  config.app_factory = []() { return std::make_unique<SyntheticService>(); };
  config.raft.log_retention_entries = kRetention;
  Cluster cluster(config);
  ASSERT_NE(cluster.WaitForLeader(), kInvalidNode);

  SyntheticWorkloadConfig wc;
  wc.request_bytes = 24;
  wc.reply_bytes = 8;
  wc.service_time = std::make_shared<FixedDistribution>(Micros(1));
  ClientHost client(&cluster.sim(), config.costs, [&cluster]() { return cluster.ClientTarget(); },
                    std::make_unique<SyntheticWorkload>(wc), 100'000, 9);
  cluster.network().Attach(&client);
  const TimeNs t0 = cluster.sim().Now();
  client.StartLoad(t0, t0 + Millis(100));
  LogBoundProbe probe(&cluster, Micros(20), t0 + Millis(150));
  cluster.sim().RunUntil(t0 + Millis(150));

  EXPECT_TRUE(probe.violations().empty()) << ::testing::PrintToString(probe.violations());
  EXPECT_GT(probe.checks(), 7'000u);
  // The logs did fill past the retention between compactions.
  EXPECT_GT(probe.max_entries(), kRetention);
  EXPECT_GT(client.total_sent(), 9'000u);
  EXPECT_EQ(client.total_completed(), client.total_sent());
  const uint64_t digest = cluster.server(0).app().Digest();
  for (NodeId n = 1; n < 3; ++n) {
    EXPECT_EQ(cluster.server(n).app().Digest(), digest) << "node " << n;
  }
}

INSTANTIATE_TEST_SUITE_P(Modes, LogLengthBoundTest,
                         ::testing::Values(ClusterMode::kHovercRaft, ClusterMode::kHovercRaftPP),
                         [](const ::testing::TestParamInfo<ClusterMode>& mode_info) {
                           return mode_info.param == ClusterMode::kHovercRaft ? "HovercRaft"
                                                                              : "HovercRaftPP";
                         });

// A follower power-fails while the leader compacts on length alone (the
// timer is pushed past the run), misses far more than the retention tail,
// restarts from its disk and is repaired by InstallSnapshot. The KV history
// its clients saw, retries included, must be linearizable, so every read
// returns the last write; nothing is applied twice and the replicas agree.
TEST(LogLengthRecoveryTest, PowerFailedFollowerIsRepairedBySnapshot) {
  constexpr LogIndex kRetention = 64;
  ClusterConfig config;
  config.mode = ClusterMode::kHovercRaft;
  config.nodes = 3;
  config.seed = 12;
  config.replier_policy = ReplierPolicy::kJbsq;
  config.bounded_queue_depth = 64;
  config.stagger_first_election = false;
  config.app_factory = []() { return std::make_unique<KvService>(); };
  config.raft.log_retention_entries = kRetention;
  config.raft.persist_latency = Micros(500);
  config.server_template.disk_faults = true;
  config.server_template.straggler_lag_entries = kRetention;
  config.server_template.compaction_interval = Seconds(10);
  Cluster cluster(config);
  ASSERT_NE(cluster.WaitForLeader(), kInvalidNode);

  KvHistoryRecorder recorder;
  std::vector<std::unique_ptr<ClientHost>> clients;
  for (uint64_t i = 0; i < 2; ++i) {
    ChaosKvWorkloadConfig wc;
    wc.value_tag = i;
    auto client = std::make_unique<ClientHost>(
        &cluster.sim(), config.costs, [&cluster]() { return cluster.ClientTarget(); },
        std::make_unique<ChaosKvWorkload>(wc), 4'000, 40 + i);
    client->set_outstanding_limit(4, Millis(30));
    ClientHost::RetryPolicy rp;
    rp.enabled = true;
    client->set_retry_policy(rp);
    client->set_retry_target([&cluster]() { return cluster.RetryTarget(); });
    client->set_observer(&recorder);
    cluster.network().Attach(client.get());
    clients.push_back(std::move(client));
  }
  const TimeNs t0 = cluster.sim().Now();
  for (const auto& client : clients) {
    client->StartLoad(t0, t0 + Millis(150));
  }
  cluster.sim().RunUntil(t0 + Millis(30));

  const NodeId leader = cluster.LeaderId();
  const NodeId victim = (leader + 1) % 3;
  ReplicatedServer& server = cluster.server(victim);
  const LogIndex victim_last = server.raft()->log().last_index();
  cluster.PowerFailNode(victim);
  cluster.sim().RunUntil(t0 + Millis(70));
  // On length alone, the leader compacted past everything the victim holds.
  const ReplicatedServer& lead = cluster.server(leader);
  EXPECT_GT(lead.raft()->log().first_index(), victim_last + 1);
  EXPECT_GT(lead.storage()->stats().snapshots_saved, 3u);

  cluster.RestartNode(victim);
  cluster.sim().RunUntil(t0 + Millis(300));

  ASSERT_EQ(cluster.LeaderId(), leader);
  EXPECT_EQ(server.storage()->stats().recoveries, 1u);
  EXPECT_GE(server.raft()->stats().snapshots_installed, 1u);
  EXPECT_GE(lead.raft()->stats().snapshots_sent, 1u);
  EXPECT_EQ(server.raft()->commit_index(), lead.raft()->commit_index());
  for (NodeId n = 0; n < 3; ++n) {
    EXPECT_EQ(cluster.server(n).server_stats().double_applies, 0u) << "node " << n;
    EXPECT_EQ(cluster.server(n).raft()->stats().committed_overwritten, 0u) << "node " << n;
    EXPECT_EQ(cluster.server(n).app().Digest(), lead.app().Digest()) << "node " << n;
  }
  EXPECT_GT(recorder.completed(), 500u);
  const LinearizabilityResult lin = CheckKvLinearizability(recorder.History());
  EXPECT_TRUE(lin.linearizable) << "key " << lin.failure_key;
  EXPECT_TRUE(lin.conclusive());
}

}  // namespace
}  // namespace hovercraft
