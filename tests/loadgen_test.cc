// Tests for the Lancet-like load generator and the experiment harness.
#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <memory>
#include <set>

#include "src/app/synthetic.h"
#include "src/core/cluster.h"
#include "src/loadgen/client.h"
#include "src/loadgen/experiment.h"
#include "src/loadgen/workload.h"

namespace hovercraft {
namespace {

ExperimentConfig QuickExperiment(uint64_t seed = 1) {
  ExperimentConfig config;
  config.cluster.mode = ClusterMode::kUnreplicated;
  config.cluster.nodes = 1;
  config.cluster.seed = seed;
  config.cluster.app_factory = []() { return std::make_unique<SyntheticService>(); };
  config.workload_factory = []() {
    SyntheticWorkloadConfig wc;
    wc.service_time = std::make_shared<FixedDistribution>(Micros(1));
    return std::make_unique<SyntheticWorkload>(wc);
  };
  config.client_count = 2;
  config.warmup = Millis(10);
  config.measure = Millis(50);
  config.drain = Millis(50);
  return config;
}

TEST(LoadgenTest, AchievedTracksOfferedBelowCapacity) {
  const LoadMetrics m = RunLoadPoint(QuickExperiment(), 100'000);
  EXPECT_NEAR(m.achieved_rps, 100'000, 10'000);
  EXPECT_EQ(m.lost, 0u);
  EXPECT_GT(m.p50_ns, 0);
  EXPECT_GE(m.p99_ns, m.p50_ns);
}

TEST(LoadgenTest, PoissonArrivalsAreOpenLoop) {
  // Offered load far above the 1us-service capacity: an open-loop generator
  // keeps sending and the tail explodes instead of the send count dropping.
  const LoadMetrics m = RunLoadPoint(QuickExperiment(3), 1'500'000);
  EXPECT_GT(m.sent, 60'000u);  // ~1.5M * 50ms
  EXPECT_GT(m.p99_ns, Millis(1));
}

TEST(LoadgenTest, DeterministicAcrossRuns) {
  const LoadMetrics a = RunLoadPoint(QuickExperiment(42), 50'000);
  const LoadMetrics b = RunLoadPoint(QuickExperiment(42), 50'000);
  EXPECT_EQ(a.sent, b.sent);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.p99_ns, b.p99_ns);
  EXPECT_EQ(a.p50_ns, b.p50_ns);
}

TEST(LoadgenTest, SeedChangesRun) {
  const LoadMetrics a = RunLoadPoint(QuickExperiment(1), 50'000);
  const LoadMetrics b = RunLoadPoint(QuickExperiment(2), 50'000);
  EXPECT_NE(a.sent, b.sent);
}

TEST(LoadgenTest, SweepRatesReturnsOnePointPerRate) {
  const auto points = SweepRates(QuickExperiment(), {10'000, 50'000});
  ASSERT_EQ(points.size(), 2u);
  EXPECT_LT(points[0].achieved_rps, points[1].achieved_rps);
}

TEST(LoadgenTest, SloSearchFindsCapacityRegion) {
  // UnRep with S=1us saturates at ~1M RPS; the search must land in the
  // upper half of that and never above it.
  const SloResult r =
      FindMaxThroughputUnderSlo(QuickExperiment(), Micros(500), 100e3, 1'300e3, 6);
  EXPECT_GT(r.max_rps_under_slo, 700e3);
  EXPECT_LE(r.max_rps_under_slo, 1'100e3);
  EXPECT_LE(r.p99_at_max, Micros(500));
}

TEST(LoadgenTest, ClientTracksNacksSeparately) {
  ExperimentConfig config = QuickExperiment(7);
  config.cluster.mode = ClusterMode::kHovercRaft;
  config.cluster.nodes = 3;
  config.cluster.flow_control_threshold = 32;
  config.workload_factory = []() {
    SyntheticWorkloadConfig wc;
    wc.service_time = std::make_shared<FixedDistribution>(Micros(100));
    return std::make_unique<SyntheticWorkload>(wc);
  };
  // Far above the ~10k capacity of S=100us: NACKs must appear.
  const LoadMetrics m = RunLoadPoint(config, 100'000);
  EXPECT_GT(m.nacked, 0u);
  EXPECT_GT(m.completed, 0u);
}

}  // namespace
}  // namespace hovercraft

namespace hovercraft {
namespace {

TEST(LoadgenTest, SloSearchReportsZeroWhenFloorViolates) {
  // S=100us caps the server at ~10k RPS; a floor of 50k already blows the
  // SLO, so the search must report no feasible point instead of guessing.
  ExperimentConfig config = QuickExperiment(11);
  config.workload_factory = []() {
    SyntheticWorkloadConfig wc;
    wc.service_time = std::make_shared<FixedDistribution>(Micros(100));
    return std::make_unique<SyntheticWorkload>(wc);
  };
  const SloResult r = FindMaxThroughputUnderSlo(config, Micros(500), 50e3, 200e3, 4);
  EXPECT_EQ(r.max_rps_under_slo, 0.0);
}

TEST(LoadgenTest, MeasureWindowExcludesWarmupTraffic) {
  ExperimentConfig config = QuickExperiment(13);
  config.warmup = Millis(50);
  config.measure = Millis(50);
  const LoadMetrics m = RunLoadPoint(config, 100'000);
  // Sent-in-window must reflect only the 50ms window, not the 100ms total.
  EXPECT_NEAR(static_cast<double>(m.sent), 100e3 * 0.05, 1500);
}

}  // namespace
}  // namespace hovercraft

// ---------------------------------------------------------------------------
// Exactly-once client machinery: retransmission, duplicate suppression, and
// the abandoned-request accounting.
// ---------------------------------------------------------------------------
namespace hovercraft {
namespace {

// Counts observer callbacks per sequence so a test can assert the "one
// OnInvoke, at most one OnComplete" contract directly.
class CountingObserver final : public ClientHost::Observer {
 public:
  void OnInvoke(HostId, uint64_t seq, R2p2Policy, const Body&, TimeNs) override {
    ++invokes_[seq];
  }
  void OnComplete(HostId, uint64_t seq, const Body&, TimeNs) override {
    ++completes_[seq];
  }
  void OnNack(HostId, uint64_t seq, TimeNs) override { ++nacks_[seq]; }

  const std::map<uint64_t, int>& invokes() const { return invokes_; }
  const std::map<uint64_t, int>& completes() const { return completes_; }
  const std::map<uint64_t, int>& nacks() const { return nacks_; }

 private:
  std::map<uint64_t, int> invokes_;
  std::map<uint64_t, int> completes_;
  std::map<uint64_t, int> nacks_;
};

ClusterConfig UnrepCluster(uint64_t seed) {
  ClusterConfig config;
  config.mode = ClusterMode::kUnreplicated;
  config.nodes = 1;
  config.seed = seed;
  config.app_factory = []() { return std::make_unique<SyntheticService>(); };
  return config;
}

std::unique_ptr<ClientHost> RetryClient(Cluster& cluster, double rate, uint64_t seed) {
  SyntheticWorkloadConfig wc;
  wc.service_time = std::make_shared<FixedDistribution>(Micros(1));
  auto client = std::make_unique<ClientHost>(
      &cluster.sim(), cluster.config().costs, [&cluster]() { return cluster.ClientTarget(); },
      std::make_unique<SyntheticWorkload>(wc), rate, seed);
  ClientHost::RetryPolicy rp;
  rp.enabled = true;
  rp.initial_backoff = Micros(200);
  rp.max_backoff = Millis(2);
  client->set_retry_policy(rp);
  client->set_retry_target([&cluster]() { return cluster.RetryTarget(); });
  cluster.network().Attach(client.get());
  return client;
}

TEST(LoadgenTest, RetryRecoversDroppedFirstAttempts) {
  Cluster cluster(UnrepCluster(201));
  // Every first attempt dies on the wire; only retransmissions get through.
  cluster.network().set_drop_filter([](const Packet& p, HostId) {
    const auto* req = dynamic_cast<const RpcRequest*>(p.msg.get());
    return req != nullptr && req->attempt() == 1;
  });
  auto client = RetryClient(cluster, 2'000, 7);
  CountingObserver obs;
  client->set_observer(&obs);

  const TimeNs t0 = cluster.sim().Now();
  client->SetMeasureWindow(t0, t0 + Millis(50));
  client->StartLoad(t0, t0 + Millis(50));
  cluster.sim().RunUntil(t0 + Millis(100));

  EXPECT_GT(client->total_sent(), 50u);
  EXPECT_EQ(client->total_completed(), client->total_sent());
  // Nothing completed on its first transmission.
  EXPECT_EQ(client->completed_after_retry(), client->total_completed());
  EXPECT_GE(client->total_retransmits(), client->total_sent());
  // Every sequence resolved: the ack watermark closed over all of them.
  EXPECT_EQ(client->ack_watermark(), client->total_sent());
  for (const auto& [seq, count] : obs.completes()) {
    EXPECT_EQ(count, 1) << "seq " << seq << " completed more than once";
  }
  EXPECT_EQ(obs.completes().size(), obs.invokes().size());
}

TEST(LoadgenTest, DuplicateRepliesCompleteOnce) {
  Cluster cluster(UnrepCluster(203));
  // The first reply per request is lost, so the client retransmits and the
  // server answers from its session cache — the request must not re-execute
  // and the client must count exactly one completion.
  auto dropped_once = std::make_shared<std::set<uint64_t>>();
  cluster.network().set_drop_filter([dropped_once](const Packet& p, HostId) {
    const auto* resp = dynamic_cast<const RpcResponse*>(p.msg.get());
    if (resp == nullptr) {
      return false;
    }
    return dropped_once->insert(resp->rid().seq).second;  // drop first only
  });
  auto client = RetryClient(cluster, 2'000, 9);
  CountingObserver obs;
  client->set_observer(&obs);

  const TimeNs t0 = cluster.sim().Now();
  client->StartLoad(t0, t0 + Millis(50));
  cluster.sim().RunUntil(t0 + Millis(100));

  EXPECT_GT(client->total_sent(), 50u);
  EXPECT_EQ(client->total_completed(), client->total_sent());
  EXPECT_GT(client->total_retransmits(), 0u);
  // The server deduplicated every retransmission instead of re-executing:
  // one application per request, replies served from the cache.
  const ServerStats& stats = cluster.server(0).server_stats();
  EXPECT_GT(stats.dedup_hits, 0u);
  EXPECT_GT(stats.dedup_replies, 0u);
  EXPECT_EQ(stats.double_applies, 0u);
  EXPECT_EQ(cluster.server(0).app().ApplyCount(), client->total_sent());
  for (const auto& [seq, count] : obs.completes()) {
    EXPECT_EQ(count, 1) << "seq " << seq << " completed more than once";
  }
}

TEST(LoadgenTest, AbandonedRequestLateReplyCountedOnce) {
  Cluster cluster(UnrepCluster(205));
  // Replies crawl back 5ms late while the client gives up after 1ms: every
  // request is abandoned first and completed late, exactly once each.
  Cluster* cl = &cluster;
  SyntheticWorkloadConfig wc;
  wc.service_time = std::make_shared<FixedDistribution>(Micros(1));
  auto client = std::make_unique<ClientHost>(
      &cluster.sim(), cluster.config().costs, [cl]() { return cl->ClientTarget(); },
      std::make_unique<SyntheticWorkload>(wc), 20'000, 11);
  cluster.network().Attach(client.get());
  cluster.network().SetLinkDelay(cluster.server_host(0), client->id(), Millis(5));
  client->set_outstanding_limit(2, Millis(1));
  CountingObserver obs;
  client->set_observer(&obs);

  const TimeNs t0 = cluster.sim().Now();
  client->StartLoad(t0, t0 + Millis(50));
  cluster.sim().RunUntil(t0 + Millis(100));

  // Every request the client gave up on was still answered eventually; the
  // late reply completes it once and never resurrects it.
  EXPECT_GT(client->total_abandoned(), 10u);
  EXPECT_EQ(client->late_completions(), client->total_abandoned());
  EXPECT_EQ(client->total_completed(), client->total_sent());
  for (const auto& [seq, count] : obs.completes()) {
    EXPECT_EQ(count, 1) << "seq " << seq << " completed more than once";
  }
  // With everything resolved, nothing is lost at accounting time.
  client->AccountLost(Seconds(1));
  EXPECT_EQ(client->lost_in_window(), 0u);
}

}  // namespace
}  // namespace hovercraft
