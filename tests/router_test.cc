// Tests for the R2P2 JBSQ request router over plain (unreplicated) servers.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "src/app/synthetic.h"
#include "src/core/server.h"
#include "src/loadgen/client.h"
#include "src/loadgen/workload.h"
#include "src/net/network.h"
#include "src/r2p2/router.h"

namespace hovercraft {
namespace {

// A fleet of unreplicated servers behind one router.
struct RouterRig {
  RouterRig(int32_t servers, RouterPolicy policy, int64_t bound, uint64_t seed = 1)
      : net(&sim, seed) {
    ServerConfig sc;
    sc.mode = ClusterMode::kUnreplicated;
    std::vector<HostId> hosts;
    for (int32_t i = 0; i < servers; ++i) {
      fleet.push_back(std::make_unique<ReplicatedServer>(
          &sim, costs, sc, [] { return std::make_unique<SyntheticService>(); }, seed + 100 + i));
      hosts.push_back(net.Attach(fleet.back().get()));
    }
    router = std::make_unique<R2p2Router>(&sim, costs, hosts, policy, bound, seed ^ 0xF00);
    const HostId router_host = net.Attach(router.get());
    for (auto& server : fleet) {
      server->Wire({}, kInvalidHost, router_host);  // FEEDBACK goes to the router
      server->Start();
    }
  }

  std::unique_ptr<ClientHost> MakeClient(double rate, TimeNs service, uint64_t seed) {
    SyntheticWorkloadConfig wc;
    wc.service_time = std::make_shared<FixedDistribution>(service);
    auto client = std::make_unique<ClientHost>(
        &sim, costs, [this]() { return router->id(); },
        std::make_unique<SyntheticWorkload>(wc), rate, seed);
    net.Attach(client.get());
    return client;
  }

  Simulator sim;
  CostModel costs;
  Network net;
  std::vector<std::unique_ptr<ReplicatedServer>> fleet;
  std::unique_ptr<R2p2Router> router;
};

TEST(RouterTest, SpreadsLoadEvenly) {
  RouterRig rig(4, RouterPolicy::kJbsq, 8);
  auto client = rig.MakeClient(100'000, Micros(10), 3);
  client->StartLoad(0, Millis(100));
  rig.sim.RunUntil(Millis(250));

  uint64_t total = 0;
  for (const auto& server : rig.fleet) {
    total += server->server_stats().ops_executed;
  }
  EXPECT_GT(total, 5000u);
  for (size_t s = 0; s < rig.fleet.size(); ++s) {
    const double share =
        static_cast<double>(rig.fleet[s]->server_stats().ops_executed) / total;
    EXPECT_GT(share, 0.15) << "server " << s;
    EXPECT_LT(share, 0.35) << "server " << s;
  }
  EXPECT_EQ(client->total_completed(), client->total_sent());
}

TEST(RouterTest, FeedbackDrainsOutstandingCounters) {
  RouterRig rig(2, RouterPolicy::kJbsq, 4);
  auto client = rig.MakeClient(50'000, Micros(5), 5);
  client->StartLoad(0, Millis(50));
  rig.sim.RunUntil(Millis(200));
  EXPECT_EQ(rig.router->OutstandingOf(0), 0);
  EXPECT_EQ(rig.router->OutstandingOf(1), 0);
  EXPECT_EQ(rig.router->central_queue_depth(), 0u);
}

TEST(RouterTest, CentralQueueAbsorbsBursts) {
  // Tight bound + offered load beyond the fleet's instantaneous slots: the
  // router must hold requests centrally instead of over-committing servers.
  RouterRig rig(2, RouterPolicy::kJbsq, 2);
  auto client = rig.MakeClient(150'000, Micros(30), 7);
  client->StartLoad(0, Millis(40));
  rig.sim.RunUntil(Millis(400));
  EXPECT_GT(rig.router->router_stats().held_central, 100u);
  EXPECT_GT(rig.router->router_stats().central_queue_peak, 4u);
  // Everything eventually served, nothing stuck.
  EXPECT_EQ(client->total_completed(), client->total_sent());
  EXPECT_EQ(rig.router->central_queue_depth(), 0u);
}

TEST(RouterTest, JbsqBeatsRandomTailUnderVariability) {
  // The R2P2 result the paper builds on: with high service-time dispersion,
  // JBSQ's late binding yields a much better tail than random spraying.
  auto run = [](RouterPolicy policy) {
    RouterRig rig(4, policy, 2, 11);
    SyntheticWorkloadConfig wc;
    wc.service_time = std::make_shared<BimodalDistribution>(Micros(20), 0.1, 10.0);
    auto client = std::make_unique<ClientHost>(
        &rig.sim, rig.costs, [&rig]() { return rig.router->id(); },
        std::make_unique<SyntheticWorkload>(wc), 150'000, 13);
    rig.net.Attach(client.get());
    client->SetMeasureWindow(Millis(20), Millis(120));
    client->StartLoad(0, Millis(120));
    rig.sim.RunUntil(Millis(400));
    return client->latencies().Percentile(99);
  };
  const int64_t jbsq_p99 = run(RouterPolicy::kJbsq);
  const int64_t random_p99 = run(RouterPolicy::kRandom);
  EXPECT_LT(jbsq_p99, random_p99) << "JBSQ should improve the tail";
  EXPECT_LT(static_cast<double>(jbsq_p99), 0.8 * static_cast<double>(random_p99));
}

}  // namespace
}  // namespace hovercraft
