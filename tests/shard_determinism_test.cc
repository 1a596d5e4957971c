// The sharding determinism contract (src/shard/sharded_cluster.h): group 0's
// execution — its flight-recorder event stream, state-machine digest and op
// counts — is byte-identical whether 1 or 4 groups share the fabric, as long
// as group 0's own traffic is the same. Per-group seeds derive from the group
// id alone, hosts are allocated in group order, and the fault-free fabric
// consumes no shared randomness, so adding groups must not perturb group 0.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "src/app/synthetic.h"
#include "src/loadgen/client.h"
#include "src/loadgen/workload.h"
#include "src/obs/flight_recorder.h"
#include "src/shard/sharded_cluster.h"

namespace hovercraft {
namespace {

struct Group0Trace {
  std::vector<std::vector<obs::FrEvent>> node_events;  // nodes 0..3 (incl. middlebox)
  uint64_t digest = 0;
  uint64_t executed = 0;
  uint64_t client_completed = 0;
  uint64_t client_sent = 0;
};

bool SameEvent(const obs::FrEvent& x, const obs::FrEvent& y) {
  return x.ts == y.ts && x.a == y.a && x.b == y.b && x.seq == y.seq && x.c == y.c &&
         x.node == y.node && x.type == y.type;
}

// Runs `groups` groups of 3 for a fixed virtual-time window; only group 0
// gets a client, pinned to slots [0, 15] (group 0's range in the 4-group
// map, a subset of its range in the 1-group map — identical either way).
Group0Trace RunOnce(int32_t groups) {
  ShardedClusterConfig cfg;
  cfg.groups = groups;
  cfg.nodes = 3;
  cfg.app_factory = []() { return std::make_unique<SyntheticService>(); };
  cfg.seed = 42;
  cfg.flight_recorder_depth = 8192;  // deep enough that nothing is evicted

  std::unique_ptr<ClientHost> client;
  cfg.per_group_hook = [&client](GroupId g, Cluster& cluster) {
    if (g.value != 0) {
      return;  // only group 0 is loaded; the other groups idle
    }
    SyntheticWorkloadConfig wc;
    wc.random_shard_slot = true;
    wc.shard_slot_lo = 0;
    wc.shard_slot_hi = 15;
    client = std::make_unique<ClientHost>(
        &cluster.sim(), cluster.config().costs,
        [&cluster]() { return cluster.ClientTarget(); },
        std::make_unique<SyntheticWorkload>(wc), /*rate_rps=*/40'000, /*seed=*/4242);
    // No moves in this test: a fixed epoch-1 route to group 0 suffices and
    // keeps the hook independent of the (not yet constructed) ShardedCluster.
    client->EnableSharding([&cluster](uint32_t) {
      ClientHost::ShardRoute route;
      route.epoch = 1;
      route.ingress = cluster.ClientTarget();
      route.retry = cluster.RetryTarget();
      return route;
    });
    cluster.network().Attach(client.get());
  };

  ShardedCluster sharded(cfg);
  // Fixed virtual-time window (not WaitForAllLeaders, whose finish time
  // depends on the group count): elections settle within ~15 ms.
  client->StartLoad(Millis(30), Millis(40));
  sharded.sim().RunUntil(Millis(60));

  Group0Trace trace;
  Cluster& g0 = sharded.group(GroupId{0});
  EXPECT_NE(g0.LeaderId(), kInvalidNode);
  for (NodeId obs = 0; obs <= cfg.nodes; ++obs) {
    trace.node_events.push_back(sharded.flight_recorder()->NodeEvents(obs));
  }
  trace.digest = g0.server(0).app().Digest();
  trace.executed = g0.TotalExecuted();
  trace.client_completed = client->total_completed();
  trace.client_sent = client->total_sent();
  EXPECT_GT(trace.client_completed, 0u);
  return trace;
}

TEST(ShardDeterminismTest, Group0TraceIdenticalWith1Or4Groups) {
  const Group0Trace solo = RunOnce(1);
  const Group0Trace four = RunOnce(4);

  EXPECT_EQ(solo.client_sent, four.client_sent);
  EXPECT_EQ(solo.client_completed, four.client_completed);
  EXPECT_EQ(solo.executed, four.executed);
  EXPECT_EQ(solo.digest, four.digest);

  ASSERT_EQ(solo.node_events.size(), four.node_events.size());
  for (size_t n = 0; n < solo.node_events.size(); ++n) {
    const auto& a = solo.node_events[n];
    const auto& b = four.node_events[n];
    ASSERT_EQ(a.size(), b.size()) << "obs node " << n;
    EXPECT_GT(a.size(), 0u) << "obs node " << n;
    for (size_t i = 0; i < a.size(); ++i) {
      ASSERT_TRUE(SameEvent(a[i], b[i]))
          << "obs node " << n << " event " << i << " diverges: ts " << a[i].ts << " vs "
          << b[i].ts << ", type " << static_cast<int>(a[i].type) << " vs "
          << static_cast<int>(b[i].type);
    }
  }
}

TEST(ShardDeterminismTest, SameSeedSameGroupCountIsReproducible) {
  const Group0Trace a = RunOnce(4);
  const Group0Trace b = RunOnce(4);
  EXPECT_EQ(a.digest, b.digest);
  EXPECT_EQ(a.executed, b.executed);
  EXPECT_EQ(a.client_completed, b.client_completed);
}

}  // namespace
}  // namespace hovercraft
