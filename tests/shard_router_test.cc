// Wrong-shard redirect handling at the R2P2 layer (docs/sharding.md).
//
// Rig: two "groups", each one JBSQ router in front of a small unreplicated
// fleet, sharing one fabric. The authoritative slot owner lives in a test
// variable wired into both routers' shard gates; the client's route function
// models a cached shard map that refreshes itself on every lookup. The tests
// drive the client through the stale-map protocol: NACK(wrong_shard) from the
// old owner, map refresh, resend at the new owner — including the map moving
// a second time mid-retry and the immediate-redirect cap falling back to
// retry-timer pacing.
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

constexpr uint32_t kSlot = 5;

// Two router-fronted server groups on one fabric.
struct TwoGroupRig {
  explicit TwoGroupRig(uint64_t seed = 1) : net(&sim, seed) {
    for (int32_t g = 0; g < 2; ++g) {
      ServerConfig sc;
      sc.mode = ClusterMode::kUnreplicated;
      std::vector<HostId> hosts;
      for (int32_t i = 0; i < 2; ++i) {
        fleets[g].push_back(std::make_unique<ReplicatedServer>(
            &sim, costs, sc, [] { return std::make_unique<SyntheticService>(); },
            seed + 100 + g * 10 + i));
        hosts.push_back(net.Attach(fleets[g].back().get()));
      }
      routers[g] = std::make_unique<R2p2Router>(&sim, costs, hosts, RouterPolicy::kJbsq, 8,
                                                seed ^ (0xF00u + g));
      const HostId router_host = net.Attach(routers[g].get());
      for (auto& server : fleets[g]) {
        server->Wire({}, kInvalidHost, router_host);
        server->Start();
      }
    }
    // Both gates consult the same authoritative owner; a non-owner NACKs
    // with the current epoch.
    for (int32_t g = 0; g < 2; ++g) {
      routers[g]->set_shard_gate([this, g](uint32_t /*slot*/) -> uint64_t {
        return owner == g ? 0 : epoch;
      });
    }
  }

  // A client whose every op targets kSlot; `route` models its map cache.
  std::unique_ptr<ClientHost> MakeClient(ClientHost::ShardRouteFn route, double rate,
                                         uint64_t seed) {
    SyntheticWorkloadConfig wc;
    wc.service_time = std::make_shared<FixedDistribution>(Micros(2));
    wc.random_shard_slot = true;
    wc.shard_slot_lo = kSlot;
    wc.shard_slot_hi = kSlot;
    auto client = std::make_unique<ClientHost>(
        &sim, costs, [this]() { return routers[0]->id(); },
        std::make_unique<SyntheticWorkload>(wc), rate, seed);
    client->EnableSharding(std::move(route));
    net.Attach(client.get());
    return client;
  }

  ClientHost::ShardRoute RouteTo(int32_t g) const {
    ClientHost::ShardRoute r;
    r.epoch = epoch;
    r.ingress = routers[g]->id();
    r.retry = routers[g]->id();
    return r;
  }

  Simulator sim;
  CostModel costs;
  Network net;
  std::vector<std::unique_ptr<ReplicatedServer>> fleets[2];
  std::unique_ptr<R2p2Router> routers[2];
  int32_t owner = 0;   // authoritative slot owner (both gates read this)
  uint64_t epoch = 2;  // what a NACK advertises
};

TEST(ShardRouterTest, StaleMapRedirectsOnceThenCompletes) {
  TwoGroupRig rig;
  rig.owner = 1;  // the range moved to group 1...
  int32_t view = 0;  // ...but the client's cached map still says group 0
  auto client = rig.MakeClient(
      [&rig, &view](uint32_t) {
        const int32_t stale = view;
        view = rig.owner;  // every lookup refreshes the cache
        return rig.RouteTo(stale);
      },
      50'000, 7);
  client->StartLoad(0, Millis(2));
  rig.sim.RunUntil(Millis(20));

  EXPECT_GT(client->total_sent(), 0u);
  EXPECT_EQ(client->total_completed(), client->total_sent());
  // Exactly the first send hits the stale owner; everything after the
  // refresh goes straight to group 1.
  EXPECT_EQ(client->total_redirects(), 1u);
  EXPECT_EQ(rig.routers[0]->router_stats().wrong_shard_nacked, 1u);
  EXPECT_EQ(rig.routers[1]->router_stats().wrong_shard_nacked, 0u);
  uint64_t group1_ops = 0;
  for (const auto& server : rig.fleets[1]) {
    group1_ops += server->server_stats().ops_executed;
  }
  EXPECT_EQ(group1_ops, client->total_completed());
}

TEST(ShardRouterTest, MapMovesAgainMidRetry) {
  TwoGroupRig rig;
  rig.owner = 1;
  // Lookup 1: stale view of group 0. Lookup 2 (the redirect refresh):
  // current owner (group 1), but the range immediately moves back — so the
  // resend is stale again, group 1 NACKs, and lookup 3 lands on group 0.
  int32_t lookups = 0;
  auto client = rig.MakeClient(
      [&rig, &lookups](uint32_t) {
        ++lookups;
        if (lookups == 1) {
          return rig.RouteTo(0);  // stale cache
        }
        const int32_t target = rig.owner;
        if (lookups == 2) {
          rig.owner = 0;  // second move commits while the resend is in flight
          ++rig.epoch;
        }
        return rig.RouteTo(target);
      },
      5'000, 7);
  // Arrivals are sparse (≈200 µs apart) next to the µs-scale redirect chain,
  // so the first op's two-NACK chase resolves before the second op is sent;
  // every later lookup sees the settled owner and completes directly.
  client->StartLoad(0, Millis(3));
  rig.sim.RunUntil(Millis(20));

  ASSERT_GE(client->total_sent(), 1u);
  EXPECT_EQ(client->total_completed(), client->total_sent());
  EXPECT_EQ(client->total_redirects(), 2u);
  EXPECT_EQ(rig.routers[0]->router_stats().wrong_shard_nacked, 1u);
  EXPECT_EQ(rig.routers[1]->router_stats().wrong_shard_nacked, 1u);
}

TEST(ShardRouterTest, RedirectCapFallsBackToRetryPacing) {
  TwoGroupRig rig;
  rig.owner = 1;  // nothing the client can reach serves the slot...
  auto client = rig.MakeClient(
      [&rig](uint32_t) { return rig.RouteTo(0); },  // ...its map is pinned stale
      20'000, 7);
  ClientHost::RetryPolicy rp;
  rp.enabled = true;
  rp.initial_backoff = Micros(100);
  rp.max_backoff = Micros(400);
  client->set_retry_policy(rp);
  client->set_outstanding_limit(8, Millis(50));
  // Heal the map 5 ms in: group 0 becomes the owner, so the pinned route is
  // finally right and the next paced retry completes.
  rig.sim.At(Millis(5), [&rig]() {
    rig.owner = 0;
    ++rig.epoch;
  });
  client->StartLoad(0, Micros(400));
  rig.sim.RunUntil(Millis(40));

  ASSERT_GE(client->total_sent(), 1u);
  EXPECT_EQ(client->total_completed(), client->total_sent());
  // The burst of back-to-back redirects stops at the cap; after that only
  // the retry timer resends (each NACKed until the heal).
  EXPECT_GE(client->total_redirects(), ClientHost::kMaxImmediateRedirects);
  EXPECT_GT(client->total_retransmits(), 0u);
  EXPECT_GE(rig.routers[0]->router_stats().wrong_shard_nacked,
            static_cast<uint64_t>(ClientHost::kMaxImmediateRedirects));
  EXPECT_EQ(client->total_abandoned(), 0u);
}

// REVIEW regression: with the retry policy left disabled (the default), a
// redirected op must still be paced by a resend timer past the immediate
// cap — not hang forever with no armed timer the moment a redirect resend
// gets NACKed again.
TEST(ShardRouterTest, RedirectsWithoutRetryPolicyStillComplete) {
  TwoGroupRig rig;
  rig.owner = 1;  // pinned-stale map, exactly like the cap test...
  auto client = rig.MakeClient(
      [&rig](uint32_t) { return rig.RouteTo(0); },
      20'000, 7);
  // ...but no set_retry_policy call: redirects are the only resend path.
  client->set_outstanding_limit(8, Millis(50));
  rig.sim.At(Millis(5), [&rig]() {
    rig.owner = 0;
    ++rig.epoch;
  });
  client->StartLoad(0, Micros(400));
  rig.sim.RunUntil(Millis(40));

  ASSERT_GE(client->total_sent(), 1u);
  EXPECT_EQ(client->total_completed(), client->total_sent());
  EXPECT_GE(client->total_redirects(), ClientHost::kMaxImmediateRedirects);
  // Past the cap, the always-armed redirect timer carried the op to the heal.
  EXPECT_GT(client->total_retransmits(), 0u);
  EXPECT_EQ(client->total_abandoned(), 0u);
}

}  // namespace
}  // namespace hovercraft
