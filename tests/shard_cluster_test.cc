// Integration tests for the multi-group ShardedCluster (src/shard): N
// HovercRaft groups over one fabric, keyspace scale-out, a live range move
// under load with exactly-once preserved, and metrics namespacing.
#include <gtest/gtest.h>

#include <array>
#include <functional>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "src/app/kvstore/command.h"
#include "src/app/kvstore/service.h"
#include "src/app/synthetic.h"
#include "src/chaos/kv_workload.h"
#include "src/common/buffer.h"
#include "src/common/image.h"
#include "src/loadgen/client.h"
#include "src/loadgen/workload.h"
#include "src/obs/metrics.h"
#include "src/r2p2/shard.h"
#include "src/shard/sharded_cluster.h"

namespace hovercraft {
namespace {

ShardedClusterConfig BaseConfig(int32_t groups) {
  ShardedClusterConfig cfg;
  cfg.groups = groups;
  cfg.nodes = 3;
  cfg.seed = 11;
  return cfg;
}

// Bare client: sends hand-built requests (kv commands, raw shard-control
// ops) straight at a group's admission ingress and records replies by seq.
// Used to plant a specific key and to inject the stale parked-copy control
// entries a re-drain after a leader change would produce.
class InjectorHost final : public Host {
 public:
  InjectorHost(Simulator* sim, const CostModel& costs) : Host(sim, costs, Kind::kServer) {}

  void HandleMessage(HostId /*src*/, const MessagePtr& msg) override {
    if (const auto* resp = dynamic_cast<const RpcResponse*>(msg.get())) {
      replies_[resp->rid().seq] = resp->body();
    }
  }

  uint64_t SendRequest(Addr dst, Body body, uint32_t slot) {
    const uint64_t seq = next_seq_++;
    Send(dst, std::make_shared<RpcRequest>(RequestId{id(), seq}, R2p2Policy::kReplicatedReq,
                                           std::move(body), /*attempt=*/1,
                                           /*ack_watermark=*/0, slot));
    return seq;
  }

  bool HasReply(uint64_t seq) const { return replies_.count(seq) != 0; }
  const Body& ReplyOf(uint64_t seq) const { return replies_.at(seq); }

 private:
  uint64_t next_seq_ = 1;
  std::map<uint64_t, Body> replies_;
};

bool StepUntil(ShardedCluster& sharded, TimeNs deadline, const std::function<bool()>& done) {
  while (!done() && sharded.sim().Now() < deadline) {
    if (!sharded.sim().Step()) {
      break;
    }
  }
  return done();
}

std::string KeyInRange(uint32_t lo, uint32_t hi) {
  for (int i = 0;; ++i) {
    std::string key = "k";
    key += std::to_string(i);
    const uint32_t slot = ShardSlotOf(key);
    if (slot >= lo && slot <= hi) {
      return key;
    }
  }
}

Body SetCmd(const std::string& key, const std::string& value) {
  KvCommand cmd;
  cmd.op = KvOpcode::kSet;
  cmd.key = key;
  cmd.value = value;
  return EncodeKvCommand(cmd);
}

Body GetCmd(const std::string& key) {
  KvCommand cmd;
  cmd.op = KvOpcode::kGet;
  cmd.key = key;
  return EncodeKvCommand(cmd);
}

std::string ValueOf(const Body& reply) {
  Result<KvReply> decoded = DecodeKvReply(reply);
  if (!decoded.ok() || decoded.value().status != KvReplyStatus::kOk ||
      decoded.value().values.empty()) {
    return "";
  }
  return decoded.value().values[0];
}

// The install payload an abandoned coordinator retry would carry: an empty
// session range plus a capture of `key` bound to `value`.
Body StaleInstallPayload(const std::string& key, const std::string& value, uint32_t lo,
                         uint32_t hi) {
  KvService scratch;
  KvCommand set;
  set.op = KvOpcode::kSet;
  set.key = key;
  set.value = value;
  scratch.Apply(set);
  const Body app = scratch.CaptureRange(lo, hi);
  BufferWriter w;
  w.PutU32(0);  // no cached session replies in the stale capture
  w.PutBytes(*app);
  return MakeBody(w.TakeBytes());
}

uint64_t SumCtlStale(Cluster& cluster) {
  uint64_t total = 0;
  for (NodeId n = 0; n < cluster.total_node_count(); ++n) {
    total += cluster.server(n).server_stats().shard_ctl_stale;
  }
  return total;
}

void ExpectGroupConverged(Cluster& cluster, int32_t g) {
  const uint64_t digest0 = cluster.server(0).app().Digest();
  for (NodeId n = 1; n < cluster.total_node_count(); ++n) {
    EXPECT_EQ(cluster.server(n).app().Digest(), digest0) << "group " << g << " node " << n;
  }
}

TEST(ShardedClusterTest, ScaleOutSpreadsLoadAcrossGroups) {
  ShardedClusterConfig cfg = BaseConfig(4);
  cfg.app_factory = []() { return std::make_unique<SyntheticService>(); };
  ShardedCluster sharded(cfg);
  ASSERT_TRUE(sharded.WaitForAllLeaders());

  // One client spraying the whole keyspace through the shard router.
  SyntheticWorkloadConfig wc;
  wc.random_shard_slot = true;  // uniform over all 64 slots
  auto client = std::make_unique<ClientHost>(
      &sharded.sim(), sharded.config().costs,
      [&sharded]() { return sharded.group(GroupId{0}).ClientTarget(); },
      std::make_unique<SyntheticWorkload>(wc), 80'000, 77);
  client->EnableSharding([&sharded](uint32_t slot) { return sharded.RouteOf(slot); });
  sharded.network().Attach(client.get());

  const TimeNs t0 = sharded.sim().Now();
  client->StartLoad(t0, t0 + Millis(20));
  sharded.sim().RunUntil(t0 + Millis(40));

  EXPECT_GT(client->total_sent(), 500u);
  EXPECT_EQ(client->total_completed(), client->total_sent());
  // A stable map never redirects.
  EXPECT_EQ(client->total_redirects(), 0u);
  EXPECT_EQ(sharded.TotalWrongShardNacks(), 0u);
  // Every group took a meaningful share (uniform slots, 16 slots each).
  for (int32_t g = 0; g < 4; ++g) {
    EXPECT_GT(sharded.group(GroupId{g}).TotalExecuted(), 0u) << "group " << g;
  }
  EXPECT_TRUE(sharded.AllWatchdogsOk()) << sharded.WatchdogSummary();
}

// Cluster builds each app inside a scope over its fabric's index of image
// parts, so every group's apps see the one fabric's index while they are
// built, and the thread's current index is what it was before, both after a
// build inside another scope and outside any.
TEST(ShardedClusterTest, AppsSeeTheFabricsImagePartsOnlyWhileBuilt) {
  EXPECT_EQ(ImagePartIndex::Current(), nullptr);
  std::vector<ImagePartIndex*> seen;
  ShardedClusterConfig cfg = BaseConfig(3);
  cfg.app_factory = [&seen]() {
    seen.push_back(ImagePartIndex::Current());
    return std::make_unique<KvService>();
  };
  ImagePartIndex outer;
  {
    ImagePartIndex::Scope scope(&outer);
    ShardedCluster sharded(cfg);
    EXPECT_EQ(ImagePartIndex::Current(), &outer);
    ASSERT_EQ(seen.size(), 9u);  // 3 groups of 3
    for (ImagePartIndex* index : seen) {
      EXPECT_EQ(index, &sharded.fabric().image_parts());
    }
  }
  EXPECT_EQ(ImagePartIndex::Current(), nullptr);
  seen.clear();
  ShardedCluster sharded(cfg);
  EXPECT_EQ(ImagePartIndex::Current(), nullptr);
  EXPECT_EQ(seen.size(), 9u);
}

TEST(ShardedClusterTest, LiveMoveUnderLoadKeepsExactlyOnce) {
  ShardedClusterConfig cfg = BaseConfig(2);
  cfg.app_factory = []() { return std::make_unique<KvService>(); };
  ShardedCluster sharded(cfg);
  ASSERT_TRUE(sharded.WaitForAllLeaders());

  std::vector<std::unique_ptr<ClientHost>> clients;
  for (int i = 0; i < 2; ++i) {
    ChaosKvWorkloadConfig wc;
    wc.keys = 12;  // hot keys spread over both groups' ranges
    wc.value_tag = static_cast<uint64_t>(i);
    auto client = std::make_unique<ClientHost>(
        &sharded.sim(), sharded.config().costs,
        [&sharded]() { return sharded.group(GroupId{0}).ClientTarget(); },
        std::make_unique<ChaosKvWorkload>(wc), 30'000, 900 + static_cast<uint64_t>(i));
    // One-lookup-behind map cache: each resolve returns the previously
    // fetched route and refreshes the cache, so the first send after a
    // cutover deterministically hits the old owner and gets redirected.
    auto cache = std::make_shared<std::array<ClientHost::ShardRoute, kShardSlots>>();
    client->EnableSharding([&sharded, cache](uint32_t slot) {
      ClientHost::ShardRoute stale = (*cache)[slot];
      (*cache)[slot] = sharded.RouteOf(slot);
      return stale.epoch == 0 ? (*cache)[slot] : stale;
    });
    client->set_outstanding_limit(8, Millis(40));
    ClientHost::RetryPolicy rp;
    rp.enabled = true;
    rp.initial_backoff = Micros(300);
    rp.max_backoff = Millis(2);
    client->set_retry_policy(rp);
    sharded.network().Attach(client.get());
    clients.push_back(std::move(client));
  }

  const TimeNs t0 = sharded.sim().Now();
  const auto g0_slots = sharded.shard_map().SlotsOf(GroupId{0});
  sharded.sim().At(t0 + Millis(10), [&sharded, &g0_slots]() {
    sharded.StartMove(g0_slots.front(), g0_slots.back(), GroupId{1});
  });
  for (auto& client : clients) {
    client->StartLoad(t0, t0 + Millis(30));
  }
  sharded.sim().RunUntil(t0 + Millis(80));

  // The move completed and flipped ownership.
  EXPECT_EQ(sharded.coordinator().stats().moves_started, 1u);
  EXPECT_EQ(sharded.coordinator().stats().moves_completed, 1u);
  EXPECT_EQ(sharded.coordinator().stats().moves_failed, 0u);
  EXPECT_EQ(sharded.shard_map().epoch(), 2u);
  for (uint32_t slot : g0_slots) {
    EXPECT_EQ(sharded.shard_map().OwnerOf(slot), GroupId{1});
  }
  EXPECT_GT(sharded.coordinator().stats().capture_bytes, 0u);

  // Traffic into the moved range was redirected, never lost or doubled.
  uint64_t completed = 0, sent = 0, abandoned = 0;
  for (const auto& client : clients) {
    completed += client->total_completed();
    sent += client->total_sent();
    abandoned += client->total_abandoned();
  }
  EXPECT_GT(sent, 200u);
  EXPECT_EQ(completed, sent);
  EXPECT_EQ(abandoned, 0u);
  EXPECT_GT(sharded.TotalWrongShardNacks(), 0u);
  uint64_t redirects = 0;
  for (const auto& client : clients) {
    redirects += client->total_redirects();
  }
  EXPECT_GT(redirects, 0u);
  EXPECT_EQ(sharded.TotalDoubleApplies(), 0u);
  EXPECT_TRUE(sharded.AllWatchdogsOk()) << sharded.WatchdogSummary();

  // Replicas inside each group agree on the post-move state.
  for (int32_t g = 0; g < 2; ++g) {
    Cluster& cluster = sharded.group(GroupId{g});
    const uint64_t digest0 = cluster.server(0).app().Digest();
    for (NodeId n = 1; n < cluster.total_node_count(); ++n) {
      EXPECT_EQ(cluster.server(n).app().Digest(), digest0) << "group " << g << " node " << n;
    }
  }
}

TEST(ShardedClusterTest, MoveBackRestoresOriginalOwnership) {
  ShardedClusterConfig cfg = BaseConfig(2);
  cfg.app_factory = []() { return std::make_unique<KvService>(); };
  ShardedCluster sharded(cfg);
  ASSERT_TRUE(sharded.WaitForAllLeaders());

  const auto g0_slots = sharded.shard_map().SlotsOf(GroupId{0});
  sharded.StartMove(g0_slots.front(), g0_slots.back(), GroupId{1});
  sharded.sim().RunUntil(sharded.sim().Now() + Millis(20));
  ASSERT_EQ(sharded.coordinator().stats().moves_completed, 1u);

  sharded.StartMove(g0_slots.front(), g0_slots.back(), GroupId{0});
  sharded.sim().RunUntil(sharded.sim().Now() + Millis(20));
  EXPECT_EQ(sharded.coordinator().stats().moves_completed, 2u);
  EXPECT_EQ(sharded.shard_map().epoch(), 3u);
  for (uint32_t slot : g0_slots) {
    EXPECT_EQ(sharded.shard_map().OwnerOf(slot), GroupId{0});
  }
  EXPECT_TRUE(sharded.coordinator().idle());
}

TEST(ShardedClusterTest, MoveToSelfIsRejected) {
  ShardedClusterConfig cfg = BaseConfig(2);
  cfg.app_factory = []() { return std::make_unique<KvService>(); };
  ShardedCluster sharded(cfg);
  ASSERT_TRUE(sharded.WaitForAllLeaders());

  sharded.StartMove(0, 3, GroupId{0});  // slots 0..3 already belong to group 0
  sharded.sim().RunUntil(sharded.sim().Now() + Millis(5));
  EXPECT_EQ(sharded.coordinator().stats().moves_rejected, 1u);
  EXPECT_EQ(sharded.coordinator().stats().moves_started, 0u);
  EXPECT_EQ(sharded.shard_map().epoch(), 1u);
}

TEST(ShardedClusterTest, MetricsNamespacesDoNotAlias) {
  ShardedClusterConfig cfg = BaseConfig(2);
  cfg.app_factory = []() { return std::make_unique<SyntheticService>(); };
  ShardedCluster sharded(cfg);
  ASSERT_TRUE(sharded.WaitForAllLeaders());
  sharded.sim().RunUntil(sharded.sim().Now() + Millis(10));

  obs::MetricsRegistry metrics;
  sharded.ExportMetrics(&metrics);
  EXPECT_FALSE(metrics.empty());

  std::ostringstream json;
  metrics.DumpJson(json);
  const std::string dump = json.str();
  // Every group's counters live under its own prefix; the shard control
  // plane under "shard/".
  EXPECT_NE(dump.find("shard0."), std::string::npos);
  EXPECT_NE(dump.find("shard1."), std::string::npos);
  EXPECT_NE(dump.find("shard/epoch"), std::string::npos);
  EXPECT_NE(dump.find("shard/moves_completed"), std::string::npos);
  EXPECT_EQ(metrics.CounterValue("shard/moves_completed"), 0u);
  EXPECT_EQ(dump.find("shard2."), std::string::npos);  // only 2 groups exist
}

// REVIEW fence regression: an abandoned install retry from a completed move,
// re-drained into the destination's log after the cutover (simulated here by
// injecting it directly), must not roll the range back below post-cutover
// writes.
TEST(ShardedClusterTest, StaleInstallAfterCutoverIsFenced) {
  ShardedClusterConfig cfg = BaseConfig(2);
  cfg.app_factory = []() { return std::make_unique<KvService>(); };
  ShardedCluster sharded(cfg);
  ASSERT_TRUE(sharded.WaitForAllLeaders());
  InjectorHost inj(&sharded.sim(), sharded.config().costs);
  sharded.network().Attach(&inj);

  const auto g0_slots = sharded.shard_map().SlotsOf(GroupId{0});
  const uint32_t lo = g0_slots.front(), hi = g0_slots.back();
  const std::string key = KeyInRange(lo, hi);
  const uint32_t slot = ShardSlotOf(key);

  // v1 at the source, then move the range, then v2 at the destination.
  uint64_t seq = inj.SendRequest(sharded.group(GroupId{0}).ClientTarget(), SetCmd(key, "v1"),
                                 slot);
  ASSERT_TRUE(StepUntil(sharded, sharded.sim().Now() + Millis(20),
                        [&]() { return inj.HasReply(seq); }));
  sharded.StartMove(lo, hi, GroupId{1});
  ASSERT_TRUE(StepUntil(sharded, sharded.sim().Now() + Millis(40), [&]() {
    return sharded.coordinator().stats().moves_completed == 1;
  }));
  seq = inj.SendRequest(sharded.group(GroupId{1}).ClientTarget(), SetCmd(key, "v2"), slot);
  ASSERT_TRUE(StepUntil(sharded, sharded.sim().Now() + Millis(20),
                        [&]() { return inj.HasReply(seq); }));

  // The stale parked copy: move 1's install under a fresh rid, carrying a
  // capture that predates v2. Unfenced, applying it would resurrect "stale".
  ShardOp parked;
  parked.kind = ShardOpKind::kInstall;
  parked.move_id = 1;
  parked.lo = lo;
  parked.hi = hi;
  parked.payload = StaleInstallPayload(key, "stale", lo, hi);
  seq = inj.SendRequest(sharded.group(GroupId{1}).ClientTarget(), EncodeShardOp(parked),
                        kShardCtlSlot);
  ASSERT_TRUE(StepUntil(sharded, sharded.sim().Now() + Millis(20),
                        [&]() { return inj.HasReply(seq); }));

  EXPECT_GT(SumCtlStale(sharded.group(GroupId{1})), 0u);
  seq = inj.SendRequest(sharded.group(GroupId{1}).ClientTarget(), GetCmd(key), slot);
  ASSERT_TRUE(StepUntil(sharded, sharded.sim().Now() + Millis(20),
                        [&]() { return inj.HasReply(seq); }));
  EXPECT_EQ(ValueOf(inj.ReplyOf(seq)), "v2");
  sharded.sim().RunUntil(sharded.sim().Now() + Millis(5));
  for (int32_t g = 0; g < 2; ++g) {
    ExpectGroupConverged(sharded.group(GroupId{g}), g);
  }
  EXPECT_TRUE(sharded.AllWatchdogsOk()) << sharded.WatchdogSummary();
}

// REVIEW fence regression: after a there-and-back move, move 1's parked GC
// re-drained at the original owner must not delete the keys it owns again.
TEST(ShardedClusterTest, StaleGcAfterMoveBackIsFenced) {
  ShardedClusterConfig cfg = BaseConfig(2);
  cfg.app_factory = []() { return std::make_unique<KvService>(); };
  ShardedCluster sharded(cfg);
  ASSERT_TRUE(sharded.WaitForAllLeaders());
  InjectorHost inj(&sharded.sim(), sharded.config().costs);
  sharded.network().Attach(&inj);

  const auto g0_slots = sharded.shard_map().SlotsOf(GroupId{0});
  const uint32_t lo = g0_slots.front(), hi = g0_slots.back();
  const std::string key = KeyInRange(lo, hi);
  const uint32_t slot = ShardSlotOf(key);

  sharded.StartMove(lo, hi, GroupId{1});
  sharded.StartMove(lo, hi, GroupId{0});
  ASSERT_TRUE(StepUntil(sharded, sharded.sim().Now() + Millis(60), [&]() {
    return sharded.coordinator().stats().moves_completed == 2;
  }));
  uint64_t seq = inj.SendRequest(sharded.group(GroupId{0}).ClientTarget(), SetCmd(key, "v2"),
                                 slot);
  ASSERT_TRUE(StepUntil(sharded, sharded.sim().Now() + Millis(20),
                        [&]() { return inj.HasReply(seq); }));

  // Move 1's GC (source = group 0) under a fresh rid, arbitrarily late.
  ShardOp parked;
  parked.kind = ShardOpKind::kGc;
  parked.move_id = 1;
  parked.lo = lo;
  parked.hi = hi;
  seq = inj.SendRequest(sharded.group(GroupId{0}).ClientTarget(), EncodeShardOp(parked),
                        kShardCtlSlot);
  ASSERT_TRUE(StepUntil(sharded, sharded.sim().Now() + Millis(20),
                        [&]() { return inj.HasReply(seq); }));

  EXPECT_GT(SumCtlStale(sharded.group(GroupId{0})), 0u);
  // The key survives and the range still serves at group 0.
  seq = inj.SendRequest(sharded.group(GroupId{0}).ClientTarget(), GetCmd(key), slot);
  ASSERT_TRUE(StepUntil(sharded, sharded.sim().Now() + Millis(20),
                        [&]() { return inj.HasReply(seq); }));
  EXPECT_EQ(ValueOf(inj.ReplyOf(seq)), "v2");
  sharded.sim().RunUntil(sharded.sim().Now() + Millis(5));
  for (int32_t g = 0; g < 2; ++g) {
    ExpectGroupConverged(sharded.group(GroupId{g}), g);
  }
  EXPECT_TRUE(sharded.AllWatchdogsOk()) << sharded.WatchdogSummary();
}

// REVIEW abort regression: a move whose destination is down exhausts its
// retry budget, runs the replicated abort protocol once the destination
// heals, and leaves the source serving the range again — not frozen forever.
TEST(ShardedClusterTest, FailedMoveAbortsAndSourceServesAgain) {
  ShardedClusterConfig cfg = BaseConfig(2);
  cfg.app_factory = []() { return std::make_unique<KvService>(); };
  ShardedCluster sharded(cfg);
  ASSERT_TRUE(sharded.WaitForAllLeaders());
  sharded.coordinator().set_retry_budget(4);
  InjectorHost inj(&sharded.sim(), sharded.config().costs);
  sharded.network().Attach(&inj);

  const auto g0_slots = sharded.shard_map().SlotsOf(GroupId{0});
  const uint32_t lo = g0_slots.front(), hi = g0_slots.back();
  const std::string key = KeyInRange(lo, hi);
  const uint32_t slot = ShardSlotOf(key);

  uint64_t seq = inj.SendRequest(sharded.group(GroupId{0}).ClientTarget(), SetCmd(key, "v1"),
                                 slot);
  ASSERT_TRUE(StepUntil(sharded, sharded.sim().Now() + Millis(20),
                        [&]() { return inj.HasReply(seq); }));

  // Destination down: the freeze commits at the live source, the install
  // burns the budget, the move fails into the abort protocol and parks there
  // (aborts retry without a budget).
  for (NodeId n = 0; n < sharded.group(GroupId{1}).total_node_count(); ++n) {
    sharded.group(GroupId{1}).KillNode(n);
  }
  sharded.StartMove(lo, hi, GroupId{1});
  ASSERT_TRUE(StepUntil(sharded, sharded.sim().Now() + Millis(100), [&]() {
    return sharded.coordinator().stats().moves_failed == 1;
  }));
  EXPECT_TRUE(sharded.shard_map().IsFrozen(lo));  // abort not yet committed

  for (NodeId n = 0; n < sharded.group(GroupId{1}).total_node_count(); ++n) {
    sharded.group(GroupId{1}).RestartNode(n);
  }
  ASSERT_TRUE(StepUntil(sharded, sharded.sim().Now() + Millis(500), [&]() {
    return sharded.coordinator().stats().moves_aborted == 1;
  }));

  // Ownership never moved; the freeze is undone everywhere; the epoch bump
  // tells redirected clients to refresh.
  EXPECT_TRUE(sharded.coordinator().idle());
  EXPECT_EQ(sharded.coordinator().stats().moves_completed, 0u);
  EXPECT_EQ(sharded.shard_map().epoch(), 2u);
  for (uint32_t s : g0_slots) {
    EXPECT_EQ(sharded.shard_map().OwnerOf(s), GroupId{0});
    EXPECT_FALSE(sharded.shard_map().IsFrozen(s));
  }
  uint64_t unfreezes = 0;
  for (NodeId n = 0; n < sharded.group(GroupId{0}).total_node_count(); ++n) {
    unfreezes += sharded.group(GroupId{0}).server(n).server_stats().shard_unfreezes;
  }
  EXPECT_GT(unfreezes, 0u);
  uint64_t uninstalls = 0;
  for (NodeId n = 0; n < sharded.group(GroupId{1}).total_node_count(); ++n) {
    uninstalls += sharded.group(GroupId{1}).server(n).server_stats().shard_uninstalls;
  }
  EXPECT_GT(uninstalls, 0u);

  // The range is writable at the source again.
  seq = inj.SendRequest(sharded.group(GroupId{0}).ClientTarget(), SetCmd(key, "v2"), slot);
  ASSERT_TRUE(StepUntil(sharded, sharded.sim().Now() + Millis(40),
                        [&]() { return inj.HasReply(seq); }));
  seq = inj.SendRequest(sharded.group(GroupId{0}).ClientTarget(), GetCmd(key), slot);
  ASSERT_TRUE(StepUntil(sharded, sharded.sim().Now() + Millis(40),
                        [&]() { return inj.HasReply(seq); }));
  EXPECT_EQ(ValueOf(inj.ReplyOf(seq)), "v2");
  EXPECT_EQ(sharded.TotalDoubleApplies(), 0u);
  EXPECT_TRUE(sharded.AllWatchdogsOk()) << sharded.WatchdogSummary();
}

}  // namespace
}  // namespace hovercraft
