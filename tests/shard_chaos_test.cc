// Shard-move-under-load chaos: the Wing & Gong linearizability checker runs
// over a client history that spans live range moves (and optionally a source-
// leader crash mid-move). Sharded runs go through the one chaos runner; see
// src/chaos/runner.h for the pass criteria.
#include "src/chaos/runner.h"

#include <gtest/gtest.h>

#include <string>

#include "src/obs/watchdog.h"

namespace hovercraft {
namespace {

// Default there-and-back schedule at the issue's 80 kRPS aggregate.
TEST(ShardChaosTest, MoveThereAndBackUnderLoadIsLinearizable) {
  ChaosRunConfig config = ChaosRunConfig::Sharded(2);
  config.cluster.seed = 3;
  const ChaosRunResult result = RunChaosSchedule(config);
  EXPECT_TRUE(result.ok()) << result.Describe();
  EXPECT_EQ(result.moves_started, 2u);
  EXPECT_EQ(result.moves_completed, 2u);
  EXPECT_EQ(result.moves_failed, 0u);
  EXPECT_EQ(result.final_epoch, 3u);  // two cutovers
  // The move window really was exercised: clients chased the range.
  EXPECT_GT(result.wrong_shard_nacks, 0u);
  EXPECT_GT(result.redirects, 0u);
  EXPECT_GT(result.completed, 1000u);
  EXPECT_EQ(result.double_applies, 0u);
  EXPECT_GT(result.capture_bytes, 0u);
}

TEST(ShardChaosTest, SourceLeaderCrashMidMoveStillLinearizable) {
  ChaosRunConfig config = ChaosRunConfig::Sharded(2);
  config.cluster.seed = 5;
  config.kill_leader_mid_move = true;
  const ChaosRunResult result = RunChaosSchedule(config);
  EXPECT_TRUE(result.ok()) << result.Describe();
  EXPECT_EQ(result.moves_completed, 2u);
  EXPECT_EQ(result.double_applies, 0u);
}

TEST(ShardChaosTest, FourGroupsWithScriptedMoves) {
  ChaosRunConfig config = ChaosRunConfig::Sharded(4);
  config.cluster.seed = 9;
  config.clients = 4;
  config.duration = Millis(80);
  // Rotate one range around three groups.
  ShardMove a{Millis(20), 0, 7, 1};
  ShardMove b{Millis(40), 0, 7, 2};
  ShardMove c{Millis(60), 0, 7, 0};
  config.moves = {a, b, c};
  const ChaosRunResult result = RunChaosSchedule(config);
  EXPECT_TRUE(result.ok()) << result.Describe();
  EXPECT_EQ(result.moves_completed, 3u);
  EXPECT_EQ(result.final_epoch, 4u);
}

// Every group of a sharded run has cluster.nodes replicas.
TEST(ShardChaosTest, GroupsHaveClusterNodesReplicas) {
  ChaosRunConfig config = ChaosRunConfig::Sharded(2);
  config.cluster.nodes = 5;
  config.cluster.seed = 3;
  config.duration = Millis(60);
  config.settle = Millis(60);
  const ChaosRunResult result = RunChaosSchedule(config);
  EXPECT_TRUE(result.ok()) << result.Describe();
  int32_t per_group[2] = {0, 0};
  for (const std::string& state : result.node_states) {
    ASSERT_TRUE(state.starts_with("g0 node ") || state.starts_with("g1 node ")) << state;
    ++per_group[state[1] - '0'];
  }
  EXPECT_EQ(per_group[0], 5);
  EXPECT_EQ(per_group[1], 5);
}

// A sharded run takes no nemesis, needs a multicast mode and has no use for
// spares or membership events; an unsharded run takes no shard moves.
TEST(ShardChaosTest, CheckRejectsWhatShardedRunsDoNotSupport) {
  EXPECT_EQ(ChaosRunConfig::Sharded(2).Check(), "");
  EXPECT_EQ(ChaosRunConfig{}.Check(), "");
  auto rejected = [](auto mutate) {
    ChaosRunConfig config = ChaosRunConfig::Sharded(2);
    mutate(config);
    return !config.Check().empty();
  };
  EXPECT_TRUE(rejected([](ChaosRunConfig& c) { c.schedule = "random"; }));
  EXPECT_TRUE(rejected([](ChaosRunConfig& c) { c.cluster.mode = ClusterMode::kVanillaRaft; }));
  EXPECT_TRUE(rejected([](ChaosRunConfig& c) { c.cluster.spare_nodes = 1; }));
  EXPECT_TRUE(rejected([](ChaosRunConfig& c) { c.add_server_at = {{Millis(1), 3}}; }));
  EXPECT_TRUE(rejected([](ChaosRunConfig& c) { c.inject_violation = "dual-leader"; }));
  EXPECT_TRUE(rejected([](ChaosRunConfig& c) { c.watchdog = false; }));
  EXPECT_TRUE(rejected([](ChaosRunConfig& c) { c.groups = 0; }));
  ChaosRunConfig unsharded;
  unsharded.kill_leader_mid_move = true;
  EXPECT_FALSE(unsharded.Check().empty());
  unsharded = ChaosRunConfig{};
  unsharded.inject_violation = "no-such-code";
  EXPECT_FALSE(unsharded.Check().empty());
}

// The run relies on two cluster values it cannot take as set, so it rejects
// them instead of overwriting them: the nemesis needs disks that keep their
// bytes, and the run attaches its own watchdog.
TEST(ChaosRunConfigTest, CheckRejectsClusterValuesTheRunCannotHonour) {
  obs::Watchdog watchdog;
  for (ChaosRunConfig config : {ChaosRunConfig{}, ChaosRunConfig::Sharded(2)}) {
    ChaosRunConfig no_disk_faults = config;
    no_disk_faults.cluster.server_template.disk_faults = false;
    EXPECT_FALSE(no_disk_faults.Check().empty());
    ChaosRunConfig own_watchdog = config;
    own_watchdog.cluster.watchdog = &watchdog;
    EXPECT_FALSE(own_watchdog.Check().empty());
  }
}

}  // namespace
}  // namespace hovercraft
