// The chaos harness end to end: seeded nemesis schedules against every
// replicated mode, client-observed histories checked for linearizability,
// and a deliberately broken replica to prove the checker has teeth.
//
// Any failing case here replays outside the test binary:
//   chaos_runner --schedule=<name> --seed=<seed> --mode=<mode>
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "src/app/kvstore/service.h"
#include "src/chaos/history.h"
#include "src/chaos/linearizability.h"
#include "src/chaos/nemesis.h"
#include "src/chaos/runner.h"
#include "src/common/check.h"

namespace hovercraft {
namespace {

ChaosRunConfig BaseConfig(ClusterMode mode, const std::string& schedule, uint64_t seed) {
  ChaosRunConfig config;
  config.cluster.mode = mode;
  config.schedule = schedule;
  config.cluster.seed = seed;
  return config;
}

// What a default chaos run deploys on top of ClusterConfig's defaults.
TEST(ChaosTest, DefaultConfigCarriesTheChaosDeployment) {
  const ChaosRunConfig config;
  EXPECT_EQ(config.cluster.replier_policy, ReplierPolicy::kJbsq);
  EXPECT_EQ(config.cluster.bounded_queue_depth, 64);
  EXPECT_FALSE(config.cluster.stagger_first_election);
  ASSERT_TRUE(config.cluster.app_factory);
  const std::unique_ptr<StateMachine> app = config.cluster.app_factory();
  EXPECT_NE(dynamic_cast<KvService*>(app.get()), nullptr);
  // The sharded defaults keep them, with queues of 128.
  const ChaosRunConfig sharded = ChaosRunConfig::Sharded(2);
  EXPECT_EQ(sharded.cluster.replier_policy, ReplierPolicy::kJbsq);
  EXPECT_EQ(sharded.cluster.bounded_queue_depth, 128);
  EXPECT_FALSE(sharded.cluster.stagger_first_election);
}

// Every scripted schedule plus the randomized one, in every replicated mode,
// each with its own seed: 27 distinct (schedule, seed, mode) cases covering
// symmetric/asymmetric partitions, delay, reorder, flaps, and crash+restart
// of followers and leaders.
TEST(ChaosTest, AllSchedulesAllModes) {
  const std::vector<std::string> schedules = {
      "partition-leader", "partition-halves", "asym-leader",  "delay",  "reorder",
      "flap",             "crash-follower",   "crash-leader", "random",
  };
  const std::vector<ClusterMode> modes = {
      ClusterMode::kVanillaRaft,
      ClusterMode::kHovercRaft,
      ClusterMode::kHovercRaftPP,
  };
  uint64_t case_index = 0;
  for (const std::string& schedule : schedules) {
    for (ClusterMode mode : modes) {
      const uint64_t seed = 1 + (case_index % 5);
      ++case_index;
      SCOPED_TRACE("schedule=" + schedule + " mode=" + ClusterModeFlag(mode) +
                   " seed=" + std::to_string(seed));
      const ChaosRunResult result = RunChaosSchedule(BaseConfig(mode, schedule, seed));
      EXPECT_TRUE(result.ok()) << result.Describe();
      EXPECT_TRUE(result.linearizability.conclusive()) << result.Describe();
      // The schedule did something: faults fired and were logged.
      EXPECT_FALSE(result.nemesis_events.empty());
      // Clients made real progress despite the faults.
      EXPECT_GT(result.completed, 200u) << result.Describe();
    }
  }
}

// More randomized schedules for depth: each seed yields a different fault
// sequence (the nemesis logs prove it), and all histories stay linearizable.
TEST(ChaosTest, RandomScheduleSeedSweep) {
  std::vector<std::string> first_events;
  for (const uint64_t seed : {11, 12, 13, 14, 15, 16}) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    const ChaosRunResult result =
        RunChaosSchedule(BaseConfig(ClusterMode::kHovercRaft, "random", seed));
    EXPECT_TRUE(result.ok()) << result.Describe();
    ASSERT_FALSE(result.nemesis_events.empty());
    first_events.push_back(result.nemesis_events.front());
  }
  // Not all seeds opened with the identical first fault.
  bool any_different = false;
  for (const std::string& event : first_events) {
    any_different = any_different || event != first_events.front();
  }
  EXPECT_TRUE(any_different);
}

// Same (schedule, seed, mode) triple twice -> byte-identical fault log and
// identical client-visible outcome. This is the replay guarantee that makes
// a CI failure debuggable with chaos_runner.
TEST(ChaosTest, RunsAreDeterministic) {
  const ChaosRunConfig config = BaseConfig(ClusterMode::kHovercRaftPP, "random", 3);
  const ChaosRunResult a = RunChaosSchedule(config);
  const ChaosRunResult b = RunChaosSchedule(config);
  EXPECT_EQ(a.nemesis_events, b.nemesis_events);
  EXPECT_EQ(a.invoked, b.invoked);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.dropped_by_fault, b.dropped_by_fault);
  EXPECT_EQ(a.node_states, b.node_states);
  EXPECT_EQ(a.linearizability.states_explored, b.linearizability.states_explored);
}

// Control run: no nemesis, everything completes, nothing is dropped.
TEST(ChaosTest, QuietRunCompletesEverything) {
  const ChaosRunResult result =
      RunChaosSchedule(BaseConfig(ClusterMode::kHovercRaft, "none", 9));
  EXPECT_TRUE(result.ok()) << result.Describe();
  EXPECT_EQ(result.invoked, result.completed);
  EXPECT_EQ(result.dropped_by_fault, 0u);
  EXPECT_TRUE(result.nemesis_events.empty());
}

// Partitions actually cut traffic: the per-copy fault-drop counter moves.
TEST(ChaosTest, PartitionsDropTraffic) {
  const ChaosRunResult result =
      RunChaosSchedule(BaseConfig(ClusterMode::kHovercRaft, "partition-leader", 2));
  EXPECT_TRUE(result.ok()) << result.Describe();
  EXPECT_GT(result.dropped_by_fault, 100u);
}

// A replica that answers read-only requests from a one-write-stale copy of
// the store. Every node runs this, so replication stays consistent and
// digests converge — only the client-visible read values are wrong. Exactly
// the class of bug only a linearizability checker can catch.
class StaleReadKvService final : public StateMachine {
 public:
  ExecResult Execute(const RpcRequest& request) override {
    Result<KvCommand> cmd = DecodeKvCommand(request.body());
    HC_CHECK(cmd.ok());
    if (cmd.value().IsReadOnly()) {
      return stale_.Execute(request);
    }
    stale_ = current_;  // snapshot the pre-write state: reads lag one write
    return current_.Execute(request);
  }
  uint64_t Digest() const override { return current_.Digest(); }
  uint64_t ApplyCount() const override { return current_.ApplyCount(); }
  Body SnapshotState() const override { return current_.SnapshotState(); }
  Status RestoreState(const Body& snapshot) override {
    stale_ = KvService{};
    return current_.RestoreState(snapshot);
  }

 private:
  KvService current_;
  KvService stale_;
};

TEST(ChaosTest, CheckerRejectsStaleReads) {
  ChaosRunConfig config = BaseConfig(ClusterMode::kHovercRaft, "none", 5);
  config.cluster.app_factory = []() { return std::make_unique<StaleReadKvService>(); };
  // One nearly-sequential client on a tiny keyspace: a read that follows a
  // completed write on the same key must observe it, so a one-write-stale
  // read cannot be explained by any linearization.
  config.clients = 1;
  config.keys = 2;
  config.outstanding_limit = 1;
  const ChaosRunResult result = RunChaosSchedule(config);
  EXPECT_FALSE(result.linearizability.linearizable) << result.Describe();
  // A violation verdict is final regardless of search budget.
  EXPECT_TRUE(result.linearizability.conclusive());
  // The breakage is invisible to replica-state checks: that is the point.
  EXPECT_TRUE(result.digests_converged) << result.Describe();
}

// The recorder + checker on a hand-built history: a value read before any
// write completes but after the write was invoked is fine (concurrent), but
// reading a value that was never written anywhere must be rejected.
TEST(ChaosTest, CheckerHandlesOpenOperations) {
  auto make_op = [](HostId client, uint64_t seq, TimeNs invoke, TimeNs complete,
                    KvOpcode opcode, const std::string& key, const std::string& value,
                    KvReplyStatus status, std::vector<std::string> reply_values) {
    KvOperation op;
    op.client = client;
    op.seq = seq;
    op.invoke = invoke;
    op.complete = complete;
    op.cmd.op = opcode;
    op.cmd.key = key;
    op.cmd.value = value;
    if (complete >= 0) {
      op.has_reply = true;
      op.reply.status = status;
      op.reply.values = std::move(reply_values);
    }
    return op;
  };

  // Open SET(x, a) concurrent with GET(x) = a: the open write linearized
  // before the read explains it.
  std::vector<KvOperation> concurrent = {
      make_op(1, 1, 0, -1, KvOpcode::kSet, "x", "a", KvReplyStatus::kOk, {}),
      make_op(2, 1, 10, 20, KvOpcode::kGet, "x", "", KvReplyStatus::kOk, {"a"}),
  };
  EXPECT_TRUE(CheckKvLinearizability(concurrent).linearizable);

  // GET(x) = b with no write of b anywhere: no witness exists.
  std::vector<KvOperation> phantom = {
      make_op(1, 1, 0, 5, KvOpcode::kSet, "x", "a", KvReplyStatus::kOk, {}),
      make_op(2, 1, 10, 20, KvOpcode::kGet, "x", "", KvReplyStatus::kOk, {"b"}),
  };
  const LinearizabilityResult r = CheckKvLinearizability(phantom);
  EXPECT_FALSE(r.linearizable);
  EXPECT_EQ(r.failure_key, "x");

  // Stale read AFTER the write completed: must also be rejected.
  std::vector<KvOperation> stale = {
      make_op(1, 1, 0, 5, KvOpcode::kSet, "x", "a", KvReplyStatus::kOk, {}),
      make_op(2, 1, 10, 20, KvOpcode::kGet, "x", "", KvReplyStatus::kNotFound, {}),
  };
  EXPECT_FALSE(CheckKvLinearizability(stale).linearizable);
}

// The reply-facing schedules kill replies after execution — the hard case
// for exactly-once: the request WAS applied, only the answer vanished. With
// retransmission and the session table on, every history stays linearizable
// and no request is ever applied twice; retries demonstrably fired.
TEST(ChaosTest, ExactlyOnceUnderReplyFaults) {
  const std::vector<std::string> schedules = {"drop-replies", "crash-replier"};
  const std::vector<ClusterMode> modes = {
      ClusterMode::kVanillaRaft,
      ClusterMode::kHovercRaft,
      ClusterMode::kHovercRaftPP,
  };
  uint64_t case_index = 0;
  for (const std::string& schedule : schedules) {
    for (ClusterMode mode : modes) {
      const uint64_t seed = 1 + (case_index % 5);
      ++case_index;
      SCOPED_TRACE("schedule=" + schedule + " mode=" + ClusterModeFlag(mode) +
                   " seed=" + std::to_string(seed));
      ChaosRunConfig config = BaseConfig(mode, schedule, seed);
      config.retry_enabled = true;
      // Outlive the reply blackouts (up to ~56ms) instead of abandoning.
      config.give_up = Millis(100);
      const ChaosRunResult result = RunChaosSchedule(config);
      EXPECT_TRUE(result.ok()) << result.Describe();
      EXPECT_GT(result.retransmits, 0u) << result.Describe();
      EXPECT_EQ(result.double_applies, 0u) << result.Describe();
      EXPECT_GT(result.completed, 200u) << result.Describe();
    }
  }
}

// Negative control: retries without the session table double-apply. The
// per-replica digests still converge (every replica applies the duplicate
// the same way), which is exactly why server-side dedup is required — only
// the double_applies counter and the client-visible history expose it.
TEST(ChaosTest, RetriesWithoutDedupDoubleApply) {
  ChaosRunConfig config = BaseConfig(ClusterMode::kHovercRaft, "drop-replies", 3);
  config.retry_enabled = true;
  config.cluster.server_template.dedup_enabled = false;
  config.give_up = Millis(100);
  const ChaosRunResult result = RunChaosSchedule(config);
  EXPECT_GT(result.retransmits, 0u) << result.Describe();
  EXPECT_GT(result.double_applies, 0u) << result.Describe();
  EXPECT_TRUE(result.digests_converged) << result.Describe();
  // A double apply fails the verdict on its own.
  EXPECT_FALSE(result.ok()) << result.Describe();
}

// Retry-enabled randomized chaos: the CI sweep runs more seeds of exactly
// this configuration (see .github/workflows/ci.yml).
TEST(ChaosTest, RandomScheduleWithRetries) {
  for (const uint64_t seed : {21, 22, 23}) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    ChaosRunConfig config = BaseConfig(ClusterMode::kHovercRaftPP, "random", seed);
    config.retry_enabled = true;
    config.give_up = Millis(100);
    const ChaosRunResult result = RunChaosSchedule(config);
    EXPECT_TRUE(result.ok()) << result.Describe();
    EXPECT_EQ(result.double_applies, 0u) << result.Describe();
  }
}

// Membership churn under the linearizability checker: add/remove loops,
// removing the node that currently leads, and proposing an add while a
// partition is live. Every history must stay linearizable with zero double
// applies on every node, and the live members of the final committed config
// must agree byte-for-byte. Failing cases replay with e.g.
//   chaos_runner --schedule=churn-cycle --seed=1 --mode=hovercraft++ --spares=2 --retries
TEST(ChaosTest, MembershipChurnStaysLinearizable) {
  const std::vector<std::string> schedules = {"churn-cycle", "churn-remove-leader",
                                              "churn-add-partition"};
  const std::vector<ClusterMode> modes = {
      ClusterMode::kHovercRaft,
      ClusterMode::kHovercRaftPP,
  };
  uint64_t case_index = 0;
  for (const std::string& schedule : schedules) {
    for (ClusterMode mode : modes) {
      const uint64_t seed = 1 + (case_index % 4);
      ++case_index;
      SCOPED_TRACE("schedule=" + schedule + " mode=" + ClusterModeFlag(mode) +
                   " seed=" + std::to_string(seed));
      ChaosRunConfig config = BaseConfig(mode, schedule, seed);
      config.cluster.spare_nodes = 2;
      // Leadership moves (and with it the replier set); clients must retry
      // across the churn to keep completing.
      config.retry_enabled = true;
      config.give_up = Millis(100);
      const ChaosRunResult result = RunChaosSchedule(config);
      EXPECT_TRUE(result.ok()) << result.Describe();
      EXPECT_EQ(result.double_applies, 0u) << result.Describe();
      EXPECT_GT(result.completed, 200u) << result.Describe();
      // The schedule actually reconfigured: at least one config committed.
      EXPECT_GT(result.final_config_idx, 0u) << result.Describe();
    }
  }
}

// Scripted membership events compose with a fault schedule: an explicit
// add-during-partition (the runner-level flags chaos_runner exposes as
// --add-server-at-us), checked end to end.
TEST(ChaosTest, ScriptedMembershipEventsUnderPartition) {
  ChaosRunConfig config = BaseConfig(ClusterMode::kHovercRaftPP, "partition-halves", 2);
  config.cluster.spare_nodes = 1;
  config.retry_enabled = true;
  config.give_up = Millis(100);
  // The partition windows sit at [w/8, w/2] and [5w/8, 7w/8] of the 150ms
  // window; propose the add inside the first one.
  config.add_server_at.push_back({Millis(30), 3});
  const ChaosRunResult result = RunChaosSchedule(config);
  EXPECT_TRUE(result.ok()) << result.Describe();
  EXPECT_EQ(result.double_applies, 0u) << result.Describe();
  // Node 3 made it into the committed config despite the partition.
  EXPECT_NE(std::find(result.final_members.begin(), result.final_members.end(), 3),
            result.final_members.end())
      << result.Describe();
}

// Churn runs replay deterministically, like every other schedule.
TEST(ChaosTest, ChurnRunsAreDeterministic) {
  ChaosRunConfig config = BaseConfig(ClusterMode::kHovercRaftPP, "churn-cycle", 7);
  config.cluster.spare_nodes = 2;
  config.retry_enabled = true;
  const ChaosRunResult a = RunChaosSchedule(config);
  const ChaosRunResult b = RunChaosSchedule(config);
  EXPECT_EQ(a.nemesis_events, b.nemesis_events);
  EXPECT_EQ(a.invoked, b.invoked);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.final_members, b.final_members);
  EXPECT_EQ(a.node_states, b.node_states);
}

// ---------------------------------------------------------------------------
// Adversarial hardening battery (docs/hardening.md): each attack schedule
// runs twice — defenses off as the control, proving the attack genuinely
// succeeds against this codebase, and defenses on, proving the hardening
// neutralizes it. Replay any case with e.g.
//   chaos_runner --schedule=rejoin-storm --seed=2 --mode=hovercraft --no-prevote
// ---------------------------------------------------------------------------

// Rejoin storm: an isolated follower inflates its term in the dark; healing
// turns that into a leader deposition. PreVote holds the term still.
TEST(ChaosTest, RejoinStormNeutralizedByPreVote) {
  ChaosRunConfig control = BaseConfig(ClusterMode::kHovercRaft, "rejoin-storm", 2);
  control.cluster.raft.pre_vote = false;
  control.retry_enabled = true;
  control.give_up = Millis(100);
  const ChaosRunResult attacked = RunChaosSchedule(control);
  // The attack succeeds: the rejoin deposed the leader and dragged the whole
  // cluster to the storm's inflated term. Safety held regardless.
  EXPECT_GE(attacked.leader_disruptions, 1u) << attacked.Describe();
  EXPECT_TRUE(attacked.linearizability.linearizable) << attacked.Describe();

  ChaosRunConfig defended = control;
  defended.cluster.raft.pre_vote = true;
  const ChaosRunResult hardened = RunChaosSchedule(defended);
  EXPECT_TRUE(hardened.ok()) << hardened.Describe();
  EXPECT_EQ(hardened.leader_disruptions, 0u) << hardened.Describe();
  EXPECT_LT(hardened.max_term, attacked.max_term) << hardened.Describe();
  // The isolated node demonstrably ran (and lost) pre-elections instead.
  EXPECT_GT(hardened.prevote_rounds, 0u) << hardened.Describe();
}

// Forged votes: crafted higher-term RequestVotes injected as a member.
// CheckQuorum stickiness drops them cold; without it every injection is a
// deposition.
TEST(ChaosTest, ForgedVotesNeutralizedByStickiness) {
  ChaosRunConfig control = BaseConfig(ClusterMode::kHovercRaft, "forged-vote", 3);
  control.cluster.raft.check_quorum = false;
  control.retry_enabled = true;
  control.give_up = Millis(100);
  const ChaosRunResult attacked = RunChaosSchedule(control);
  EXPECT_GE(attacked.leader_disruptions, 1u) << attacked.Describe();
  EXPECT_GE(attacked.max_term, 100u) << attacked.Describe();
  EXPECT_TRUE(attacked.linearizability.linearizable) << attacked.Describe();

  ChaosRunConfig defended = control;
  defended.cluster.raft.check_quorum = true;
  const ChaosRunResult hardened = RunChaosSchedule(defended);
  EXPECT_TRUE(hardened.ok()) << hardened.Describe();
  EXPECT_EQ(hardened.leader_disruptions, 0u) << hardened.Describe();
  EXPECT_LT(hardened.max_term, 100u) << hardened.Describe();
  EXPECT_GT(hardened.votes_ignored_sticky, 0u) << hardened.Describe();
}

// Timer skew: one follower's election timer fires below the heartbeat
// interval on a healthy network. PreVote converts every firing into a failed
// poll; without it each firing is a real term bump the cluster must absorb.
TEST(ChaosTest, TimerSkewNeutralizedByPreVote) {
  ChaosRunConfig control = BaseConfig(ClusterMode::kHovercRaft, "timer-skew", 4);
  control.cluster.raft.pre_vote = false;
  control.retry_enabled = true;
  control.give_up = Millis(100);
  const ChaosRunResult attacked = RunChaosSchedule(control);
  EXPECT_GE(attacked.leader_disruptions, 1u) << attacked.Describe();
  EXPECT_TRUE(attacked.linearizability.linearizable) << attacked.Describe();

  ChaosRunConfig defended = control;
  defended.cluster.raft.pre_vote = true;
  const ChaosRunResult hardened = RunChaosSchedule(defended);
  EXPECT_TRUE(hardened.ok()) << hardened.Describe();
  EXPECT_EQ(hardened.leader_disruptions, 0u) << hardened.Describe();
  EXPECT_GT(hardened.prevote_rounds, 0u) << hardened.Describe();
}

// Stale-read probe: the leader keeps its client-facing links while losing
// its peers. With a skewed (widened) lease and no CheckQuorum it serves
// reads from a frozen store while the majority commits fresh writes — the
// Wing & Gong checker catches the stale values. With the strict lease (and
// the other defenses on) every history stays linearizable.
TEST(ChaosTest, StaleReadsCaughtThenPreventedByLease) {
  ChaosRunConfig control = BaseConfig(ClusterMode::kHovercRaft, "stale-read-probe", 2);
  control.cluster.raft.read_index = true;
  control.cluster.raft.read_lease_timeout = Seconds(10);  // "clock skew": evidence never ages
  control.cluster.raft.check_quorum = false;              // the stale leader never steps down
  control.retry_enabled = true;
  control.give_up = Millis(100);
  control.keys = 4;  // hot keyspace: reads race the new leader's writes
  const ChaosRunResult attacked = RunChaosSchedule(control);
  // Stale reads were served from the lease and flagged by the checker. A
  // violation verdict is final regardless of search budget.
  EXPECT_GT(attacked.read_index_served, 0u) << attacked.Describe();
  EXPECT_FALSE(attacked.linearizability.linearizable) << attacked.Describe();
  EXPECT_TRUE(attacked.linearizability.conclusive());

  ChaosRunConfig defended = control;
  defended.cluster.raft.read_lease_timeout = 0;  // strict election_timeout_min lease
  defended.cluster.raft.check_quorum = true;
  const ChaosRunResult hardened = RunChaosSchedule(defended);
  EXPECT_TRUE(hardened.ok()) << hardened.Describe();
  EXPECT_GT(hardened.read_index_served, 0u) << hardened.Describe();
}

// ReadIndex under leader failover: leased reads are real operations in the
// checked history, and crashing the leader mid-window (pending reads die
// with it, clients retransmit) must leave every history linearizable.
TEST(ChaosTest, ReadIndexLinearizableAcrossLeaderFailover) {
  for (const uint64_t seed : {1, 2, 3}) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    ChaosRunConfig config = BaseConfig(ClusterMode::kHovercRaft, "crash-leader", seed);
    config.cluster.raft.read_index = true;
    config.retry_enabled = true;
    config.give_up = Millis(100);
    const ChaosRunResult result = RunChaosSchedule(config);
    EXPECT_TRUE(result.ok()) << result.Describe();
    EXPECT_GT(result.read_index_served, 0u) << result.Describe();
    EXPECT_EQ(result.double_applies, 0u) << result.Describe();
  }
}

// The paper's core RO claim, hardened: with ReadIndex on, read-only traffic
// is served without a single log entry. Identical quiet runs with the fast
// path on and off append the same number of (write) entries, and the delta
// in executions is carried entirely by leases.
TEST(ChaosTest, ReadIndexAppendsNothingForReads) {
  ChaosRunConfig base = BaseConfig(ClusterMode::kHovercRaft, "none", 6);
  ChaosRunConfig leased = base;
  leased.cluster.raft.read_index = true;
  const ChaosRunResult ordered = RunChaosSchedule(base);
  const ChaosRunResult fast = RunChaosSchedule(leased);
  ASSERT_TRUE(ordered.ok()) << ordered.Describe();
  ASSERT_TRUE(fast.ok()) << fast.Describe();
  EXPECT_GT(fast.read_index_served, 0u) << fast.Describe();
  // Same workload, same seed: every leased read is one log entry the
  // ordered run appended and the fast-path run did not.
  EXPECT_EQ(fast.entries_appended + 3 * fast.read_index_served,  // 3 replicas
            ordered.entries_appended)
      << "fast: " << fast.Describe() << "ordered: " << ordered.Describe();
  EXPECT_EQ(fast.invoked, fast.completed) << fast.Describe();
}

// Attack runs replay deterministically, exactly like every other schedule —
// the property that makes a CI failure reproducible from the command line.
TEST(ChaosTest, AttackRunsAreDeterministic) {
  ChaosRunConfig config = BaseConfig(ClusterMode::kHovercRaft, "rejoin-storm", 5);
  config.cluster.raft.pre_vote = false;
  const ChaosRunResult a = RunChaosSchedule(config);
  const ChaosRunResult b = RunChaosSchedule(config);
  EXPECT_EQ(a.nemesis_events, b.nemesis_events);
  EXPECT_EQ(a.invoked, b.invoked);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.max_term, b.max_term);
  EXPECT_EQ(a.leader_disruptions, b.leader_disruptions);
  EXPECT_EQ(a.node_states, b.node_states);
}

// The attack schedules with all defenses at their defaults, across modes:
// no schedule may disrupt a hardened cluster.
TEST(ChaosTest, HardenedClusterShrugsOffAllAttacks) {
  const std::vector<std::string> schedules = {"rejoin-storm", "forged-vote", "timer-skew"};
  const std::vector<ClusterMode> modes = {
      ClusterMode::kVanillaRaft,
      ClusterMode::kHovercRaft,
      ClusterMode::kHovercRaftPP,
  };
  uint64_t case_index = 0;
  for (const std::string& schedule : schedules) {
    for (ClusterMode mode : modes) {
      const uint64_t seed = 1 + (case_index % 5);
      ++case_index;
      SCOPED_TRACE("schedule=" + schedule + " mode=" + ClusterModeFlag(mode) +
                   " seed=" + std::to_string(seed));
      ChaosRunConfig config = BaseConfig(mode, schedule, seed);
      config.retry_enabled = true;
      config.give_up = Millis(100);
      const ChaosRunResult result = RunChaosSchedule(config);
      EXPECT_TRUE(result.ok()) << result.Describe();
      EXPECT_EQ(result.leader_disruptions, 0u) << result.Describe();
      EXPECT_GT(result.completed, 200u) << result.Describe();
    }
  }
}

// Crash-restart schedules exercise the full repair path; the restarted node
// must catch back up and agree byte-for-byte with its peers.
TEST(ChaosTest, CrashRestartConverges) {
  for (ClusterMode mode :
       {ClusterMode::kVanillaRaft, ClusterMode::kHovercRaft, ClusterMode::kHovercRaftPP}) {
    SCOPED_TRACE(ClusterModeFlag(mode));
    const ChaosRunResult result = RunChaosSchedule(BaseConfig(mode, "crash-leader", 4));
    EXPECT_TRUE(result.ok()) << result.Describe();
    EXPECT_TRUE(result.digests_converged) << result.Describe();
  }
}

}  // namespace
}  // namespace hovercraft
