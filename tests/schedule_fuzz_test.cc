// Randomized schedule exploration of the core protocol invariants.
//
// The paper leaves model-checking HovercRaft++ to future work (section 5);
// this suite approximates it with randomized partial-order sampling: message
// delays are drawn per delivery, messages drop at random, nodes crash and
// revive on a random schedule, and the Raft safety invariants are asserted
// on the Raft test harness (tests/raft_harness.h):
//   I1 Election safety   — at most one leader per term, ever (after every
//                          delivery).
//   I2 Log matching      — equal (index, term) implies equal entry identity
//                          and equal prefixes (after the run).
//   I3 State machine safety — no two nodes applied different entries at one
//                          index (after the run).
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <memory>
#include <type_traits>
#include <vector>

#include "tests/raft_harness.h"

namespace hovercraft {
namespace {

// Randomized reconfiguration schedule: at random times, ask whoever leads
// right then to add a random non-member or remove a random member (never
// below two). Rejected proposals (a change already in flight, no leader)
// are dropped on the floor — the next event simply tries again — so the
// schedule exercises proposal, rollback-on-truncation, learner catch-up
// and self-removal in arbitrary interleavings with crashes and loss.
void ArmChurn(RaftHarness& h, TimeNs duration, int events) {
  for (int i = 0; i < events; ++i) {
    const TimeNs when = static_cast<TimeNs>(h.rng.NextBelow(static_cast<uint64_t>(duration)));
    h.sim.At(when, [&h]() {
      const NodeId leader = h.Leader();
      if (leader == kInvalidNode) {
        return;
      }
      const MembershipConfig& cfg = h.node(leader).active_config();
      std::vector<NodeId> in;
      std::vector<NodeId> out;
      for (NodeId id = 0; id < h.size(); ++id) {
        (cfg.IsMember(id) ? in : out).push_back(id);
      }
      const bool can_add = !out.empty();
      const bool can_remove = in.size() > 2;
      if (!can_add && !can_remove) {
        return;
      }
      const bool add = can_add && (!can_remove || h.rng.NextBool(0.5));
      if (add) {
        h.node(leader).StartAddServer(out[h.rng.NextBelow(out.size())]);
      } else {
        h.node(leader).StartRemoveServer(in[h.rng.NextBelow(in.size())]);
      }
    });
  }
}

// Randomized adversarial schedule (docs/hardening.md): forged higher-term
// RequestVotes injected under a member's identity and election-timer skews
// planted and later restored. With the defenses at their defaults these
// must never break election safety (checked on every delivery) or log
// matching, and the cluster must still make progress.
void ArmAttacks(RaftHarness& h, TimeNs duration, int events) {
  const auto n = static_cast<uint64_t>(h.size());
  for (int i = 0; i < events; ++i) {
    const TimeNs when = static_cast<TimeNs>(h.rng.NextBelow(static_cast<uint64_t>(duration)));
    const bool forge = h.rng.NextBool(0.5);
    h.sim.At(when, [&h, n, forge]() {
      const auto target = static_cast<NodeId>(h.rng.NextBelow(n));
      if (h.down(target)) {
        return;
      }
      if (forge) {
        Term max_term = 0;
        for (NodeId id = 0; id < h.size(); ++id) {
          max_term = std::max(max_term, h.node(id).term());
        }
        const auto forged_id = static_cast<NodeId>(h.rng.NextBelow(n));
        h.Inject(target,
                 RequestVoteReq(max_term + 50, forged_id, /*last_idx=*/0, /*last_term=*/0));
      } else {
        h.node(target).SkewElectionTimer(0.05 + 0.2 * h.rng.NextDouble());
        h.sim.After(Millis(10), [&h, target]() { h.node(target).SkewElectionTimer(1.0); });
      }
      h.CheckElectionSafety();
    });
  }
}

// Read-linearizability probes: at random times ask whoever leads for a
// ReadIndex grant and assert it covers everything committed anywhere so
// far. A stale leader whose lease lapsed must refuse; a grant below the
// global commit watermark would be a stale read. Counts grants in `granted`.
void ArmReadProbes(RaftHarness& h, TimeNs duration, int events, uint64_t* granted) {
  for (int i = 0; i < events; ++i) {
    const TimeNs when = static_cast<TimeNs>(h.rng.NextBelow(static_cast<uint64_t>(duration)));
    h.sim.At(when, [&h, granted]() {
      for (NodeId id = 0; id < h.size(); ++id) {
        if (h.down(id) || !h.node(id).IsLeader()) {
          continue;
        }
        const LogIndex watermark = h.commit_watermark();
        const RaftNode::ReadGrant grant = h.node(id).AcquireReadIndex();
        if (grant.granted) {
          ++*granted;
          EXPECT_GE(grant.read_index, watermark)
              << "stale ReadIndex grant from node " << id << " at term " << h.node(id).term();
        }
      }
    });
  }
}

void RunWorkload(RaftHarness& h, uint64_t client_requests, TimeNs duration) {
  // Inject client traffic at random times to random (possibly wrong)
  // nodes; in metadata mode payloads are seeded into random subsets of the
  // unordered stores, exercising the recovery path.
  const int32_t n = h.size();
  for (uint64_t i = 1; i <= client_requests; ++i) {
    const TimeNs when = static_cast<TimeNs>(h.rng.NextBelow(static_cast<uint64_t>(duration)));
    h.sim.At(when, [&h, i, n]() {
      auto req = std::make_shared<RpcRequest>(
          RequestId{100, i},
          h.rng.NextBool(0.3) ? R2p2Policy::kReplicatedReqRo : R2p2Policy::kReplicatedReq,
          MakeBody(std::vector<uint8_t>(16)));
      for (NodeId node = 0; node < n; ++node) {
        if (h.rng.NextBool(0.9)) {
          h.env(node).AddUnordered(req);
        }
      }
      for (NodeId node = 0; node < n; ++node) {
        if (h.node(node).IsLeader()) {
          h.node(node).SubmitRequest(req);
          break;
        }
      }
    });
    // Random crash/revive events. Revival models a machine rejoining with
    // its (persistent) log intact.
    if (i % 7 == 0) {
      const TimeNs when_crash =
          static_cast<TimeNs>(h.rng.NextBelow(static_cast<uint64_t>(duration)));
      const auto victim = static_cast<NodeId>(h.rng.NextBelow(static_cast<uint64_t>(n)));
      h.sim.At(when_crash, [&h, victim, n]() {
        // Never take down a majority at once.
        int up = 0;
        for (NodeId id = 0; id < n; ++id) {
          up += h.down(id) ? 0 : 1;
        }
        if (up > n / 2 + 1) {
          h.Kill(victim);
        }
      });
      h.sim.At(when_crash + Millis(20), [&h, victim]() { h.Revive(victim); });
    }
  }
  h.sim.RunUntil(duration);
  // Heal everything and let the cluster settle so invariants can be
  // checked on a quiescent state.
  for (NodeId id = 0; id < n; ++id) {
    h.Revive(id);
  }
  h.delivery.drop_probability = 0.0;
  h.sim.RunUntil(duration + Millis(300));
}

// gtest prints a FuzzParam as its raw bytes and ctest puts that text into
// every test's name, so the struct has no padding: the bytes the compiler
// would leave uninitialised are named fields. Left as padding they took
// whatever the stack held while the binary was listed, and the test names
// changed with the path it was run from. `id_bytes` keeps the values the
// suite's names were first recorded with; they do not affect the run.
struct FuzzParam {
  int32_t nodes;
  bool metadata;
  std::array<uint8_t, 3> id_bytes{};
  int drop_permille;
  // Dynamic membership: extra servers started outside the initial voter set,
  // and how many randomized add/remove proposals to fire during the run.
  int32_t spares = 0;
  int churn_events = 0;
  // Adversarial hardening: randomized forged-vote/timer-skew injections, and
  // ReadIndex probes checked against the global commit watermark.
  int attack_events = 0;
  int read_probes = 0;
  int32_t id_tail = 0;
  // Per-delivery delay bound. The read-probe runs tighten it so the lease
  // argument (no new leader within election_timeout_min of quorum contact)
  // holds with a wide margin over message skew.
  TimeNs max_delay = Millis(2);
};
static_assert(std::has_unique_object_representations_v<FuzzParam>,
              "padding in FuzzParam would make the test names nondeterministic");

class ScheduleFuzzTest : public ::testing::TestWithParam<std::tuple<int, FuzzParam>> {};

TEST_P(ScheduleFuzzTest, SafetyHoldsUnderRandomSchedules) {
  const auto [seed, param] = GetParam();
  const auto options_of = [&param](NodeId) {
    RaftOptions opts;
    opts.initial_voters = param.spares > 0 ? param.nodes : 0;
    opts.metadata_only = param.metadata;
    opts.read_index = param.read_probes > 0;
    opts.election_timeout_min = Millis(4);
    opts.election_timeout_max = Millis(12);
    opts.heartbeat_interval = Millis(1);
    return opts;
  };
  RaftHarness harness(param.nodes + param.spares, options_of,
                      static_cast<uint64_t>(seed) * 7919 + 13,
                      {.max_delay = param.max_delay,
                       .drop_probability = param.drop_permille / 1000.0});
  harness.StartAll();
  if (param.churn_events > 0) {
    ArmChurn(harness, Millis(150), param.churn_events);
  }
  if (param.attack_events > 0) {
    ArmAttacks(harness, Millis(150), param.attack_events);
  }
  uint64_t reads_granted = 0;
  if (param.read_probes > 0) {
    ArmReadProbes(harness, Millis(150), param.read_probes, &reads_granted);
  }
  RunWorkload(harness, /*client_requests=*/120, /*duration=*/Millis(150));
  if (::testing::Test::HasFatalFailure()) {
    return;
  }
  harness.CheckSafety();
  // Progress: the cluster committed at least part of the workload even under
  // crashes and loss (liveness smoke, not an invariant).
  size_t applied = 0;
  for (NodeId id = 0; id < harness.size(); ++id) {
    applied = std::max(applied, harness.env(id).applied_rids.size());
  }
  EXPECT_GT(applied, 10u);
  if (param.read_probes > 0) {
    // The probes genuinely exercised the lease path.
    EXPECT_GT(reads_granted, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Schedules, ScheduleFuzzTest,
    ::testing::Combine(::testing::Range(0, 12),
                       ::testing::Values(
        FuzzParam{.nodes = 3, .metadata = false, .id_bytes = {0x64, 0x75, 0x6C},
                  .drop_permille = 20},
        FuzzParam{.nodes = 3, .metadata = true, .drop_permille = 50},
        FuzzParam{.nodes = 5, .metadata = true, .drop_permille = 20},
        FuzzParam{.nodes = 5, .metadata = false, .id_bytes = {0x00, 0xC0, 0xCA},
                  .drop_permille = 100})));

// Election safety and log matching must survive arbitrary interleavings of
// reconfiguration with message loss, reordering and crashes: randomized
// add/remove schedules against a 3-voter cluster with spares, in both the
// full-log and metadata-only replication modes.
INSTANTIATE_TEST_SUITE_P(
    ChurnSchedules, ScheduleFuzzTest,
    ::testing::Combine(::testing::Range(0, 12),
                       ::testing::Values(
        FuzzParam{.nodes = 3, .metadata = false, .drop_permille = 20, .spares = 2,
                  .churn_events = 12},
        FuzzParam{.nodes = 3, .metadata = true, .id_bytes = {0x31, 0xE2, 0x06},
                  .drop_permille = 50, .spares = 2, .churn_events = 12},
        FuzzParam{.nodes = 3, .metadata = true, .drop_permille = 20, .spares = 3,
                  .churn_events = 20})));

// Randomized attack schedules: forged votes and timer skews interleaved with
// drops and crashes. Election safety and log matching must hold with the
// defenses at their defaults, and the cluster must keep committing.
INSTANTIATE_TEST_SUITE_P(
    AttackSchedules, ScheduleFuzzTest,
    ::testing::Combine(::testing::Range(0, 12),
                       ::testing::Values(
        FuzzParam{.nodes = 3, .metadata = false, .drop_permille = 20, .attack_events = 16},
        FuzzParam{.nodes = 3, .metadata = true, .drop_permille = 50, .attack_events = 16},
        FuzzParam{.nodes = 5, .metadata = true, .drop_permille = 20, .attack_events = 24})));

// Read-lease probes under attack + loss: every granted ReadIndex must cover
// the global commit watermark (no stale grants), across seeds.
INSTANTIATE_TEST_SUITE_P(
    ReadLeaseSchedules, ScheduleFuzzTest,
    ::testing::Combine(::testing::Range(0, 8),
                       ::testing::Values(FuzzParam{.nodes = 3, .metadata = false, .drop_permille = 20,
                                                   .attack_events = 8, .read_probes = 40,
                                                   .max_delay = Micros(200)},
                                         FuzzParam{.nodes = 3, .metadata = true, .drop_permille = 50,
                                                   .read_probes = 40, .max_delay = Micros(200)})));

}  // namespace
}  // namespace hovercraft
