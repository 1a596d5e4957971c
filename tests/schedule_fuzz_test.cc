// Randomized schedule exploration of the core protocol invariants.
//
// The paper leaves model-checking HovercRaft++ to future work (section 5);
// this suite approximates it with randomized partial-order sampling: message
// delays are drawn per delivery, messages drop at random, nodes crash and
// revive on a random schedule, and after every run the Raft safety
// invariants are asserted:
//   I1 Election safety   — at most one leader per term, ever.
//   I2 Log matching      — equal (index, term) implies equal entry identity
//                          and equal prefixes.
//   I3 Leader completeness / state machine safety — applied sequences on any
//                          two nodes are prefixes of each other.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <functional>
#include <map>
#include <memory>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "src/common/buffer.h"
#include "src/raft/node.h"
#include "src/sim/simulator.h"
#include "src/storage/sim_disk.h"
#include "src/storage/stable_storage.h"

namespace hovercraft {
namespace {

class FuzzHarness;

class FuzzEnv final : public RaftNode::Env {
 public:
  FuzzEnv(FuzzHarness* harness, NodeId self) : harness_(harness), self_(self) {}

  void SendToPeer(NodeId peer, MessagePtr msg) override;
  void SendToAggregator(MessagePtr /*msg*/) override {}
  std::shared_ptr<const RpcRequest> LookupUnordered(const RequestId& rid) override {
    auto it = unordered_.find(rid);
    return it == unordered_.end() ? nullptr : it->second;
  }
  void ConsumeUnordered(const RequestId& rid) override { unordered_.erase(rid); }
  void StoreRecovered(const RequestId& rid,
                      std::shared_ptr<const RpcRequest> request) override {
    unordered_[rid] = std::move(request);
  }
  SnapshotCapture CaptureSnapshot() override {
    // The test state machine is the applied rid sequence; serialize it.
    BufferWriter w;
    w.PutU64(applied_idx_);
    w.PutU64(applied.size());
    for (const RequestId& rid : applied) {
      w.PutU32(static_cast<uint32_t>(rid.client));
      w.PutU64(rid.seq);
    }
    return SnapshotCapture{MakeBody(w.TakeBytes()), applied_idx_};
  }
  void RestoreSnapshot(const Body& state, LogIndex last_included, Term /*included_term*/,
                       MembershipConfigPtr /*config*/, LogIndex /*config_idx*/) override {
    BufferReader r(*state);
    uint64_t applied_count = 0;
    uint64_t count = 0;
    HC_CHECK(r.GetU64(applied_count).ok());
    HC_CHECK(r.GetU64(count).ok());
    applied.clear();
    for (uint64_t i = 0; i < count; ++i) {
      uint32_t client = 0;
      uint64_t seq = 0;
      HC_CHECK(r.GetU32(client).ok());
      HC_CHECK(r.GetU64(seq).ok());
      applied.push_back(RequestId{static_cast<HostId>(client), seq});
    }
    applied_idx_ = std::max<LogIndex>(applied_idx_, last_included);
    ++snapshots_restored;
  }
  void OnCommitAdvanced(LogIndex commit) override;
  void OnLeadershipChanged(bool /*is_leader*/) override {}
  void DrainUnorderedIntoLog() override;

  void AddUnordered(std::shared_ptr<const RpcRequest> request) {
    unordered_[request->rid()] = std::move(request);
  }

  std::vector<RequestId> applied;
  uint64_t snapshots_restored = 0;

 private:
  friend class FuzzHarness;
  FuzzHarness* harness_;
  NodeId self_;
  std::unordered_map<RequestId, std::shared_ptr<const RpcRequest>, RequestIdHash> unordered_;
  LogIndex applied_idx_ = 0;
};

class FuzzHarness {
 public:
  FuzzHarness(int32_t n, uint64_t seed, bool metadata_mode, double drop_probability,
              int32_t initial_voters = 0, bool read_index = false,
              TimeNs max_delay = Millis(2))
      : rng_(seed), drop_probability_(drop_probability), max_delay_(max_delay) {
    for (NodeId i = 0; i < n; ++i) {
      RaftOptions opts;
      opts.id = i;
      opts.cluster_size = n;
      opts.initial_voters = initial_voters;
      opts.metadata_only = metadata_mode;
      opts.read_index = read_index;
      opts.election_timeout_min = Millis(4);
      opts.election_timeout_max = Millis(12);
      opts.heartbeat_interval = Millis(1);
      envs_.push_back(std::make_unique<FuzzEnv>(this, i));
      // A zero-latency disk: every barrier completes inline, with no events.
      disks_.push_back(std::make_unique<SimDisk>(&sim_, static_cast<uint64_t>(i), 0));
      storages_.push_back(
          std::make_unique<StableStorage>(disks_.back().get(), FsyncPolicy::kGroupCommit));
      nodes_.push_back(
          std::make_unique<RaftNode>(&sim_, seed * 31 + static_cast<uint64_t>(i), opts,
                                     envs_.back().get(), storages_.back().get()));
      down_.push_back(false);
    }
    for (auto& node : nodes_) {
      node->Start();
    }
  }

  void Deliver(NodeId from, NodeId to, MessagePtr msg) {
    if (down_[static_cast<size_t>(from)] || rng_.NextBool(drop_probability_)) {
      return;
    }
    // Random delay in [1us, max_delay_]: reordering across in-flight
    // messages. The read-lease runs tighten the bound so the lease window
    // (election_timeout_min) dominates message skew by a wide margin.
    const TimeNs delay =
        Micros(1) + static_cast<TimeNs>(rng_.NextBelow(static_cast<uint64_t>(max_delay_)));
    sim_.After(delay, [this, to, msg = std::move(msg)]() {
      if (down_[static_cast<size_t>(to)]) {
        return;
      }
      RaftNode& n = *nodes_[static_cast<size_t>(to)];
      if (const auto* ae = dynamic_cast<const AppendEntriesReq*>(msg.get())) {
        n.OnAppendEntries(*ae, false);
      } else if (const auto* rep = dynamic_cast<const AppendEntriesRep*>(msg.get())) {
        n.OnAppendEntriesRep(*rep);
      } else if (const auto* v = dynamic_cast<const RequestVoteReq*>(msg.get())) {
        n.OnRequestVote(*v);
      } else if (const auto* vr = dynamic_cast<const RequestVoteRep*>(msg.get())) {
        n.OnRequestVoteRep(*vr);
      } else if (const auto* rq = dynamic_cast<const RecoveryReq*>(msg.get())) {
        n.OnRecoveryReq(*rq);
      } else if (const auto* rp = dynamic_cast<const RecoveryRep*>(msg.get())) {
        n.OnRecoveryRep(*rp);
      } else if (const auto* sn = dynamic_cast<const InstallSnapshotReq*>(msg.get())) {
        n.OnInstallSnapshot(*sn);
      } else if (const auto* sr = dynamic_cast<const InstallSnapshotRep*>(msg.get())) {
        n.OnInstallSnapshotRep(*sr);
      }
      RecordLeaders();
    });
  }

  void RecordLeaders() {
    for (const auto& node : nodes_) {
      if (node->IsLeader()) {
        auto [it, inserted] = leader_of_term_.try_emplace(node->term(), node->id());
        // I1: a term never has two distinct leaders.
        ASSERT_EQ(it->second, node->id())
            << "two leaders in term " << node->term();
        (void)inserted;
      }
    }
  }

  // Randomized reconfiguration schedule: at random times, ask whoever leads
  // right then to add a random non-member or remove a random member (never
  // below two). Rejected proposals (a change already in flight, no leader)
  // are dropped on the floor — the next event simply tries again — so the
  // schedule exercises proposal, rollback-on-truncation, learner catch-up
  // and self-removal in arbitrary interleavings with crashes and loss.
  void ArmChurn(TimeNs duration, int events) {
    const int32_t n = static_cast<int32_t>(nodes_.size());
    for (int i = 0; i < events; ++i) {
      const TimeNs when =
          static_cast<TimeNs>(rng_.NextBelow(static_cast<uint64_t>(duration)));
      sim_.At(when, [this, n]() {
        RaftNode* leader = nullptr;
        for (auto& node : nodes_) {
          if (!down_[static_cast<size_t>(node->id())] && node->IsLeader()) {
            leader = node.get();
            break;
          }
        }
        if (leader == nullptr) {
          return;
        }
        const MembershipConfig& cfg = leader->active_config();
        std::vector<NodeId> in;
        std::vector<NodeId> out;
        for (NodeId id = 0; id < n; ++id) {
          (cfg.IsMember(id) ? in : out).push_back(id);
        }
        const bool can_add = !out.empty();
        const bool can_remove = in.size() > 2;
        if (!can_add && !can_remove) {
          return;
        }
        const bool add = can_add && (!can_remove || rng_.NextBool(0.5));
        if (add) {
          leader->StartAddServer(out[rng_.NextBelow(out.size())]);
        } else {
          leader->StartRemoveServer(in[rng_.NextBelow(in.size())]);
        }
      });
    }
  }

  // Randomized adversarial schedule (docs/hardening.md): forged higher-term
  // RequestVotes injected under a member's identity and election-timer skews
  // planted and later restored. With the defenses at their defaults these
  // must never break election safety (RecordLeaders asserts I1 on every
  // delivery) or log matching, and the cluster must still make progress.
  void ArmAttacks(TimeNs duration, int events) {
    const int32_t n = static_cast<int32_t>(nodes_.size());
    for (int i = 0; i < events; ++i) {
      const TimeNs when =
          static_cast<TimeNs>(rng_.NextBelow(static_cast<uint64_t>(duration)));
      const bool forge = rng_.NextBool(0.5);
      sim_.At(when, [this, n, forge]() {
        const NodeId target = static_cast<NodeId>(rng_.NextBelow(static_cast<uint64_t>(n)));
        if (down_[static_cast<size_t>(target)]) {
          return;
        }
        if (forge) {
          Term max_term = 0;
          for (const auto& node : nodes_) {
            max_term = std::max(max_term, node->term());
          }
          const NodeId forged_id =
              static_cast<NodeId>(rng_.NextBelow(static_cast<uint64_t>(n)));
          nodes_[static_cast<size_t>(target)]->OnRequestVote(
              RequestVoteReq(max_term + 50, forged_id, /*last_idx=*/0, /*last_term=*/0));
        } else {
          nodes_[static_cast<size_t>(target)]->SkewElectionTimer(0.05 +
                                                                 0.2 * rng_.NextDouble());
          sim_.After(Millis(10), [this, target]() {
            nodes_[static_cast<size_t>(target)]->SkewElectionTimer(1.0);
          });
        }
        RecordLeaders();
      });
    }
  }

  // Read-linearizability probes: at random times ask whoever leads for a
  // ReadIndex grant and assert it covers everything committed anywhere so
  // far. A stale leader whose lease lapsed must refuse; a grant below the
  // global commit watermark would be a stale read.
  void ArmReadProbes(TimeNs duration, int events) {
    for (int i = 0; i < events; ++i) {
      const TimeNs when =
          static_cast<TimeNs>(rng_.NextBelow(static_cast<uint64_t>(duration)));
      sim_.At(when, [this]() {
        for (auto& node : nodes_) {
          if (down_[static_cast<size_t>(node->id())] || !node->IsLeader()) {
            continue;
          }
          const LogIndex watermark = commit_watermark_;
          const RaftNode::ReadGrant grant = node->AcquireReadIndex();
          if (grant.granted) {
            ++reads_granted_;
            EXPECT_GE(grant.read_index, watermark)
                << "stale ReadIndex grant from node " << node->id() << " at term "
                << node->term();
          }
        }
      });
    }
  }

  void Run(uint64_t client_requests, TimeNs duration) {
    // Inject client traffic at random times to random (possibly wrong)
    // nodes; in metadata mode payloads are seeded into random subsets of the
    // unordered stores, exercising the recovery path.
    const int32_t n = static_cast<int32_t>(nodes_.size());
    for (uint64_t i = 1; i <= client_requests; ++i) {
      const TimeNs when = static_cast<TimeNs>(rng_.NextBelow(static_cast<uint64_t>(duration)));
      sim_.At(when, [this, i, n]() {
        auto req = std::make_shared<RpcRequest>(RequestId{100, i},
                                                rng_.NextBool(0.3)
                                                    ? R2p2Policy::kReplicatedReqRo
                                                    : R2p2Policy::kReplicatedReq,
                                                MakeBody(std::vector<uint8_t>(16)));
        for (NodeId node = 0; node < n; ++node) {
          if (rng_.NextBool(0.9)) {
            envs_[static_cast<size_t>(node)]->AddUnordered(req);
          }
        }
        for (NodeId node = 0; node < n; ++node) {
          if (nodes_[static_cast<size_t>(node)]->IsLeader()) {
            nodes_[static_cast<size_t>(node)]->SubmitRequest(req);
            break;
          }
        }
      });
      // Random crash/revive events. Revival models a machine rejoining with
      // its (persistent) log intact.
      if (i % 7 == 0) {
        const TimeNs when_crash =
            static_cast<TimeNs>(rng_.NextBelow(static_cast<uint64_t>(duration)));
        const NodeId victim = static_cast<NodeId>(rng_.NextBelow(static_cast<uint64_t>(n)));
        sim_.At(when_crash, [this, victim]() {
          // Never take down a majority at once.
          int up = 0;
          for (bool d : down_) {
            up += d ? 0 : 1;
          }
          if (up > static_cast<int>(down_.size()) / 2 + 1) {
            down_[static_cast<size_t>(victim)] = true;
          }
        });
        sim_.At(when_crash + Millis(20),
                [this, victim]() { down_[static_cast<size_t>(victim)] = false; });
      }
    }
    sim_.RunUntil(duration);
    // Heal everything and let the cluster settle so invariants can be
    // checked on a quiescent state.
    for (size_t i = 0; i < down_.size(); ++i) {
      down_[i] = false;
    }
    drop_probability_ = 0.0;
    sim_.RunUntil(duration + Millis(300));
  }

  void CheckInvariants() {
    // I2: log matching on the overlapping, uncompacted ranges.
    for (size_t a = 0; a < nodes_.size(); ++a) {
      for (size_t b = a + 1; b < nodes_.size(); ++b) {
        const RaftLog& la = nodes_[a]->log();
        const RaftLog& lb = nodes_[b]->log();
        const LogIndex lo = std::max(la.first_index(), lb.first_index());
        const LogIndex hi = std::min(la.last_index(), lb.last_index());
        bool matched_suffix = false;
        for (LogIndex idx = hi; idx >= lo && idx >= 1; --idx) {
          const LogEntry& ea = la.At(idx);
          const LogEntry& eb = lb.At(idx);
          if (ea.term == eb.term) {
            EXPECT_EQ(ea.noop, eb.noop) << "idx " << idx;
            EXPECT_EQ(ea.rid, eb.rid) << "idx " << idx;
            // Config entries must agree too: same position, same membership.
            const MembershipConfigPtr& ca = nodes_[a]->ConfigAt(idx);
            const MembershipConfigPtr& cb = nodes_[b]->ConfigAt(idx);
            EXPECT_EQ(ca != nullptr, cb != nullptr) << "idx " << idx;
            if (ca != nullptr && cb != nullptr) {
              EXPECT_EQ(ca->voters, cb->voters) << "idx " << idx;
              EXPECT_EQ(ca->learners, cb->learners) << "idx " << idx;
            }
            matched_suffix = true;
          } else {
            // Terms may differ only above both commit points, i.e. in
            // unreconciled suffixes; once a match is seen walking down, all
            // lower entries must match too.
            EXPECT_FALSE(matched_suffix)
                << "log matching violated at idx " << idx << " between node " << a
                << " and node " << b;
          }
        }
      }
    }
    // I3: applied sequences are prefixes of one another.
    for (size_t a = 0; a < envs_.size(); ++a) {
      for (size_t b = a + 1; b < envs_.size(); ++b) {
        const auto& va = envs_[a]->applied;
        const auto& vb = envs_[b]->applied;
        const size_t common = std::min(va.size(), vb.size());
        for (size_t i = 0; i < common; ++i) {
          ASSERT_EQ(va[i], vb[i]) << "applied sequences diverge at " << i << " between node "
                                  << a << " and node " << b;
        }
      }
    }
  }

  uint64_t TotalApplied() const {
    uint64_t total = 0;
    for (const auto& env : envs_) {
      total = std::max<uint64_t>(total, env->applied.size());
    }
    return total;
  }

  Simulator sim_;
  Rng rng_;
  double drop_probability_;
  TimeNs max_delay_;
  std::vector<std::unique_ptr<FuzzEnv>> envs_;
  std::vector<std::unique_ptr<SimDisk>> disks_;
  std::vector<std::unique_ptr<StableStorage>> storages_;
  std::vector<std::unique_ptr<RaftNode>> nodes_;
  std::vector<bool> down_;
  std::map<Term, NodeId> leader_of_term_;
  // Highest commit index observed on any node, ever (committed prefixes
  // agree by log matching, so a bare index is comparable cluster-wide).
  LogIndex commit_watermark_ = 0;
  uint64_t reads_granted_ = 0;
};

void FuzzEnv::SendToPeer(NodeId peer, MessagePtr msg) {
  harness_->Deliver(self_, peer, std::move(msg));
}

void FuzzEnv::OnCommitAdvanced(LogIndex commit) {
  harness_->commit_watermark_ = std::max(harness_->commit_watermark_, commit);
  RaftNode& node = *harness_->nodes_[static_cast<size_t>(self_)];
  while (applied_idx_ < commit) {
    ++applied_idx_;
    const LogEntry& e = node.log().At(applied_idx_);
    if (!e.noop) {
      applied.push_back(e.rid);
    }
    node.OnApplied(applied_idx_);
  }
}

void FuzzEnv::DrainUnorderedIntoLog() {
  RaftNode& node = *harness_->nodes_[static_cast<size_t>(self_)];
  auto snapshot = unordered_;
  for (auto& [rid, req] : snapshot) {
    node.SubmitRequest(req);
  }
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
  FuzzHarness harness(param.nodes + param.spares, static_cast<uint64_t>(seed) * 7919 + 13,
                      param.metadata, param.drop_permille / 1000.0,
                      param.spares > 0 ? param.nodes : 0,
                      /*read_index=*/param.read_probes > 0, param.max_delay);
  if (param.churn_events > 0) {
    harness.ArmChurn(Millis(150), param.churn_events);
  }
  if (param.attack_events > 0) {
    harness.ArmAttacks(Millis(150), param.attack_events);
  }
  if (param.read_probes > 0) {
    harness.ArmReadProbes(Millis(150), param.read_probes);
  }
  harness.Run(/*client_requests=*/120, /*duration=*/Millis(150));
  if (::testing::Test::HasFatalFailure()) {
    return;
  }
  harness.CheckInvariants();
  // Progress: the cluster committed at least part of the workload even under
  // crashes and loss (liveness smoke, not an invariant).
  EXPECT_GT(harness.TotalApplied(), 10u);
  if (param.read_probes > 0) {
    // The probes genuinely exercised the lease path.
    EXPECT_GT(harness.reads_granted_, 0u);
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
