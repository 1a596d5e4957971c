// Unit tests for the in-network devices (aggregator, flow-control middlebox)
// against hand-driven fake hosts, plus server-level behaviour of the
// kUnrestricted (stale-read) path.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "src/app/synthetic.h"
#include "src/core/aggregator.h"
#include "src/core/cluster.h"
#include "src/core/flow_control.h"
#include "src/loadgen/client.h"
#include "src/loadgen/workload.h"
#include "src/net/network.h"

namespace hovercraft {
namespace {

class SinkHost final : public Host {
 public:
  SinkHost(Simulator* sim, const CostModel& costs) : Host(sim, costs, Kind::kServer) {}

  void HandleMessage(HostId src, const MessagePtr& msg) override {
    received.push_back({src, msg});
  }

  struct Received {
    HostId src;
    MessagePtr msg;
  };
  std::vector<Received> received;

  template <typename T>
  std::vector<const T*> Of() const {
    std::vector<const T*> out;
    for (const auto& r : received) {
      if (const auto* m = dynamic_cast<const T*>(r.msg.get())) {
        out.push_back(m);
      }
    }
    return out;
  }
};

// ---------------------------------------------------------------------------
// Aggregator
// ---------------------------------------------------------------------------

class AggregatorTest : public ::testing::Test {
 protected:
  AggregatorTest() : net_(&sim_, 1), agg_(&sim_, costs_, 3) {
    for (int i = 0; i < 3; ++i) {
      nodes_.push_back(std::make_unique<SinkHost>(&sim_, costs_));
      hosts_.push_back(net_.Attach(nodes_.back().get()));
    }
    net_.Attach(&agg_);
    const Addr all = net_.CreateMulticastGroup(hosts_);
    std::vector<Addr> excluding;
    for (int i = 0; i < 3; ++i) {
      std::vector<HostId> members;
      for (int j = 0; j < 3; ++j) {
        if (j != i) {
          members.push_back(hosts_[static_cast<size_t>(j)]);
        }
      }
      excluding.push_back(net_.CreateMulticastGroup(members));
    }
    agg_.Configure(hosts_, all, excluding);
  }

  void Handshake(NodeId leader, Term term) {
    nodes_[static_cast<size_t>(leader)]->Send(agg_.id(),
                                              std::make_shared<AggVoteReq>(term));
    sim_.RunToCompletion();
  }

  void SendAe(NodeId leader, Term term, LogIndex prev, int entries, LogIndex commit = 0) {
    std::vector<WireEntry> wire(static_cast<size_t>(entries));
    for (int i = 0; i < entries; ++i) {
      wire[static_cast<size_t>(i)].term = term;
      wire[static_cast<size_t>(i)].rid = RequestId{1, prev + static_cast<uint64_t>(i) + 1};
    }
    nodes_[static_cast<size_t>(leader)]->Send(
        agg_.id(),
        std::make_shared<AppendEntriesReq>(term, leader, prev, term, commit, std::move(wire)));
    sim_.RunToCompletion();
  }

  void SendReply(NodeId follower, Term term, LogIndex match, uint64_t progress) {
    nodes_[static_cast<size_t>(follower)]->Send(
        agg_.id(), std::make_shared<AppendEntriesRep>(follower, term, true, match, progress,
                                                      match, false));
    sim_.RunToCompletion();
  }

  Simulator sim_;
  CostModel costs_;
  Network net_;
  Aggregator agg_;
  std::vector<std::unique_ptr<SinkHost>> nodes_;
  std::vector<HostId> hosts_;
};

TEST_F(AggregatorTest, VoteHandshakeFlushesAndReplies) {
  Handshake(/*leader=*/0, /*term=*/5);
  const auto votes = nodes_[0]->Of<AggVoteRep>();
  ASSERT_EQ(votes.size(), 1u);
  EXPECT_EQ(votes[0]->term(), 5u);
  EXPECT_EQ(agg_.term(), 5u);
  EXPECT_EQ(agg_.agg_stats().flushes, 1u);
}

TEST_F(AggregatorTest, ForwardsAppendToFollowersOnly) {
  Handshake(0, 1);
  SendAe(/*leader=*/0, /*term=*/1, /*prev=*/0, /*entries=*/3);
  EXPECT_EQ(nodes_[1]->Of<AppendEntriesReq>().size(), 1u);
  EXPECT_EQ(nodes_[2]->Of<AppendEntriesReq>().size(), 1u);
  EXPECT_EQ(nodes_[0]->Of<AppendEntriesReq>().size(), 0u);
  EXPECT_EQ(nodes_[1]->Of<AppendEntriesReq>()[0]->entries().size(), 3u);
}

TEST_F(AggregatorTest, QuorumReplyTriggersAggCommitToEveryone) {
  Handshake(0, 1);
  SendAe(0, 1, 0, 3);
  // One follower (majority-1 = 1 for N=3) acking commits.
  SendReply(/*follower=*/1, 1, /*match=*/3, /*progress=*/0);
  for (int n = 0; n < 3; ++n) {
    const auto commits = nodes_[static_cast<size_t>(n)]->Of<AggCommitMsg>();
    ASSERT_EQ(commits.size(), 1u) << "node " << n;
    EXPECT_EQ(commits[0]->commit(), 3u);
  }
  EXPECT_EQ(agg_.commit(), 3u);
}

TEST_F(AggregatorTest, NoCommitWithoutQuorumProgress) {
  Handshake(0, 1);
  SendAe(0, 1, 0, 3);
  SendReply(1, 1, /*match=*/0, /*progress=*/0);  // no progress
  EXPECT_EQ(nodes_[0]->Of<AggCommitMsg>().size(), 0u);
  EXPECT_EQ(agg_.commit(), 0u);
}

TEST_F(AggregatorTest, CommitCappedByLeaderAnnouncement) {
  Handshake(0, 1);
  SendAe(0, 1, 0, 2);
  // A reply claiming a match beyond the announced index must not commit
  // beyond it (stale/garbled reply).
  SendReply(1, 1, /*match=*/10, /*progress=*/0);
  ASSERT_EQ(nodes_[0]->Of<AggCommitMsg>().size(), 1u);
  EXPECT_EQ(nodes_[0]->Of<AggCommitMsg>()[0]->commit(), 2u);
}

TEST_F(AggregatorTest, PendingReannouncementForcesAggCommit) {
  Handshake(0, 1);
  SendAe(0, 1, 0, 2);
  SendReply(1, 1, 2, 2);  // commits 2
  EXPECT_EQ(nodes_[0]->Of<AggCommitMsg>().size(), 1u);
  // Leader re-announces the same index (heartbeat); the next reply must
  // produce an AGG_COMMIT even though the commit index is unchanged.
  SendAe(0, 1, /*prev=*/2, /*entries=*/0);
  SendReply(2, 1, 2, 2);
  EXPECT_EQ(nodes_[0]->Of<AggCommitMsg>().size(), 2u);
  EXPECT_EQ(nodes_[0]->Of<AggCommitMsg>()[1]->commit(), 2u);
}

TEST_F(AggregatorTest, AggCommitCarriesCompletedCounts) {
  Handshake(0, 1);
  SendAe(0, 1, 0, 4);
  SendReply(1, 1, 4, /*progress=*/2);
  const auto commits = nodes_[0]->Of<AggCommitMsg>();
  ASSERT_EQ(commits.size(), 1u);
  ASSERT_EQ(commits[0]->progress().size(), 3u);
  EXPECT_EQ(commits[0]->progress()[1], 2u);
}

// A completed register holds the newest of its follower's progress stamps:
// a reordered older reply of the same restart epoch leaves it, while a reply
// of a later epoch replaces it even with a lower applied index (a follower
// restored from an older snapshot). A follower with no reply since the
// registers were reset reads 0.
TEST_F(AggregatorTest, AggCommitCarriesEachFollowersLatestAppliedIndex) {
  Handshake(0, 1);
  SendAe(0, 1, 0, 4);
  SendReply(1, 1, 4, /*progress=*/ProgressStamp(0, 3));
  SendAe(0, 1, /*prev=*/4, /*entries=*/0);  // a re-announcement: the next reply is sent on
  SendReply(1, 1, 4, /*progress=*/ProgressStamp(0, 1));
  SendAe(0, 1, /*prev=*/4, /*entries=*/0);
  SendReply(1, 1, 4, /*progress=*/ProgressStamp(1, 1));
  const auto commits = nodes_[0]->Of<AggCommitMsg>();
  ASSERT_EQ(commits.size(), 3u);
  EXPECT_EQ(commits[0]->progress()[1], ProgressStamp(0, 3));
  EXPECT_EQ(commits[1]->progress()[1], ProgressStamp(0, 3));
  EXPECT_EQ(commits[2]->progress()[1], ProgressStamp(1, 1));
  EXPECT_EQ(commits[2]->progress()[2], 0u);
}

TEST_F(AggregatorTest, HigherTermFlushesSoftState) {
  Handshake(0, 1);
  SendAe(0, 1, 0, 3);
  SendReply(1, 1, 3, 3);
  EXPECT_EQ(agg_.commit(), 3u);
  // New leader, higher term: registers reset, stale replies ignored.
  Handshake(2, 2);
  EXPECT_EQ(agg_.commit(), 0u);
  EXPECT_EQ(agg_.term(), 2u);
  SendReply(1, 1, 3, 3);  // stale term
  EXPECT_EQ(agg_.commit(), 0u);
}

TEST_F(AggregatorTest, StaleLeaderAppendDropped) {
  Handshake(0, 3);
  SendAe(/*leader=*/1, /*term=*/1, 0, 2);  // deposed leader
  EXPECT_EQ(nodes_[2]->Of<AppendEntriesReq>().size(), 0u);
}

// ---------------------------------------------------------------------------
// Flow control
// ---------------------------------------------------------------------------

class FlowControlTest : public ::testing::Test {
 protected:
  FlowControlTest() : net_(&sim_, 1) {
    client_ = std::make_unique<SinkHost>(&sim_, costs_);
    server_a_ = std::make_unique<SinkHost>(&sim_, costs_);
    server_b_ = std::make_unique<SinkHost>(&sim_, costs_);
    net_.Attach(client_.get());
    net_.Attach(server_a_.get());
    net_.Attach(server_b_.get());
    group_ = net_.CreateMulticastGroup({server_a_->id(), server_b_->id()});
  }

  std::unique_ptr<FlowControl> MakeMiddlebox(int64_t threshold) {
    auto fc = std::make_unique<FlowControl>(&sim_, costs_, group_, threshold);
    net_.Attach(fc.get());
    return fc;
  }

  void SendRequest(FlowControl& fc, uint64_t seq) {
    client_->Send(fc.id(),
                  std::make_shared<RpcRequest>(RequestId{client_->id(), seq},
                                               R2p2Policy::kReplicatedReq,
                                               MakeBody(std::vector<uint8_t>(24))));
    sim_.RunToCompletion();
  }

  Simulator sim_;
  CostModel costs_;
  Network net_;
  Addr group_ = kInvalidHost;
  std::unique_ptr<SinkHost> client_;
  std::unique_ptr<SinkHost> server_a_;
  std::unique_ptr<SinkHost> server_b_;
};

TEST_F(FlowControlTest, ForwardsToMulticastGroup) {
  auto fc = MakeMiddlebox(10);
  SendRequest(*fc, 1);
  EXPECT_EQ(server_a_->Of<RpcRequest>().size(), 1u);
  EXPECT_EQ(server_b_->Of<RpcRequest>().size(), 1u);
  EXPECT_EQ(fc->outstanding(), 1);
  EXPECT_EQ(fc->forwarded(), 1u);
}

TEST_F(FlowControlTest, NacksBeyondThreshold) {
  auto fc = MakeMiddlebox(2);
  SendRequest(*fc, 1);
  SendRequest(*fc, 2);
  SendRequest(*fc, 3);  // over the cap
  EXPECT_EQ(fc->nacked(), 1u);
  EXPECT_EQ(server_a_->Of<RpcRequest>().size(), 2u);
  const auto nacks = client_->Of<NackMsg>();
  ASSERT_EQ(nacks.size(), 1u);
  EXPECT_EQ(nacks[0]->rid().seq, 3u);
}

TEST_F(FlowControlTest, FeedbackReopensAdmission) {
  auto fc = MakeMiddlebox(1);
  SendRequest(*fc, 1);
  SendRequest(*fc, 2);
  EXPECT_EQ(fc->nacked(), 1u);
  // The replier acknowledges completion.
  server_a_->Send(fc->id(), std::make_shared<FeedbackMsg>(RequestId{client_->id(), 1}));
  sim_.RunToCompletion();
  EXPECT_EQ(fc->outstanding(), 0);
  SendRequest(*fc, 3);
  EXPECT_EQ(fc->nacked(), 1u);  // admitted again
  EXPECT_EQ(fc->forwarded(), 2u);
}

TEST_F(FlowControlTest, ZeroThresholdDisablesCap) {
  auto fc = MakeMiddlebox(0);
  for (uint64_t i = 1; i <= 100; ++i) {
    SendRequest(*fc, i);
  }
  EXPECT_EQ(fc->nacked(), 0u);
  EXPECT_EQ(fc->forwarded(), 100u);
}

TEST_F(FlowControlTest, CounterNeverGoesNegative) {
  auto fc = MakeMiddlebox(5);
  server_a_->Send(fc->id(), std::make_shared<FeedbackMsg>(RequestId{client_->id(), 9}));
  sim_.RunToCompletion();
  EXPECT_EQ(fc->outstanding(), 0);
}

TEST_F(FlowControlTest, DuplicateFeedbackDoesNotCorruptAdmission) {
  // The ledger is per-rid: a duplicate FEEDBACK (e.g. two repliers answering
  // the same request after a replier reassignment) releases the slot once
  // and is a no-op afterwards. It must neither go negative nor release some
  // *other* request's slot and silently widen the window.
  auto fc = MakeMiddlebox(2);
  SendRequest(*fc, 1);
  SendRequest(*fc, 2);
  EXPECT_EQ(fc->outstanding(), 2);
  for (int i = 0; i < 4; ++i) {  // 1 legitimate + 3 duplicates
    server_a_->Send(fc->id(), std::make_shared<FeedbackMsg>(RequestId{client_->id(), 1}));
  }
  sim_.RunToCompletion();
  EXPECT_EQ(fc->outstanding(), 1);  // request 2 is still in flight

  // Admission still behaves: one slot is free, so request 3 is admitted and
  // request 4 is NACKed.
  SendRequest(*fc, 3);
  SendRequest(*fc, 4);
  EXPECT_EQ(fc->outstanding(), 2);
  EXPECT_EQ(fc->nacked(), 1u);
  EXPECT_EQ(client_->Of<NackMsg>().back()->rid().seq, 4u);

  // Request 2's own FEEDBACK releases exactly its slot.
  server_a_->Send(fc->id(), std::make_shared<FeedbackMsg>(RequestId{client_->id(), 2}));
  sim_.RunToCompletion();
  EXPECT_EQ(fc->outstanding(), 1);
}

TEST_F(FlowControlTest, LeaderChangeReconcilesOrphanedSlots) {
  // Failover repair (DESIGN.md section 5c): a new leader announces itself,
  // the middlebox hands it the open ledger, and the leader classifies each
  // slot. Executed and unknown slots release immediately; pending ones wait
  // for their own FEEDBACK.
  auto fc = MakeMiddlebox(8);
  SendRequest(*fc, 1);
  SendRequest(*fc, 2);
  SendRequest(*fc, 3);
  EXPECT_EQ(fc->outstanding(), 3);

  server_a_->Send(fc->id(), std::make_shared<FcLeaderChangeMsg>(server_a_->id()));
  sim_.RunToCompletion();
  auto queries = server_a_->Of<FcReconcileReq>();
  ASSERT_EQ(queries.size(), 1u);
  ASSERT_EQ(queries[0]->rids().size(), 3u);
  EXPECT_EQ(fc->reconciles_started(), 1u);

  // rid 1 executed (replier died before FEEDBACK), rid 2 still pending,
  // rid 3 lost with the old leader.
  server_a_->Send(fc->id(), std::make_shared<FcReconcileRep>(
                                queries[0]->rids(),
                                std::vector<FcSlotState>{FcSlotState::kExecuted,
                                                         FcSlotState::kPending,
                                                         FcSlotState::kUnknown}));
  sim_.RunToCompletion();
  EXPECT_EQ(fc->outstanding(), 1);  // only rid 2 remains charged
  EXPECT_EQ(fc->reconciled_released(), 2u);
  EXPECT_EQ(fc->force_released(), 0u);

  // rid 2's own FEEDBACK converges the ledger to zero.
  server_a_->Send(fc->id(), std::make_shared<FeedbackMsg>(RequestId{client_->id(), 2}));
  sim_.RunToCompletion();
  EXPECT_EQ(fc->outstanding(), 0);
}

TEST_F(FlowControlTest, ReconcileForceReleasesAfterBoundedRounds) {
  // A leader that keeps reporting a slot as pending cannot pin the admission
  // window forever: after kMaxReconcileRounds (16) the middlebox writes the
  // slot off and counts the anomaly.
  auto fc = MakeMiddlebox(8);
  SendRequest(*fc, 1);
  server_a_->Send(fc->id(), std::make_shared<FcLeaderChangeMsg>(server_a_->id()));
  sim_.RunToCompletion();

  for (int round = 1; round <= 16; ++round) {
    auto queries = server_a_->Of<FcReconcileReq>();
    ASSERT_EQ(queries.size(), static_cast<size_t>(round));
    server_a_->Send(fc->id(),
                    std::make_shared<FcReconcileRep>(
                        queries.back()->rids(),
                        std::vector<FcSlotState>{FcSlotState::kPending}));
    sim_.RunToCompletion();
  }
  EXPECT_EQ(fc->outstanding(), 0);
  EXPECT_EQ(fc->force_released(), 1u);
  // The reconcile loop stopped: no further queries after the write-off.
  EXPECT_EQ(server_a_->Of<FcReconcileReq>().size(), 16u);
}

TEST_F(FlowControlTest, RetransmitReusesItsAdmissionSlot) {
  // A retransmitted rid that is already open must re-forward without opening
  // (or being NACKed out of) a second slot: the original admission will be
  // repaid exactly once.
  auto fc = MakeMiddlebox(1);
  SendRequest(*fc, 1);
  EXPECT_EQ(fc->outstanding(), 1);
  SendRequest(*fc, 1);  // retransmit of the admitted rid
  EXPECT_EQ(fc->outstanding(), 1);
  EXPECT_EQ(fc->nacked(), 0u);
  EXPECT_EQ(fc->forwarded(), 2u);
  EXPECT_EQ(server_a_->Of<RpcRequest>().size(), 2u);
}

TEST_F(FlowControlTest, NackedRequestLeavesNoResidualState) {
  // A NACKed request must not occupy a slot: after the NACK, one FEEDBACK
  // for an admitted request reopens exactly one slot.
  auto fc = MakeMiddlebox(1);
  SendRequest(*fc, 1);   // admitted
  SendRequest(*fc, 2);   // NACKed
  SendRequest(*fc, 3);   // NACKed
  EXPECT_EQ(fc->outstanding(), 1);
  EXPECT_EQ(fc->nacked(), 2u);
  server_a_->Send(fc->id(), std::make_shared<FeedbackMsg>(RequestId{client_->id(), 1}));
  sim_.RunToCompletion();
  SendRequest(*fc, 4);   // admitted into the freed slot
  SendRequest(*fc, 5);   // NACKed again
  EXPECT_EQ(fc->forwarded(), 2u);
  EXPECT_EQ(fc->nacked(), 3u);
  EXPECT_EQ(fc->outstanding(), 1);
}

// ---------------------------------------------------------------------------
// Unrestricted (stale-read) requests at the server (section 6.1)
// ---------------------------------------------------------------------------

TEST(UnrestrictedTest, ServedLocallyWithoutConsensus) {
  ClusterConfig config;
  config.mode = ClusterMode::kHovercRaft;
  config.nodes = 3;
  config.seed = 5;
  config.replier_policy = ReplierPolicy::kJbsq;
  config.app_factory = []() { return std::make_unique<SyntheticService>(); };
  Cluster cluster(config);
  ASSERT_NE(cluster.WaitForLeader(), kInvalidNode);

  SyntheticWorkloadConfig wc;
  wc.read_only_fraction = 1.0;
  wc.unrestricted_fraction = 1.0;  // every request bypasses consensus
  wc.service_time = std::make_shared<FixedDistribution>(Micros(1));
  auto client = std::make_unique<ClientHost>(
      &cluster.sim(), config.costs, [&cluster]() { return cluster.ClientTarget(); },
      std::make_unique<SyntheticWorkload>(wc), 20'000, 3);
  std::vector<Addr> servers;
  for (NodeId n = 0; n < 3; ++n) {
    servers.push_back(cluster.server_host(n));
  }
  client->set_unrestricted_targets(servers);
  cluster.network().Attach(client.get());

  // Let the leader's no-op commit before snapshotting the commit index.
  cluster.sim().RunUntil(cluster.sim().Now() + Millis(5));
  const TimeNs t0 = cluster.sim().Now();
  const LogIndex commit_before =
      cluster.server(cluster.LeaderId()).raft()->commit_index();
  client->StartLoad(t0, t0 + Millis(50));
  cluster.sim().RunUntil(t0 + Millis(150));

  EXPECT_GT(client->total_completed(), 500u);
  // Consensus saw none of it (only the leader's periodic noop/heartbeats).
  const LogIndex commit_after = cluster.server(cluster.LeaderId()).raft()->commit_index();
  EXPECT_EQ(commit_after, commit_before);
  // All three replicas served a share.
  for (NodeId n = 0; n < 3; ++n) {
    EXPECT_GT(cluster.server(n).server_stats().unrestricted_served, 100u) << "node " << n;
  }
  // Flow control saw no feedback imbalance (requests never passed it).
  EXPECT_EQ(cluster.flow_control()->outstanding(), 0);
}

TEST(UnrestrictedTest, MixesWithReplicatedTraffic) {
  ClusterConfig config;
  config.mode = ClusterMode::kHovercRaft;
  config.nodes = 3;
  config.seed = 7;
  config.replier_policy = ReplierPolicy::kJbsq;
  config.app_factory = []() { return std::make_unique<SyntheticService>(); };
  Cluster cluster(config);
  ASSERT_NE(cluster.WaitForLeader(), kInvalidNode);

  SyntheticWorkloadConfig wc;
  wc.read_only_fraction = 0.5;
  wc.unrestricted_fraction = 0.5;
  wc.service_time = std::make_shared<FixedDistribution>(Micros(1));
  auto client = std::make_unique<ClientHost>(
      &cluster.sim(), config.costs, [&cluster]() { return cluster.ClientTarget(); },
      std::make_unique<SyntheticWorkload>(wc), 40'000, 9);
  client->set_unrestricted_targets({cluster.server_host(0), cluster.server_host(1),
                                    cluster.server_host(2)});
  cluster.network().Attach(client.get());

  const TimeNs t0 = cluster.sim().Now();
  client->StartLoad(t0, t0 + Millis(50));
  cluster.sim().RunUntil(t0 + Millis(150));

  EXPECT_GT(client->total_completed(), 1500u);
  // Writes still replicated and applied identically.
  const uint64_t digest0 = cluster.server(0).app().Digest();
  EXPECT_GT(cluster.server(0).app().ApplyCount(), 0u);
  for (NodeId n = 1; n < 3; ++n) {
    EXPECT_EQ(cluster.server(n).app().Digest(), digest0);
  }
  uint64_t unrestricted = 0;
  for (NodeId n = 0; n < 3; ++n) {
    unrestricted += cluster.server(n).server_stats().unrestricted_served;
  }
  EXPECT_GT(unrestricted, 300u);
}

}  // namespace
}  // namespace hovercraft

namespace hovercraft {
namespace {

// N=5 quorum arithmetic at the aggregator: commit needs majority-1 = 2
// follower acknowledgements.
TEST(AggregatorQuorumTest, FiveNodeQuorumNeedsTwoFollowers) {
  Simulator sim;
  CostModel costs;
  Network net(&sim, 1);
  std::vector<std::unique_ptr<SinkHost>> nodes;
  std::vector<HostId> hosts;
  for (int i = 0; i < 5; ++i) {
    nodes.push_back(std::make_unique<SinkHost>(&sim, costs));
    hosts.push_back(net.Attach(nodes.back().get()));
  }
  Aggregator agg(&sim, costs, 5);
  net.Attach(&agg);
  const Addr all = net.CreateMulticastGroup(hosts);
  std::vector<Addr> excluding;
  for (int i = 0; i < 5; ++i) {
    std::vector<HostId> members;
    for (int j = 0; j < 5; ++j) {
      if (j != i) {
        members.push_back(hosts[static_cast<size_t>(j)]);
      }
    }
    excluding.push_back(net.CreateMulticastGroup(members));
  }
  agg.Configure(hosts, all, excluding);

  auto send = [&](int node, MessagePtr msg) {
    nodes[static_cast<size_t>(node)]->Send(agg.id(), std::move(msg));
    sim.RunToCompletion();
  };
  send(0, std::make_shared<AggVoteReq>(1));
  std::vector<WireEntry> entries(3);
  for (int i = 0; i < 3; ++i) {
    entries[static_cast<size_t>(i)].term = 1;
    entries[static_cast<size_t>(i)].rid = RequestId{1, static_cast<uint64_t>(i) + 1};
  }
  send(0, std::make_shared<AppendEntriesReq>(1, 0, 0, 1, 0, std::move(entries)));

  // One follower ack: not enough for a 5-node quorum.
  send(1, std::make_shared<AppendEntriesRep>(1, 1, true, 3, 0, 3, false));
  EXPECT_EQ(agg.commit(), 0u);
  // Second follower ack: 2 followers + leader = majority of 5.
  send(2, std::make_shared<AppendEntriesRep>(2, 1, true, 3, 0, 3, false));
  EXPECT_EQ(agg.commit(), 3u);
}

}  // namespace
}  // namespace hovercraft
