// Scripted scenarios for the Raft engine on the Raft test harness
// (tests/raft_harness.h): a fixed-hop message fabric with drop filters and
// instant state machines. These pin down algorithm behaviour (elections, log
// repair, recovery) independently of the network cost model.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "tests/raft_harness.h"

namespace hovercraft {
namespace {

// ---------------------------------------------------------------------------
// Elections
// ---------------------------------------------------------------------------

TEST(RaftNodeTest, SingleNodeBecomesLeaderImmediately) {
  RaftHarness h(1);
  h.StartAll();
  EXPECT_EQ(h.Leader(), 0);
  EXPECT_EQ(h.node(0).term(), 1u);
}

TEST(RaftNodeTest, ElectsExactlyOneLeader) {
  RaftHarness h(3);
  h.StartAll();
  const NodeId leader = h.WaitForLeader();
  ASSERT_NE(leader, kInvalidNode);
  h.Run(Millis(50));
  // One leader, and the followers learned it.
  for (NodeId n = 0; n < 3; ++n) {
    EXPECT_EQ(h.node(n).IsLeader(), n == leader) << "node " << n;
    EXPECT_EQ(h.node(n).leader_hint(), leader);
    EXPECT_EQ(h.node(n).term(), h.node(leader).term());
  }
}

TEST(RaftNodeTest, HeartbeatsSuppressNewElections) {
  RaftHarness h(3);
  h.StartAll();
  const NodeId leader = h.WaitForLeader();
  const Term term = h.node(leader).term();
  h.Run(Millis(500));  // many election timeouts worth of quiet time
  EXPECT_EQ(h.Leader(), leader);
  EXPECT_EQ(h.node(leader).term(), term);
}

TEST(RaftNodeTest, LeaderCrashTriggersFailover) {
  RaftHarness h(3);
  h.StartAll();
  const NodeId first = h.WaitForLeader();
  ASSERT_NE(first, kInvalidNode);
  h.Kill(first);
  h.Run(Millis(200));
  const NodeId second = h.Leader();
  ASSERT_NE(second, kInvalidNode);
  EXPECT_NE(second, first);
  EXPECT_GT(h.node(second).term(), h.node(first).term());
}

TEST(RaftNodeTest, NoQuorumNoLeader) {
  RaftHarness h(3);
  h.StartAll();
  const NodeId first = h.WaitForLeader();
  // Kill two of three: the survivor must never win an election.
  h.Kill(first);
  h.Kill((first + 1) % 3);
  h.Run(Millis(500));
  EXPECT_EQ(h.Leader(), kInvalidNode);
}

TEST(RaftNodeTest, CandidateWithStaleLogIsRejected) {
  RaftHarness h(3);
  h.StartAll();
  const NodeId leader = h.WaitForLeader();
  // Commit some entries everywhere except node 2 (isolated).
  h.drop_filter = [](NodeId, NodeId to, const Message&) { return to == 2; };
  for (uint64_t i = 1; i <= 5; ++i) {
    h.node(leader).SubmitRequest(RaftHarness::Req(1, i));
  }
  h.Run(Millis(50));
  EXPECT_GT(h.node(leader).commit_index(), 0u);

  // Heal node 2's inbound but kill the leader; node 2 will time out and
  // campaign with a stale log — the other follower must refuse it, and the
  // up-to-date follower must win eventually.
  h.drop_filter = nullptr;
  h.Kill(leader);
  h.Run(Millis(500));
  const NodeId second = h.Leader();
  ASSERT_NE(second, kInvalidNode);
  // Election safety: the new leader holds all committed entries.
  EXPECT_GE(h.node(second).log().last_index(), 5u);
}

// A group of one voter elects itself through the same campaign path as any
// other. Here a two-voter group removes its leader; the survivor, now the
// only voter, wins its own pre-vote poll and then its election without
// sending a message.
TEST(RaftNodeTest, SurvivorOfARemovedLeaderElectsItselfAlone) {
  RaftHarness h(2);
  h.StartAll();
  ASSERT_EQ(h.WaitForLeader(), 0);
  h.Run(Millis(2));
  const Term term = h.node(0).term();
  ASSERT_TRUE(h.node(0).StartRemoveServer(0));
  h.Run(Millis(50));
  EXPECT_TRUE(h.node(0).retired());
  ASSERT_EQ(h.Leader(), 1);
  EXPECT_EQ(h.node(1).active_config().voters, std::vector<NodeId>({1}));
  EXPECT_EQ(h.node(1).term(), term + 1);
  EXPECT_EQ(h.node(1).stats().prevote_rounds, 1u);
  EXPECT_EQ(h.node(1).stats().elections_started, 1u);
}

// On a zero-latency disk a lone voter's entry is durable, and so committed,
// inside its own append. A lone voter adding a second one then commits the
// learner entry and the promotion each as it appends them, and promotes once.
TEST(RaftNodeTest, LoneVoterPromotesItsLearnerOnce) {
  RaftOptions opts;
  opts.initial_voters = 1;
  RaftHarness h(2, opts);
  h.StartAll();
  ASSERT_EQ(h.Leader(), 0);
  ASSERT_TRUE(h.node(0).StartAddServer(1));
  h.Run(Millis(5));
  EXPECT_EQ(h.node(0).active_config().voters, std::vector<NodeId>({0, 1}));
  EXPECT_EQ(h.node(0).stats().learners_promoted, 1u);
  EXPECT_EQ(h.node(0).stats().config_changes_committed, 2u);
  EXPECT_EQ(h.node(1).committed_config_idx(), h.node(0).committed_config_idx());
}

// A vote is granted only at the voter's own term, and once per term. Node 2
// voted for leader 0 in term t. It then refuses a candidate at an older term
// and a second candidate at t, though both offer a log as up to date as its
// own, and repeats its vote to the candidate it chose.
TEST(RaftNodeTest, AVoteIsGrantedOncePerTermAndOnlyAtTheVotersTerm) {
  RaftOptions opts;
  opts.check_quorum = false;  // no leader stickiness: node 2 weighs every request
  RaftHarness h(3, opts);
  h.StartAll();
  ASSERT_EQ(h.WaitForLeader(), 0);
  h.Run(Millis(2));
  const Term term = h.node(2).term();
  std::vector<bool> granted;
  h.drop_filter = [&granted](NodeId from, NodeId, const Message& m) {
    if (from == 2 && m.kind() == MessageKind::kVoteRep) {
      granted.push_back(static_cast<const RequestVoteRep&>(m).granted());
    }
    return false;
  };
  const RaftLog& log = h.node(2).log();
  for (const auto& [t, candidate] : {std::pair<Term, NodeId>{term - 1, 0}, {term, 1}, {term, 0}}) {
    h.Inject(2, RequestVoteReq(t, candidate, log.last_index(), log.last_term()));
  }
  EXPECT_EQ(granted, std::vector<bool>({false, false, true}));
  EXPECT_EQ(h.node(2).term(), term);
}

// Only voters of the active config count toward an election quorum. Voters
// 1 and 2 are down while node 0 campaigns: a granted vote from node 3, a
// spare outside the config, leaves it a candidate; one from voter 1 elects it.
TEST(RaftNodeTest, AVoteFromANonVoterDoesNotCount) {
  RaftOptions opts;
  opts.initial_voters = 3;
  opts.pre_vote = false;  // node 0 campaigns at its first timeout
  RaftHarness h(4, opts);
  h.Kill(1);
  h.Kill(2);
  h.StartAll();
  while (h.node(0).role() != RaftRole::kCandidate && h.sim.Step()) {
  }
  const Term term = h.node(0).term();
  h.Inject(0, RequestVoteRep(3, term, /*granted=*/true));
  EXPECT_EQ(h.node(0).role(), RaftRole::kCandidate);
  h.Inject(0, RequestVoteRep(1, term, /*granted=*/true));
  EXPECT_TRUE(h.node(0).IsLeader());
}

// ---------------------------------------------------------------------------
// Replication
// ---------------------------------------------------------------------------

TEST(RaftNodeTest, CommitsAndAppliesInOrderOnAllNodes) {
  RaftHarness h(3);
  h.StartAll();
  const NodeId leader = h.WaitForLeader();
  for (uint64_t i = 1; i <= 10; ++i) {
    EXPECT_TRUE(h.node(leader).SubmitRequest(RaftHarness::Req(1, i)));
  }
  h.Run(Millis(100));
  for (NodeId n = 0; n < 3; ++n) {
    ASSERT_EQ(h.env(n).applied_rids.size(), 10u) << "node " << n;
    for (uint64_t i = 0; i < 10; ++i) {
      EXPECT_EQ(h.env(n).applied_rids[i].seq, i + 1) << "node " << n;
    }
  }
}

TEST(RaftNodeTest, FollowerRejectsSubmit) {
  RaftHarness h(3);
  h.StartAll();
  const NodeId leader = h.WaitForLeader();
  const NodeId follower = (leader + 1) % 3;
  EXPECT_FALSE(h.node(follower).SubmitRequest(RaftHarness::Req(1, 1)));
  EXPECT_EQ(h.node(follower).stats().submits_rejected, 1u);
}

TEST(RaftNodeTest, DuplicateSubmitRejected) {
  RaftHarness h(3);
  h.StartAll();
  const NodeId leader = h.WaitForLeader();
  EXPECT_TRUE(h.node(leader).SubmitRequest(RaftHarness::Req(1, 7)));
  EXPECT_FALSE(h.node(leader).SubmitRequest(RaftHarness::Req(1, 7)));
}

TEST(RaftNodeTest, LaggingFollowerCatchesUpAfterPartition) {
  RaftHarness h(3);
  h.StartAll();
  const NodeId leader = h.WaitForLeader();
  const NodeId slow = (leader + 1) % 3;
  h.drop_filter = [slow](NodeId, NodeId to, const Message&) { return to == slow; };
  for (uint64_t i = 1; i <= 20; ++i) {
    h.node(leader).SubmitRequest(RaftHarness::Req(1, i));
  }
  h.Run(Millis(100));
  EXPECT_EQ(h.env(slow).applied_rids.size(), 0u);
  // Heal; heartbeats retransmit and the follower catches up.
  h.drop_filter = nullptr;
  h.Run(Millis(200));
  EXPECT_EQ(h.env(slow).applied_rids.size(), 20u);
  EXPECT_EQ(h.node(slow).commit_index(), h.node(leader).commit_index());
}

TEST(RaftNodeTest, LostAppendEntriesRetransmittedByHeartbeat) {
  RaftHarness h(3);
  h.StartAll();
  const NodeId leader = h.WaitForLeader();
  // Drop the next AE burst entirely, once.
  int drops = 0;
  h.drop_filter = [&drops](NodeId, NodeId, const Message& m) {
    if (m.kind() == MessageKind::kAeReq && drops < 2) {
      ++drops;
      return true;
    }
    return false;
  };
  h.node(leader).SubmitRequest(RaftHarness::Req(1, 1));
  h.Run(Millis(100));
  for (NodeId n = 0; n < 3; ++n) {
    EXPECT_EQ(h.env(n).applied_rids.size(), 1u) << "node " << n;
  }
}

TEST(RaftNodeTest, DeposedLeaderTruncatesConflictingSuffix) {
  RaftHarness h(3);
  h.StartAll();
  const NodeId first = h.WaitForLeader();
  // Partition the leader away from both followers, then feed it requests it
  // can never commit.
  h.drop_filter = [first](NodeId from, NodeId to, const Message&) {
    return from == first || to == first;
  };
  for (uint64_t i = 1; i <= 5; ++i) {
    h.node(first).SubmitRequest(RaftHarness::Req(9, i));
  }
  h.Run(Millis(300));  // followers elect a new leader meanwhile
  // The partitioned old leader still believes it leads; find the leader the
  // connected majority elected.
  NodeId second = kInvalidNode;
  for (NodeId n = 0; n < 3; ++n) {
    if (n != first && h.node(n).IsLeader()) {
      second = n;
    }
  }
  ASSERT_NE(second, kInvalidNode);
  ASSERT_NE(second, first);
  // New leader commits different entries.
  for (uint64_t i = 1; i <= 3; ++i) {
    h.node(second).SubmitRequest(RaftHarness::Req(8, i));
  }
  h.Run(Millis(100));
  // Heal the partition; the old leader must adopt the new history.
  h.drop_filter = nullptr;
  h.Run(Millis(300));
  EXPECT_FALSE(h.node(first).IsLeader());
  EXPECT_EQ(h.node(first).commit_index(), h.node(second).commit_index());
  ASSERT_GE(h.env(first).applied_rids.size(), 3u);
  for (size_t i = 0; i < h.env(second).applied_rids.size(); ++i) {
    EXPECT_EQ(h.env(first).applied_rids[i], h.env(second).applied_rids[i]);
  }
}

// ---------------------------------------------------------------------------
// HovercRaft metadata mode + recovery
// ---------------------------------------------------------------------------

RaftOptions MetadataOptions() {
  RaftOptions opts;
  opts.metadata_only = true;
  return opts;
}

TEST(RaftNodeTest, MetadataModeResolvesFromUnorderedSet) {
  RaftHarness h(3, MetadataOptions());
  h.StartAll();
  const NodeId leader = h.WaitForLeader();
  // Simulate the client multicast: all nodes got the payload.
  for (uint64_t i = 1; i <= 5; ++i) {
    auto req = RaftHarness::Req(1, i);
    for (NodeId n = 0; n < 3; ++n) {
      if (n != leader) {
        h.env(n).AddUnordered(req);
      }
    }
    h.node(leader).SubmitRequest(req);
  }
  h.Run(Millis(100));
  for (NodeId n = 0; n < 3; ++n) {
    EXPECT_EQ(h.env(n).applied_rids.size(), 5u) << "node " << n;
  }
}

TEST(RaftNodeTest, MissingPayloadRecoveredFromLeader) {
  RaftHarness h(3, MetadataOptions());
  h.StartAll();
  const NodeId leader = h.WaitForLeader();
  const NodeId starved = (leader + 1) % 3;
  const NodeId healthy = (leader + 2) % 3;
  // The starved follower missed the client multicast for request 1.
  auto req = RaftHarness::Req(1, 1);
  h.env(healthy).AddUnordered(req);
  h.node(leader).SubmitRequest(req);
  h.Run(Millis(100));
  // It must have fetched the payload point-to-point and applied it.
  EXPECT_EQ(h.env(starved).applied_rids.size(), 1u);
  EXPECT_GE(h.node(starved).stats().recoveries_requested, 1u);
  EXPECT_GE(h.node(leader).stats().recoveries_served, 1u);
  EXPECT_EQ(h.node(starved).commit_index(), h.node(leader).commit_index());
}

TEST(RaftNodeTest, NewLeaderDrainsUnorderedRequests) {
  RaftHarness h(3, MetadataOptions());
  h.StartAll();
  const NodeId first = h.WaitForLeader();
  // A request reached the followers but the leader died before ordering it.
  auto req = RaftHarness::Req(1, 42);
  for (NodeId n = 0; n < 3; ++n) {
    if (n != first) {
      h.env(n).AddUnordered(req);
    }
  }
  h.Kill(first);
  h.Run(Millis(400));
  const NodeId second = h.Leader();
  ASSERT_NE(second, kInvalidNode);
  // The new leader ordered the orphaned request; both survivors applied it.
  EXPECT_EQ(h.env(second).applied_rids.size(), 1u);
  EXPECT_EQ(h.env(second).applied_rids[0].seq, 42u);
}

TEST(RaftNodeTest, RecoveryForUnknownRequestReturnsNotFound) {
  RaftHarness h(3, MetadataOptions());
  h.StartAll();
  const NodeId leader = h.WaitForLeader();
  const NodeId asker = (leader + 1) % 3;
  // A rid the leader has never seen: neither in its log nor its unordered set.
  const RequestId unknown{7, 999};
  h.Inject(leader, RecoveryReq(asker, unknown));
  h.Run(Millis(50));
  // The leader answered found() == false and counted no served recovery...
  EXPECT_EQ(h.node(leader).stats().recoveries_served, 0u);
  // ...and the asker stored nothing: a not-found reply leaves no state behind.
  EXPECT_EQ(h.env(asker).unordered.Lookup(unknown), nullptr);
  // The exchange was harmless: normal replication still works afterwards.
  auto req = RaftHarness::Req(1, 1);
  for (NodeId n = 0; n < 3; ++n) {
    if (n != leader) {
      h.env(n).AddUnordered(req);
    }
  }
  h.node(leader).SubmitRequest(req);
  h.Run(Millis(100));
  EXPECT_EQ(h.env(asker).applied_rids.size(), 1u);
}

TEST(RaftNodeTest, DuplicateRecoveryRepliesAreIdempotent) {
  RaftHarness h(3, MetadataOptions());
  h.StartAll();
  const NodeId leader = h.WaitForLeader();
  const NodeId starved = (leader + 1) % 3;
  const NodeId healthy = (leader + 2) % 3;
  // Same setup as MissingPayloadRecoveredFromLeader: the starved follower
  // misses the multicast and recovers the payload point-to-point.
  auto req = RaftHarness::Req(1, 1);
  h.env(healthy).AddUnordered(req);
  h.node(leader).SubmitRequest(req);
  h.Run(Millis(100));
  ASSERT_EQ(h.env(starved).applied_rids.size(), 1u);
  const LogIndex commit_before = h.node(starved).commit_index();
  // Heartbeat-driven retries can deliver the same recovery reply again after
  // the first already unblocked the follower. Late duplicates must be inert.
  h.Inject(starved, RecoveryRep(req->rid(), req));
  h.Inject(starved, RecoveryRep(req->rid(), req));
  h.Run(Millis(100));
  EXPECT_EQ(h.env(starved).applied_rids.size(), 1u);
  EXPECT_GE(h.node(starved).commit_index(), commit_before);
  EXPECT_EQ(h.node(starved).commit_index(), h.node(leader).commit_index());
}

TEST(RaftNodeTest, CompactionPreservesReplication) {
  RaftOptions opts;
  opts.log_retention_entries = 8;
  RaftHarness h(3, opts);
  h.StartAll();
  const NodeId leader = h.WaitForLeader();
  for (uint64_t i = 1; i <= 30; ++i) {
    h.node(leader).SubmitRequest(RaftHarness::Req(1, i));
  }
  h.Run(Millis(100));
  // Compact everywhere at the safe bound.
  for (NodeId n = 0; n < 3; ++n) {
    h.node(n).CompactLog(h.node(n).MinAppliedKnown());
  }
  EXPECT_GT(h.node(leader).log().first_index(), 1u);
  // The cluster keeps working after compaction.
  for (uint64_t i = 31; i <= 40; ++i) {
    h.node(leader).SubmitRequest(RaftHarness::Req(1, i));
  }
  h.Run(Millis(100));
  for (NodeId n = 0; n < 3; ++n) {
    EXPECT_EQ(h.env(n).applied_rids.size(), 40u) << "node " << n;
  }
}

// ---------------------------------------------------------------------------
// Regression tests for pipelining + heartbeat interaction
// ---------------------------------------------------------------------------

// An actively flowing stream must not be rewound by heartbeats: the number
// of append_entries sent should be close to entries/batch, not dominated by
// per-heartbeat retransmissions of the in-flight window.
TEST(RaftNodeTest, HeartbeatDoesNotRetransmitActiveStream) {
  RaftHarness h(3);
  h.StartAll();
  const NodeId leader = h.WaitForLeader();
  const uint64_t ae_before = h.node(leader).stats().ae_sent;
  // Submit steadily for 100ms (100 heartbeat intervals).
  for (int burst = 0; burst < 100; ++burst) {
    h.sim.After(Millis(burst), [&h, leader, burst]() {
      for (uint64_t i = 0; i < 10; ++i) {
        h.node(leader).SubmitRequest(
            RaftHarness::Req(1, static_cast<uint64_t>(burst) * 10 + i + 1));
      }
    });
  }
  h.Run(Millis(150));
  const uint64_t ae_sent = h.node(leader).stats().ae_sent - ae_before;
  // 1000 entries, 2 followers. Per-burst sends (eager, small batches) are
  // expected; a heartbeat retransmission storm would multiply this by the
  // in-flight window every millisecond.
  EXPECT_LT(ae_sent, 1200u);
  for (NodeId n = 0; n < 3; ++n) {
    EXPECT_EQ(h.env(n).applied_rids.size(), 1000u) << "node " << n;
  }
}

// A halted ("crashed") node must not start elections, and must rejoin as a
// follower without disrupting the stable leader on resume.
TEST(RaftNodeTest, HaltedNodeDoesNotInflateTerms) {
  RaftHarness h(3);
  h.StartAll();
  const NodeId leader = h.WaitForLeader();
  const Term stable_term = h.node(leader).term();
  const NodeId victim = (leader + 1) % 3;
  h.Crash(victim);
  h.Run(Millis(500));  // dozens of election timeouts
  EXPECT_EQ(h.node(victim).term(), stable_term);
  EXPECT_NE(h.node(victim).role(), RaftRole::kCandidate);
  // Revive: it rejoins as a follower and catches up without an election.
  h.Restart(victim);
  h.node(leader).SubmitRequest(RaftHarness::Req(2, 1));
  h.Run(Millis(100));
  EXPECT_EQ(h.Leader(), leader);
  EXPECT_EQ(h.node(leader).term(), stable_term);
  EXPECT_EQ(h.env(victim).applied_rids.size(), 1u);
}

// ---------------------------------------------------------------------------
// Adversarial hardening: PreVote, CheckQuorum, ReadIndex (docs/hardening.md)
// ---------------------------------------------------------------------------

RaftOptions WithDefenses(bool pre_vote, bool check_quorum) {
  RaftOptions opts;
  opts.pre_vote = pre_vote;
  opts.check_quorum = check_quorum;
  return opts;
}

// The heart of PreVote: a pre-candidate polls without mutating anything. An
// isolated follower runs pre-election after pre-election, never increments
// its term, never becomes a real candidate — and rejoins harmlessly.
TEST(RaftNodeTest, PreCandidateNeverIncrementsTerm) {
  RaftHarness h(3);
  h.StartAll();
  const NodeId leader = h.WaitForLeader();
  const Term stable_term = h.node(leader).term();
  const NodeId victim = (leader + 1) % 3;
  h.drop_filter = [victim](NodeId from, NodeId to, const Message&) {
    return from == victim || to == victim;
  };
  h.Run(Millis(500));  // dozens of election timeouts in the dark
  EXPECT_EQ(h.node(victim).term(), stable_term);
  EXPECT_EQ(h.node(victim).stats().elections_started, 0u);
  EXPECT_GT(h.node(victim).stats().prevote_rounds, 5u);
  EXPECT_NE(h.node(victim).role(), RaftRole::kCandidate);
  // Rejoin: nothing happened. Same leader, same term, no election.
  h.drop_filter = nullptr;
  h.Run(Millis(100));
  EXPECT_EQ(h.Leader(), leader);
  EXPECT_EQ(h.node(leader).term(), stable_term);
  EXPECT_EQ(h.node(victim).term(), stable_term);
}

// Control: the identical isolation without PreVote inflates the victim's
// term, and the rejoin deposes a perfectly healthy leader — the disruption
// PreVote exists to prevent.
TEST(RaftNodeTest, RejoinDisruptsLeaderWithoutPreVote) {
  RaftHarness h(3, WithDefenses(/*pre_vote=*/false, /*check_quorum=*/true));
  h.StartAll();
  const NodeId leader = h.WaitForLeader();
  const Term stable_term = h.node(leader).term();
  const NodeId victim = (leader + 1) % 3;
  h.drop_filter = [victim](NodeId from, NodeId to, const Message&) {
    return from == victim || to == victim;
  };
  h.Run(Millis(500));
  EXPECT_GT(h.node(victim).term(), stable_term + 3);  // term storm in the dark
  h.drop_filter = nullptr;
  h.Run(Millis(300));
  // The inflated term tore down the leader (via its own AppendEntries being
  // rejected at the higher term); the cluster had to re-elect.
  uint64_t total_wins = 0;
  for (NodeId n = 0; n < 3; ++n) {
    total_wins += h.node(n).stats().times_leader;
  }
  EXPECT_GE(total_wins, 2u);
  ASSERT_NE(h.Leader(), kInvalidNode);
  EXPECT_GT(h.node(h.Leader()).term(), stable_term);
}

// A pre-candidate with a stale log loses the poll and never campaigns for
// real: the up-to-date follower takes over after the leader dies.
TEST(RaftNodeTest, PreElectionLostOnStaleLog) {
  RaftHarness h(3);
  h.StartAll();
  const NodeId leader = h.WaitForLeader();
  // Commit entries everywhere except node 2.
  h.drop_filter = [](NodeId, NodeId to, const Message&) { return to == 2; };
  for (uint64_t i = 1; i <= 5; ++i) {
    h.node(leader).SubmitRequest(RaftHarness::Req(1, i));
  }
  h.Run(Millis(50));
  ASSERT_GT(h.node(leader).commit_index(), 0u);
  h.drop_filter = nullptr;
  h.Kill(leader);
  h.Run(Millis(500));
  const NodeId second = h.Leader();
  ASSERT_NE(second, kInvalidNode);
  EXPECT_NE(second, 2);
  EXPECT_GE(h.node(second).log().last_index(), 5u);
  // The stale node polled at least once, was refused on log freshness, and
  // never started a term-bumping election of its own.
  EXPECT_GE(h.node(2).stats().prevote_rounds, 1u);
  EXPECT_EQ(h.node(2).stats().elections_started, 0u);
}

// RNG-draw parity: PreVote must not perturb the election-timer draw order
// (one draw per arm, poll outcomes routed synchronously), so the same seeds
// produce the same first leader at the same term with the defense on or off.
TEST(RaftNodeTest, PreVotePreservesElectionTimeline) {
  RaftHarness with(3, WithDefenses(true, true));
  RaftHarness without(3, WithDefenses(false, true));
  with.StartAll();
  without.StartAll();
  const NodeId leader_with = with.WaitForLeader();
  const NodeId leader_without = without.WaitForLeader();
  EXPECT_EQ(leader_with, leader_without);
  EXPECT_EQ(with.node(leader_with).term(), without.node(leader_without).term());
  with.Run(Millis(300));
  without.Run(Millis(300));
  EXPECT_EQ(with.Leader(), without.Leader());
  EXPECT_EQ(with.node(leader_with).term(), without.node(leader_without).term());
  EXPECT_EQ(with.node(leader_with).stats().elections_started,
            without.node(leader_without).stats().elections_started);
  // The pre-vote run actually used the pre-election path.
  EXPECT_GE(with.node(leader_with).stats().prevote_rounds, 1u);
  EXPECT_EQ(without.node(leader_without).stats().prevote_rounds, 0u);
}

// CheckQuorum: a leader that cannot reach a quorum steps down on its own
// within the evaluation window instead of shouting into the void forever.
TEST(RaftNodeTest, CheckQuorumLeaderStepsDownWhenCutOff) {
  RaftHarness h(3);
  h.StartAll();
  const NodeId leader = h.WaitForLeader();
  h.drop_filter = [leader](NodeId from, NodeId to, const Message&) {
    return from == leader || to == leader;
  };
  h.Run(Millis(100));
  EXPECT_NE(h.node(leader).role(), RaftRole::kLeader);
  EXPECT_EQ(h.node(leader).stats().stepdowns_check_quorum, 1u);
  // Stepping down inside a heartbeat tick leaves no heartbeat armed.
  EXPECT_EQ(h.idle_heartbeats, 0u);
  // The connected majority elected a replacement meanwhile.
  const NodeId second = h.Leader();
  ASSERT_NE(second, kInvalidNode);
  EXPECT_NE(second, leader);
}

// Leader stickiness: a forged RequestVote at an absurd term — injected
// straight into every node, bypassing the network — is ignored by followers
// hearing a live leader and by the leader holding quorum contact.
TEST(RaftNodeTest, ForgedVoteIgnoredUnderStickiness) {
  RaftHarness h(3);
  h.StartAll();
  const NodeId leader = h.WaitForLeader();
  h.Run(Millis(20));  // let heartbeat replies build quorum evidence
  const Term stable_term = h.node(leader).term();
  const NodeId forged_id = (leader + 1) % 3;
  const RequestVoteReq forged(stable_term + 100, forged_id, 0, 0);
  for (NodeId n = 0; n < 3; ++n) {
    h.Inject(n, forged);
    EXPECT_GE(h.node(n).stats().votes_ignored_sticky, 1u) << "node " << n;
  }
  h.Run(Millis(100));
  EXPECT_EQ(h.Leader(), leader);
  EXPECT_EQ(h.node(leader).term(), stable_term);
}

// Control: without CheckQuorum the same forged packet adopts the inflated
// term everywhere and deposes the leader, even though the "candidate" holds
// no log and could never win.
TEST(RaftNodeTest, ForgedVoteDeposesLeaderWithoutStickiness) {
  RaftHarness h(3, WithDefenses(/*pre_vote=*/true, /*check_quorum=*/false));
  h.StartAll();
  const NodeId leader = h.WaitForLeader();
  const Term stable_term = h.node(leader).term();
  const NodeId forged_id = (leader + 1) % 3;
  const RequestVoteReq forged(stable_term + 100, forged_id, 0, 0);
  for (NodeId n = 0; n < 3; ++n) {
    h.Inject(n, forged);
  }
  EXPECT_NE(h.node(leader).role(), RaftRole::kLeader);
  EXPECT_GE(h.node(leader).term(), stable_term + 100);
  // Liveness recovers — at an inflated term, which is the disruption.
  h.Run(Millis(300));
  ASSERT_NE(h.Leader(), kInvalidNode);
  EXPECT_GT(h.node(h.Leader()).term(), stable_term + 100);
}

// Election-timer skew: a follower whose timer fires below the heartbeat
// interval keeps losing pre-elections against a live leader; no term moves.
TEST(RaftNodeTest, SkewedTimerCannotDisruptWithPreVote) {
  RaftHarness h(3);
  h.StartAll();
  const NodeId leader = h.WaitForLeader();
  const Term stable_term = h.node(leader).term();
  const NodeId victim = (leader + 1) % 3;
  h.node(victim).SkewElectionTimer(0.1);  // ~0.5-0.7ms vs 1ms heartbeats
  h.Run(Millis(300));
  EXPECT_EQ(h.Leader(), leader);
  EXPECT_EQ(h.node(leader).term(), stable_term);
  EXPECT_EQ(h.node(victim).stats().elections_started, 0u);
  EXPECT_GE(h.node(victim).stats().prevote_rounds, 1u);
  h.node(victim).SkewElectionTimer(1.0);
  h.Run(Millis(100));
  EXPECT_EQ(h.Leader(), leader);
}

// A timer fired by hand: five election timeouts of node 2 while node 0 leads
// are five pre-vote polls that the leader and its follower refuse, so no
// term moves.
TEST(RaftNodeTest, HandFiredElectionTimerCannotDisruptALiveLeader) {
  RaftHarness h(3, WithDefenses(/*pre_vote=*/true, /*check_quorum=*/true));
  h.StartAll();
  ASSERT_EQ(h.WaitForLeader(), 0);
  h.Run(Millis(5));  // both followers hear the leader
  const Term term = h.node(0).term();
  for (int i = 0; i < 5; ++i) {
    h.FireTimer(2, RaftTimer::kElection);
    h.Run(Micros(100));
  }
  for (NodeId n = 0; n < 3; ++n) {
    EXPECT_EQ(h.node(n).term(), term) << "node " << n;
  }
  EXPECT_EQ(h.Leader(), 0);
  EXPECT_EQ(h.node(2).stats().prevote_rounds, 5u);
  EXPECT_EQ(h.node(2).stats().elections_started, 0u);
}

// A timer fired by hand chooses who campaigns and when. Node 0 crashes; node
// 1 stops counting it as live 10 ms after it last heard it, and node 2's
// hand-fired poll wins then. Left alone, node 2 refuses every poll until 15
// ms without the leader and its own timer fires no earlier than 14 ms after
// the crash, so no election could have been won yet.
TEST(RaftNodeTest, HandFiredElectionTimerElectsBeforeAnyTimeoutCould) {
  RaftHarness h(3, WithDefenses(/*pre_vote=*/true, /*check_quorum=*/true));
  h.StartAll();
  ASSERT_EQ(h.WaitForLeader(), 0);
  h.Run(Millis(20));
  const Term term = h.node(0).term();
  h.Crash(0);
  const TimeNs crashed = h.sim.Now();
  h.Run(Millis(10) + Micros(50));
  h.FireTimer(2, RaftTimer::kElection);
  h.Run(Micros(50));  // a poll and a vote: four 2 us hops
  EXPECT_EQ(h.Leader(), 2);
  EXPECT_EQ(h.node(2).term(), term + 1);
  EXPECT_LT(h.sim.Now() - crashed, Millis(14));
  EXPECT_EQ(h.node(2).stats().prevote_rounds, 1u);
  EXPECT_EQ(h.node(2).stats().elections_started, 1u);
}

// ReadIndex: the leader serves a linearizable read at its commit index
// without appending anything; followers refuse.
TEST(RaftNodeTest, ReadIndexGrantsAtCommitWithoutLogGrowth) {
  RaftOptions opts;
  opts.read_index = true;
  RaftHarness h(3, opts);
  h.StartAll();
  const NodeId leader = h.WaitForLeader();
  for (uint64_t i = 1; i <= 3; ++i) {
    h.node(leader).SubmitRequest(RaftHarness::Req(1, i));
  }
  h.Run(Millis(50));
  const LogIndex log_before = h.node(leader).log().last_index();
  const RaftNode::ReadGrant grant = h.node(leader).AcquireReadIndex();
  ASSERT_TRUE(grant.granted);
  EXPECT_EQ(grant.read_index, h.node(leader).commit_index());
  EXPECT_EQ(h.node(leader).log().last_index(), log_before);  // no entry appended
  EXPECT_EQ(h.node(leader).stats().read_index_served, 1u);
  const NodeId follower = (leader + 1) % 3;
  EXPECT_FALSE(h.node(follower).AcquireReadIndex().granted);
}

// The lease is strict: a leader cut off from its quorum stops granting reads
// once election_timeout_min passes — exactly when a new leader could exist.
// With a skewed (widened) lease it would keep serving; that unsafe
// configuration is the stale-read control the chaos battery runs.
TEST(RaftNodeTest, ReadLeaseExpiresWithoutQuorumContact) {
  RaftOptions opts;
  opts.read_index = true;
  opts.check_quorum = false;  // isolate lease behaviour from stepdown
  RaftHarness strict(3, opts);
  strict.StartAll();
  const NodeId leader = strict.WaitForLeader();
  strict.node(leader).SubmitRequest(RaftHarness::Req(1, 1));
  strict.Run(Millis(5));
  ASSERT_TRUE(strict.node(leader).AcquireReadIndex().granted);
  strict.drop_filter = [leader](NodeId from, NodeId to, const Message&) {
    return from == leader || to == leader;
  };
  strict.Run(Millis(30));  // well past election_timeout_min
  EXPECT_TRUE(strict.node(leader).IsLeader());  // no CheckQuorum: still "leads"
  EXPECT_FALSE(strict.node(leader).AcquireReadIndex().granted);
  EXPECT_GE(strict.node(leader).stats().read_index_rejected, 1u);

  opts.read_lease_timeout = Seconds(10);  // skewed lease: evidence never ages
  RaftHarness skewed(3, opts);
  skewed.StartAll();
  const NodeId leader2 = skewed.WaitForLeader();
  skewed.node(leader2).SubmitRequest(RaftHarness::Req(1, 1));
  skewed.Run(Millis(5));
  skewed.drop_filter = [leader2](NodeId from, NodeId to, const Message&) {
    return from == leader2 || to == leader2;
  };
  skewed.Run(Millis(30));
  EXPECT_TRUE(skewed.node(leader2).AcquireReadIndex().granted);  // the hazard
}

// A new leader grants no read before an entry of its own term commits (Raft
// section 8): until then its commit index may lag its predecessor's. Node 0
// commits a write that node 1 alone also holds, and crashes before node 1
// learns the commit. Node 1 wins the election with node 2's vote. Node 2
// lacks the write, so it refuses node 1's first append and its acks are then
// lost: node 1 has heard from a quorum inside the lease, but its no-op does
// not commit and its commit index lies below the write. A read granted now
// would miss the write.
TEST(RaftNodeTest, NewLeaderGrantsNoReadBeforeAnOwnTermEntryCommits) {
  RaftOptions opts;
  opts.read_index = true;
  RaftHarness h(3, opts);
  h.StartAll();
  ASSERT_EQ(h.WaitForLeader(), 0);
  h.Run(Millis(2));
  ASSERT_EQ(h.node(2).commit_index(), 1u);

  h.drop_filter = [](NodeId from, NodeId to, const Message& m) {
    const auto* ae = As<AppendEntriesReq>(m);
    return from == 0 && (to == 2 || (ae != nullptr && ae->leader_commit() >= 2));
  };
  ASSERT_TRUE(h.node(0).SubmitRequest(RaftHarness::Req(1, 1)));
  while (h.node(0).commit_index() < 2 && h.sim.Step()) {
  }
  ASSERT_EQ(h.node(0).commit_index(), 2u);
  h.Crash(0);
  ASSERT_EQ(h.node(1).log().last_index(), 2u);
  ASSERT_EQ(h.node(1).commit_index(), 1u);

  bool refused = false;
  h.drop_filter = [&refused](NodeId from, NodeId, const Message& m) {
    const auto* rep = As<AppendEntriesRep>(m);
    if (from != 2 || rep == nullptr) {
      return false;
    }
    refused = refused || !rep->success();
    return rep->success();
  };
  ASSERT_EQ(h.WaitForLeader(h.sim.Now() + Millis(100)), 1);
  while (!refused && h.sim.Step()) {
  }
  h.Run(Micros(10));
  ASSERT_TRUE(h.node(1).QuorumContactedSince(h.sim.Now() - Micros(20)));
  ASSERT_EQ(h.node(1).commit_index(), 1u);
  const RaftNode::ReadGrant grant = h.node(1).AcquireReadIndex();
  EXPECT_FALSE(grant.granted) << "granted at read index " << grant.read_index;
  EXPECT_GE(h.node(1).stats().read_index_rejected, 1u);
}

// Read leases do not survive a membership change. Node 3 joins as a learner
// and is promoted; node 2 is cut off throughout, and node 1 acks the
// promotion entry and is then cut off too, so the promotion commits on node
// 3's ack. Right after that commit only the leader and node 3 have responded
// under the new voter set, two of four, and the read is refused, although
// node 1's earlier response is still inside the lease window and would make
// a quorum of three with them. Once node 1 responds again, reads resume.
TEST(RaftNodeTest, ConfigCommitFencesTheReadLease) {
  RaftOptions opts;
  opts.read_index = true;
  opts.check_quorum = false;  // isolate lease behaviour from stepdown
  opts.initial_voters = 3;
  RaftHarness h(4, opts);
  h.StartAll();
  const NodeId leader = h.WaitForLeader();
  ASSERT_EQ(leader, 0);
  h.node(leader).SubmitRequest(RaftHarness::Req(1, 1));
  h.Run(Millis(5));
  ASSERT_TRUE(h.node(leader).AcquireReadIndex().granted);

  bool node1_cut = false;
  bool hold_learner = true;  // until node 1 alone holds the promotion entry
  h.drop_filter = [&](NodeId from, NodeId to, const Message&) {
    if (from == 2 || to == 2 || (node1_cut && (from == 1 || to == 1))) {
      return true;
    }
    const bool promoted = h.node(leader).active_config().voters.size() == 4;
    return hold_learner && promoted && (from == 3 || to == 3);
  };
  const uint64_t committed_before = h.node(leader).stats().config_changes_committed;
  ASSERT_TRUE(h.node(leader).StartAddServer(3));
  while (h.node(leader).active_config().voters.size() < 4 && h.sim.Step()) {
  }
  ASSERT_EQ(h.node(leader).stats().config_changes_committed, committed_before + 1);
  h.Run(Micros(200));  // node 1 acks the promotion entry
  node1_cut = true;
  hold_learner = false;
  while (h.node(leader).stats().config_changes_committed < committed_before + 2 &&
         h.sim.Step()) {
  }
  ASSERT_EQ(h.node(leader).stats().config_changes_committed, committed_before + 2);
  EXPECT_FALSE(h.node(leader).AcquireReadIndex().granted);

  node1_cut = false;
  h.Run(Millis(3));
  EXPECT_TRUE(h.node(leader).AcquireReadIndex().granted);
}

// A follower whose hint lies below the leader's compaction point must be
// repaired by snapshot (triggered from the failure-reply path, not only
// from heartbeats).
TEST(RaftNodeTest, FailureReplyBelowCompactionTriggersSnapshot) {
  RaftOptions opts;
  opts.log_retention_entries = 8;
  RaftHarness h(3, opts);
  h.StartAll();
  const NodeId leader = h.WaitForLeader();
  const NodeId straggler = (leader + 1) % 3;
  h.Crash(straggler);
  for (uint64_t i = 1; i <= 100; ++i) {
    h.node(leader).SubmitRequest(RaftHarness::Req(1, i));
  }
  h.Run(Millis(100));
  // Compact far beyond the straggler's position.
  h.node(leader).CompactLog(h.node(leader).applied_index());
  ASSERT_GT(h.node(leader).log().first_index(), 1u);

  h.Restart(straggler);
  h.Run(Millis(300));
  EXPECT_GE(h.node(leader).stats().snapshots_sent, 1u);
  EXPECT_GE(h.env(straggler).snapshots_restored, 1u);
  EXPECT_EQ(h.node(straggler).commit_index(), h.node(leader).commit_index());
  // The tail beyond the snapshot replicated normally.
  EXPECT_EQ(h.env(straggler).applied_rids.size(), h.env(leader).applied_rids.size());
}

// ---------------------------------------------------------------------------
// Safety rules pinned by scripted schedules
// ---------------------------------------------------------------------------

// Raft's current-term commit rule (section 5.4.2, the Raft paper's Figure 8),
// with five nodes and one entry per append:
//  (a) leader 0 of term t1 writes A at index 2 and reaches only node 1;
//  (b) nodes 0 and 1 crash; node 2 wins the next term with the votes of 3 and
//      4 and writes its no-op at index 2, which reaches nobody;
//  (c) node 2 crashes; node 0 returns, wins a later term and repairs 3 and 4
//      up to A, while its own no-op at index 3 is held back from them. A sits
//      on four nodes, yet it must not commit: no entry of node 0's term is on
//      a majority;
//  (d) nodes 0 and 1 crash again; node 2 returns, wins with 3 and 4 (its last
//      term beats their t1) and overwrites A with its no-op.
// Had node 0 counted replicas of A in (c), nodes 0 and 1 would have applied A
// where nodes 2, 3 and 4 apply node 2's no-op.
TEST(RaftNodeTest, EntryOfAnEarlierTermCommitsOnlyUnderAnOwnTermEntry) {
  RaftOptions opts;
  opts.max_entries_per_ae = 1;
  opts.pre_vote = false;      // a timeout alone moves the term
  opts.check_quorum = false;  // a cut-off leader keeps its role
  RaftHarness h(5, opts);
  auto is_ae = [](const Message& m) { return As<AppendEntriesReq>(m); };
  h.StartAll();
  ASSERT_EQ(h.WaitForLeader(), 0);
  h.Run(Millis(2));
  ASSERT_EQ(h.node(4).commit_index(), 1u);

  // (a)
  h.drop_filter = [](NodeId from, NodeId to, const Message&) { return (from < 2) != (to < 2); };
  ASSERT_TRUE(h.node(0).SubmitRequest(RaftHarness::Req(1, 1)));
  h.Run(Millis(1));
  ASSERT_EQ(h.node(1).log().last_index(), 2u);
  const Term t1 = h.node(0).log().TermAt(2);

  // (b)
  h.Crash(0);
  h.Crash(1);
  h.drop_filter = [is_ae](NodeId from, NodeId, const Message& m) {
    return from == 2 && is_ae(m) != nullptr;
  };
  ASSERT_EQ(h.WaitForLeader(h.sim.Now() + Millis(100)), 2);
  ASSERT_EQ(h.node(2).log().TermAt(2), h.node(2).term());

  // (c)
  h.Crash(2);
  h.Restart(0);
  h.Restart(1);
  h.drop_filter = [is_ae](NodeId from, NodeId to, const Message& m) {
    const AppendEntriesReq* ae = is_ae(m);
    return ae != nullptr && from == 0 && to >= 3 && ae->prev_idx() == 2 &&
           !ae->entries().empty();
  };
  ASSERT_EQ(h.WaitForLeader(h.sim.Now() + Millis(100)), 0);
  const Term t3 = h.node(0).term();
  auto holders = [&h](LogIndex idx, Term term) {
    int count = 0;
    for (NodeId n = 0; n < 5; ++n) {
      const RaftLog& log = h.node(n).log();
      count += log.Contains(idx) && log.TermAt(idx) == term ? 1 : 0;
    }
    return count;
  };
  const TimeNs end = h.sim.Now() + Millis(20);
  while (h.sim.Now() < end && h.sim.Step()) {
    const LogIndex commit = h.node(0).commit_index();
    if (commit >= 2) {
      ASSERT_EQ(h.node(0).log().TermAt(commit), t3) << "commit " << commit;
      ASSERT_GE(holders(commit, t3), 3) << "commit " << commit;
    }
  }
  EXPECT_EQ(holders(2, t1), 4);  // A is on a majority...
  EXPECT_EQ(holders(3, t3), 2);  // ...the leader's own no-op is not...
  EXPECT_EQ(h.node(0).commit_index(), 1u);  // ...so A is not committed

  // (d)
  h.Crash(0);
  h.Crash(1);
  h.Restart(2);
  h.drop_filter = nullptr;
  ASSERT_EQ(h.WaitForLeader(h.sim.Now() + Millis(100)), 2);
  h.Run(Millis(10));
  EXPECT_GE(h.node(3).commit_index(), 3u);
  EXPECT_NE(h.node(3).log().TermAt(2), t1);  // A was overwritten
  h.CheckSafety();
}

// HovercRaft's body-hash check (section 5): append_entries carries metadata
// only, and a follower takes the body from its unordered set. Here one
// follower holds a second body under the rid the leader orders, the forged
// request "From Consensus to Chaos" describes. The follower must discard that
// body, recover the leader's point-to-point and apply it.
TEST(RaftNodeTest, SecondBodyUnderAnOrderedRidIsDiscardedAndRecovered) {
  RaftHarness h(3, MetadataOptions());
  h.StartAll();
  const NodeId leader = h.WaitForLeader();
  const NodeId forged = (leader + 1) % 3;
  const NodeId healthy = (leader + 2) % 3;
  const auto req = RaftHarness::Req(1, 1);
  const auto second = std::make_shared<RpcRequest>(req->rid(), R2p2Policy::kReplicatedReq,
                                                   MakeBody(std::vector<uint8_t>(24, 0xEE)));
  ASSERT_NE(HashRequestBody(*second), HashRequestBody(*req));
  h.env(forged).AddUnordered(second);
  h.env(healthy).AddUnordered(req);
  ASSERT_TRUE(h.node(leader).SubmitRequest(req));
  h.Run(Millis(50));
  EXPECT_GE(h.node(forged).stats().recoveries_requested, 1u);
  for (NodeId n = 0; n < 3; ++n) {
    const auto& applied = h.env(n).applied_at;
    const auto it = std::find_if(applied.begin(), applied.end(),
                                 [&req](const auto& a) { return a.second.rid == req->rid(); });
    ASSERT_NE(it, applied.end()) << "node " << n;
    ASSERT_NE(it->second.request, nullptr) << "node " << n;
    EXPECT_EQ(HashRequestBody(*it->second.request), HashRequestBody(*req)) << "node " << n;
  }
}

// ---------------------------------------------------------------------------
// InstallSnapshot, one arm per test
// ---------------------------------------------------------------------------

// Drops every append_entries to `follower` that tells it a commit index above
// `committed`: it keeps taking entries but never learns they committed.
std::function<bool(NodeId, NodeId, const Message&)> HideCommitsFrom(NodeId follower,
                                                                   LogIndex committed) {
  return [follower, committed](NodeId, NodeId to, const Message& m) {
    const auto* ae = As<AppendEntriesReq>(m);
    return ae != nullptr && to == follower && ae->leader_commit() > committed;
  };
}

// A snapshot from a deposed leader is refused with the receiver's term,
// which is what deposes the sender, and installs nothing.
TEST(RaftNodeTest, StaleInstallSnapshotIsRefusedWithTheCurrentTerm) {
  RaftHarness h(3);
  h.StartAll();
  const NodeId leader = h.WaitForLeader();
  const NodeId follower = (leader + 1) % 3;
  const NodeId deposed = (leader + 2) % 3;
  h.Run(Millis(2));
  const Term term = h.node(follower).term();
  const LogIndex commit = h.node(follower).commit_index();
  std::vector<std::pair<Term, LogIndex>> replies;
  h.drop_filter = [&replies, follower](NodeId from, NodeId, const Message& m) {
    if (const auto* rep = As<InstallSnapshotRep>(m); rep && from == follower) {
      replies.emplace_back(rep->term(), rep->last_included());
    }
    return false;
  };
  h.Inject(follower, InstallSnapshotReq(term - 1, deposed, commit + 50, term - 1,
                                        h.env(leader).CaptureSnapshot().state));
  ASSERT_EQ(replies.size(), 1u);
  EXPECT_EQ(replies[0].first, term);
  EXPECT_EQ(replies[0].second, 0u);
  EXPECT_EQ(h.node(follower).term(), term);
  EXPECT_EQ(h.node(follower).commit_index(), commit);
  EXPECT_EQ(h.node(follower).stats().snapshots_installed, 0u);
  EXPECT_EQ(h.env(follower).snapshots_restored, 0u);
}

// A snapshot that ends inside the follower's log, at an entry of the same
// term, compacts the prefix and keeps the suffix beyond it: the entries stay
// in the log, and their records stay in the WAL.
TEST(RaftNodeTest, InstallSnapshotKeepsAMatchingSuffixAndItsWalRecords) {
  RaftHarness h(3);
  h.StartAll();
  const NodeId leader = h.WaitForLeader();
  const NodeId follower = (leader + 1) % 3;
  h.Run(Millis(2));
  const LogIndex committed = h.node(follower).commit_index();
  h.drop_filter = HideCommitsFrom(follower, committed);
  for (uint64_t i = 1; i <= 4; ++i) {
    h.node(leader).SubmitRequest(RaftHarness::Req(1, i));
  }
  h.Run(Millis(2));
  const RaftLog& log = h.node(follower).log();
  const LogIndex point = committed + 1;
  const LogIndex last = log.last_index();
  ASSERT_EQ(h.node(follower).commit_index(), committed);
  ASSERT_GT(last, point);

  h.Inject(follower, InstallSnapshotReq(h.node(leader).term(), leader, point, log.TermAt(point),
                                        h.env(leader).CaptureSnapshot().state));
  EXPECT_EQ(h.node(follower).stats().snapshots_installed, 1u);
  EXPECT_EQ(h.node(follower).commit_index(), point);
  EXPECT_EQ(log.first_index(), point + 1);
  ASSERT_EQ(log.last_index(), last);
  for (LogIndex idx = point + 1; idx <= last; ++idx) {
    EXPECT_EQ(log.At(idx).rid, h.node(leader).log().At(idx).rid) << "index " << idx;
  }
  const StableStorage::Recovery rec = h.storage(follower).Recover(/*protocol_aware=*/true);
  EXPECT_EQ(rec.base_index, point);
  ASSERT_EQ(rec.entries.size(), last - point);
  for (size_t i = 0; i < rec.entries.size(); ++i) {
    EXPECT_EQ(rec.entries[i].idx, point + 1 + i);
  }
}

// The snapshot's config becomes the follower's committed base, and a config
// entry in the kept suffix stays above it as the active config. Node 3 joins
// and is promoted; the follower then takes a request and the entry removing
// node 3 without hearing they committed, and a snapshot through the request
// arrives.
TEST(RaftNodeTest, InstallSnapshotKeepsConfigsAboveItsPoint) {
  RaftOptions opts;
  opts.initial_voters = 3;
  RaftHarness h(4, opts);
  h.StartAll();
  ASSERT_EQ(h.WaitForLeader(), 0);
  RaftNode& leader = h.node(0);
  RaftNode& follower = h.node(1);
  ASSERT_TRUE(leader.StartAddServer(3));
  h.Run(Millis(5));
  ASSERT_EQ(leader.active_config().voters.size(), 4u);
  const LogIndex promoted = leader.active_config_idx();
  ASSERT_EQ(follower.committed_config_idx(), promoted);
  const LogIndex committed = follower.commit_index();
  h.drop_filter = HideCommitsFrom(1, committed);
  ASSERT_TRUE(leader.SubmitRequest(RaftHarness::Req(1, 1)));
  ASSERT_TRUE(leader.StartRemoveServer(3));
  const LogIndex removal = leader.active_config_idx();
  h.Run(Millis(2));
  const LogIndex point = committed + 1;
  ASSERT_LT(point, removal);
  ASSERT_GE(follower.log().last_index(), removal);
  ASSERT_EQ(follower.active_config_idx(), removal);

  const auto [config_idx, config] = leader.ConfigCoveringIndex(point);
  ASSERT_EQ(config_idx, promoted);
  h.Inject(1, InstallSnapshotReq(leader.term(), 0, point, follower.log().TermAt(point),
                                 h.env(0).CaptureSnapshot().state, config, config_idx));
  EXPECT_EQ(follower.stats().snapshots_installed, 1u);
  EXPECT_EQ(follower.committed_config_idx(), promoted);
  EXPECT_EQ(follower.active_config_idx(), removal);
  EXPECT_EQ(follower.active_config().voters, std::vector<NodeId>({0, 1, 2}));
  EXPECT_EQ(follower.ConfigAt(promoted), config);
  EXPECT_NE(follower.ConfigAt(removal), nullptr);
}

}  // namespace
}  // namespace hovercraft
