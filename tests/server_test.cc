// ReplicatedServer's answer path, one arm per test: leased reads served at a
// forwarded replier (at once, after its apply cursor catches up, or not at
// all when the client multicast missed it), the apply-time and control-entry
// dedup answers, and the admission slot repaid by an ingress redirect. Each
// test drives a whole cluster with a scripted client that sends hand-built
// requests and keeps every answer.
#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/app/kvstore/command.h"
#include "src/app/kvstore/service.h"
#include "src/core/cluster.h"
#include "src/r2p2/shard.h"

namespace hovercraft {
namespace {

class ScriptedClient final : public Host {
 public:
  explicit ScriptedClient(Cluster& cluster)
      : Host(&cluster.sim(), cluster.config().costs, Kind::kServer) {
    cluster.network().Attach(this);
  }

  void HandleMessage(HostId /*src*/, const MessagePtr& msg) override {
    if (const auto* reply = As<RpcResponse>(*msg)) {
      replies.emplace_back(reply->rid().seq, reply->body());
    } else if (const auto* nack = As<WrongShardNack>(*msg)) {
      nacks.push_back(nack->rid().seq);
    }
  }

  std::shared_ptr<const RpcRequest> Request(uint64_t seq, const KvCommand& cmd,
                                            uint32_t attempt = 1,
                                            uint32_t slot = kNoShardSlot) const {
    return std::make_shared<RpcRequest>(
        RequestId{id(), seq},
        cmd.IsReadOnly() ? R2p2Policy::kReplicatedReqRo : R2p2Policy::kReplicatedReq,
        EncodeKvCommand(cmd), attempt, /*ack_watermark=*/0, slot);
  }

  // The first value of every reply to `seq`, in arrival order ("" when the
  // reply carries none, e.g. a miss).
  std::vector<std::string> ValuesFor(uint64_t seq) const {
    std::vector<std::string> out;
    for (const auto& [s, body] : replies) {
      if (s != seq) {
        continue;
      }
      const Result<KvReply> reply = DecodeKvReply(body);
      out.push_back(reply.ok() && !reply.value().values.empty() ? reply.value().values[0] : "");
    }
    return out;
  }

  std::vector<std::pair<uint64_t, Body>> replies;
  std::vector<uint64_t> nacks;
};

KvCommand Set(const std::string& key, const std::string& value) {
  KvCommand cmd;
  cmd.op = KvOpcode::kSet;
  cmd.key = key;
  cmd.value = value;
  return cmd;
}

KvCommand Get(const std::string& key) {
  KvCommand cmd;
  cmd.op = KvOpcode::kGet;
  cmd.key = key;
  return cmd;
}

KvCommand Incr(const std::string& key) {
  KvCommand cmd;
  cmd.op = KvOpcode::kIncr;
  cmd.key = key;
  return cmd;
}

ClusterConfig KvConfig(uint64_t seed) {
  ClusterConfig config;
  config.mode = ClusterMode::kHovercRaft;
  config.nodes = 3;
  config.seed = seed;
  config.replier_policy = ReplierPolicy::kJbsq;
  config.app_factory = []() { return std::make_unique<KvService>(); };
  return config;
}

void RunFor(Cluster& cluster, TimeNs duration) {
  cluster.sim().RunUntil(cluster.sim().Now() + duration);
}

// Orders `request` through the leader's log directly, as a new leader
// re-draining a parked copy would; `allow_duplicate` lets a rid the log
// already holds in again.
void Order(Cluster& cluster, std::shared_ptr<const RpcRequest> request,
           bool allow_duplicate = false) {
  const NodeId leader = cluster.LeaderId();
  ASSERT_NE(leader, kInvalidNode);
  ASSERT_TRUE(cluster.server(leader).raft()->SubmitRequest(std::move(request), allow_duplicate));
}

ShardGroupSpec OwnsEverySlot() {
  ShardGroupSpec spec;
  for (uint32_t slot = 0; slot < kShardSlots; ++slot) {
    spec.owned_slots.push_back(slot);
  }
  return spec;
}

std::shared_ptr<const RpcRequest> ShardCtl(const ScriptedClient& client, uint64_t seq,
                                           ShardOpKind kind, uint32_t lo, uint32_t hi) {
  ShardOp op;
  op.kind = kind;
  op.move_id = 1;
  op.lo = lo;
  op.hi = hi;
  return std::make_shared<RpcRequest>(RequestId{client.id(), seq}, R2p2Policy::kReplicatedReq,
                                      EncodeShardOp(op), 1, 0, kShardCtlSlot);
}

// A lease grant the leader forwards to a caught-up follower is served there.
// A follower whose copy of the client multicast was lost holds no payload
// for the grant and drops it (the client's retransmission would retry).
// Grants rotate over every caught-up voter, so six reads after a quiet
// spell, once the followers have reported their applied index, give each
// follower two.
TEST(ServerAnswerTest, ForwardedLeaseGrantIsServedByItsReplierOrDroppedWithoutPayload) {
  ClusterConfig config = KvConfig(21);
  config.raft.read_index = true;
  Cluster cluster(config);
  const NodeId leader = cluster.WaitForLeader();
  ASSERT_NE(leader, kInvalidNode);
  ScriptedClient client(cluster);
  client.Send(cluster.ClientTarget(), client.Request(1, Set("k", "v1")));
  RunFor(cluster, Millis(10));
  ASSERT_EQ(client.ValuesFor(1).size(), 1u);

  const NodeId served = (leader + 1) % 3;
  const NodeId missed = (leader + 2) % 3;
  cluster.network().BlockLink(cluster.flow_control()->id(), cluster.server_host(missed));
  for (uint64_t seq = 2; seq <= 7; ++seq) {
    client.Send(cluster.ClientTarget(), client.Request(seq, Get("k")));
  }
  RunFor(cluster, Millis(5));

  const ServerStats& ls = cluster.server(leader).server_stats();
  const ServerStats& ss = cluster.server(served).server_stats();
  const ServerStats& ms = cluster.server(missed).server_stats();
  EXPECT_EQ(ls.read_index_local, 2u);
  EXPECT_EQ(ls.read_index_forwarded, 4u);
  EXPECT_EQ(ss.read_index_remote, 2u);
  EXPECT_EQ(ss.read_index_dropped, 0u);
  EXPECT_EQ(ms.read_index_remote, 0u);
  EXPECT_EQ(ms.read_index_dropped, 2u);
  // No read entered the log, and every grant that found its payload was
  // answered with the committed value.
  uint64_t answered = 0;
  for (uint64_t seq = 2; seq <= 7; ++seq) {
    for (const std::string& value : client.ValuesFor(seq)) {
      EXPECT_EQ(value, "v1") << "seq " << seq;
      ++answered;
    }
  }
  EXPECT_EQ(answered, 4u);
  EXPECT_EQ(ls.ro_skipped + ss.ro_skipped + ms.ro_skipped, 0u);
}

// A follower that power-failed and recovered from its genesis snapshot has
// an apply cursor far below the applied index it reported before the crash,
// which the leader still holds. A grant forwarded to it on that stale report
// must wait until the follower has re-applied through the read index:
// served at once, it would read the pristine store.
TEST(ServerAnswerTest, ForwardedLeaseGrantWaitsForARestartedReplierToCatchUp) {
  ClusterConfig config = KvConfig(22);
  config.raft.read_index = true;
  config.server_template.disk_faults = true;
  config.server_template.compaction_interval = Seconds(10);  // genesis stays the snapshot
  Cluster cluster(config);
  const NodeId leader = cluster.WaitForLeader();
  ASSERT_NE(leader, kInvalidNode);
  ScriptedClient client(cluster);
  client.Send(cluster.ClientTarget(), client.Request(1, Set("k", "v1")));
  RunFor(cluster, Millis(10));
  ASSERT_EQ(client.ValuesFor(1).size(), 1u);

  const NodeId victim = (leader + 1) % 3;
  cluster.PowerFailNode(victim);
  RunFor(cluster, Millis(1));
  cluster.RestartNode(victim);
  // Hold back the leader's AppendEntries so the grant lands before the
  // victim learns the commit index.
  const HostId victim_host = cluster.server_host(victim);
  cluster.network().set_drop_filter([victim_host](const Packet& packet, HostId dst) {
    return dst == victim_host && packet.msg->kind() == MessageKind::kAeReq;
  });
  for (uint64_t seq = 2; seq <= 4; ++seq) {
    client.Send(cluster.ClientTarget(), client.Request(seq, Get("k")));
  }
  RunFor(cluster, Millis(1));
  const ServerStats& vs = cluster.server(victim).server_stats();
  EXPECT_EQ(vs.read_index_remote, 1u);
  EXPECT_EQ(vs.read_index_queued, 1u);
  EXPECT_EQ(client.replies.size(), 3u);  // the write and the two other reads

  cluster.network().set_drop_filter(nullptr);
  RunFor(cluster, Millis(5));
  for (uint64_t seq = 2; seq <= 4; ++seq) {
    EXPECT_EQ(client.ValuesFor(seq), std::vector<std::string>{"v1"}) << "seq " << seq;
  }
}

// An AppendEntries reply carries the follower's progress stamp, its restart
// epoch over its apply cursor, so the leader takes a restarted follower's
// applied index as it stands, also when it went down: directly in plain
// HovercRaft, and in HovercRaft++ through AGG_COMMIT, which carries each
// follower's newest stamp through the aggregator. The victim power-fails and
// recovers from its genesis snapshot; its first reply after the restart
// reports an applied index below the one it reported before the crash. From
// that reply on the leader's MinAppliedKnown() reads the reported value and
// lease grants skip the victim. The victim's later replies are held back
// until it has re-applied; once they arrive it is granted reads again.
void ExpectRestartedFollowersFirstReplyLowersItsAppliedIndex(ClusterMode mode) {
  ClusterConfig config = KvConfig(22);
  config.mode = mode;
  config.raft.read_index = true;
  config.server_template.disk_faults = true;
  config.server_template.compaction_interval = Seconds(10);  // genesis stays the snapshot
  Cluster cluster(config);
  const NodeId leader = cluster.WaitForLeader();
  ASSERT_NE(leader, kInvalidNode);
  const RaftNode& raft = *cluster.server(leader).raft();
  ScriptedClient client(cluster);
  client.Send(cluster.ClientTarget(), client.Request(1, Set("k", "v1")));
  RunFor(cluster, Millis(10));
  ASSERT_EQ(client.ValuesFor(1).size(), 1u);
  const LogIndex applied_before = raft.MinAppliedKnown();
  ASSERT_GT(applied_before, 0u);

  const NodeId victim = (leader + 1) % 3;
  const HostId victim_host = cluster.server_host(victim);
  cluster.PowerFailNode(victim);
  RunFor(cluster, Millis(1));
  cluster.RestartNode(victim);
  bool held = false;
  std::optional<LogIndex> reported;
  cluster.network().set_drop_filter([&](const Packet& packet, HostId) {
    if (packet.src != victim_host || packet.msg->kind() != MessageKind::kAeRep) {
      return false;
    }
    if (!reported) {
      reported = AppliedOf(As<AppendEntriesRep>(*packet.msg)->progress());
      return false;
    }
    return held;
  });
  held = true;
  while (!reported) {
    RunFor(cluster, Micros(10));
  }
  RunFor(cluster, Millis(1));
  ASSERT_LT(*reported, applied_before);
  EXPECT_EQ(raft.MinAppliedKnown(), *reported);
  for (uint64_t seq = 2; seq <= 5; ++seq) {
    client.Send(cluster.ClientTarget(), client.Request(seq, Get("k")));
  }
  RunFor(cluster, Millis(1));
  const ServerStats& vs = cluster.server(victim).server_stats();
  EXPECT_EQ(vs.read_index_remote, 0u);
  EXPECT_EQ(vs.read_index_queued, 0u);
  EXPECT_EQ(raft.MinAppliedKnown(), *reported);

  held = false;
  RunFor(cluster, Millis(5));
  EXPECT_GE(raft.MinAppliedKnown(), applied_before);
  for (uint64_t seq = 6; seq <= 9; ++seq) {
    client.Send(cluster.ClientTarget(), client.Request(seq, Get("k")));
  }
  RunFor(cluster, Millis(5));
  EXPECT_GE(vs.read_index_remote, 1u);
  for (uint64_t seq = 2; seq <= 9; ++seq) {
    EXPECT_EQ(client.ValuesFor(seq), std::vector<std::string>{"v1"}) << "seq " << seq;
  }
}

TEST(ServerAnswerTest, RestartedFollowersFirstReplyLowersItsAppliedIndexAtTheLeader) {
  ExpectRestartedFollowersFirstReplyLowersItsAppliedIndex(ClusterMode::kHovercRaft);
}

TEST(ServerAnswerTest, RestartedFollowersFirstReplyLowersItsAppliedIndexThroughTheAggregator) {
  ExpectRestartedFollowersFirstReplyLowersItsAppliedIndex(ClusterMode::kHovercRaftPP);
}

// Between restarts the leader's record of a follower's applied index never
// falls. In HovercRaft++ a follower's progress reaches the leader by two
// paths, its direct replies to quorum probes and AGG_COMMIT, which can carry
// an older reply through the aggregator after a newer direct one; the
// progress stamp orders the two. No fault: the record is checked after every
// simulator event for 10 ms while 20 writes commit.
TEST(ServerAnswerTest, RecordedAppliedIndexNeverFallsWithoutARestart) {
  ClusterConfig config = KvConfig(22);
  config.mode = ClusterMode::kHovercRaftPP;
  Cluster cluster(config);
  const NodeId leader = cluster.WaitForLeader();
  ASSERT_NE(leader, kInvalidNode);
  const RaftNode& raft = *cluster.server(leader).raft();
  ScriptedClient client(cluster);
  for (uint64_t seq = 1; seq <= 20; ++seq) {
    client.Send(cluster.ClientTarget(), client.Request(seq, Incr("k")));
  }
  std::vector<LogIndex> highest(3, 0);
  const TimeNs end = cluster.sim().Now() + Millis(10);
  while (cluster.sim().Now() < end && cluster.sim().Step()) {
    for (NodeId p = 0; p < 3; ++p) {
      if (p == leader) {
        continue;
      }
      const LogIndex recorded = AppliedOf(raft.RecordedProgress(p));
      ASSERT_GE(recorded, highest[static_cast<size_t>(p)])
          << "peer " << p << " at " << cluster.sim().Now() << " ns";
      highest[static_cast<size_t>(p)] = recorded;
    }
  }
  EXPECT_EQ(client.replies.size(), 20u);
  for (NodeId p = 0; p < 3; ++p) {
    if (p != leader) {
      EXPECT_GE(highest[static_cast<size_t>(p)], 20u) << "peer " << p;
    }
  }
}

// An ordered request repays its admission slot on its first ordered
// instance, whichever attempt that is. Here the admitted first attempt is
// lost on its way to the group, so the retransmission (which bypassed the
// middlebox) is ordered first and repays; a later retransmission of the read
// is re-ordered for freshness and repays nothing.
TEST(ServerAnswerTest, FirstOrderedInstanceRepaysWhicheverAttemptIsOrdered) {
  Cluster cluster(KvConfig(26));
  ASSERT_NE(cluster.WaitForLeader(), kInvalidNode);
  ScriptedClient client(cluster);
  const HostId middlebox = cluster.flow_control()->id();
  cluster.network().set_drop_filter([middlebox](const Packet& packet, HostId) {
    return packet.src == middlebox;
  });
  client.Send(cluster.ClientTarget(), client.Request(1, Get("k")));
  RunFor(cluster, Millis(1));
  ASSERT_EQ(cluster.flow_control()->outstanding(), 1);
  cluster.network().set_drop_filter(nullptr);

  client.Send(cluster.RetryTarget(), client.Request(1, Get("k"), /*attempt=*/2));
  RunFor(cluster, Millis(2));
  client.Send(cluster.RetryTarget(), client.Request(1, Get("k"), /*attempt=*/3));
  RunFor(cluster, Millis(2));

  EXPECT_EQ(client.ValuesFor(1).size(), 2u);
  uint64_t feedback = 0;
  for (NodeId n = 0; n < 3; ++n) {
    feedback += cluster.server(n).server_stats().feedback_sent;
  }
  EXPECT_EQ(feedback, 1u);
  EXPECT_EQ(cluster.flow_control()->outstanding(), 0);
}

// Apply-time exactly-once (Raft section 8): a write that already executed
// and re-enters the log is answered from the reply cache by the entry's
// replier and applied nowhere. Ingress and the unordered drain stop every
// client-driven copy earlier, so the test orders the copy itself.
TEST(ServerAnswerTest, ReorderedExecutedWriteIsAnsweredFromTheReplyCache) {
  Cluster cluster(KvConfig(23));
  ASSERT_NE(cluster.WaitForLeader(), kInvalidNode);
  ScriptedClient client(cluster);
  const auto incr = client.Request(1, Incr("n"));
  client.Send(cluster.ClientTarget(), incr);
  RunFor(cluster, Millis(5));
  ASSERT_EQ(client.ValuesFor(1), std::vector<std::string>{"1"});
  std::vector<uint64_t> executed;
  for (NodeId n = 0; n < 3; ++n) {
    executed.push_back(cluster.server(n).server_stats().ops_executed);
  }

  Order(cluster, incr, /*allow_duplicate=*/true);
  RunFor(cluster, Millis(5));

  uint64_t cached_replies = 0;
  for (NodeId n = 0; n < 3; ++n) {
    const ServerStats& st = cluster.server(n).server_stats();
    EXPECT_EQ(st.dedup_hits, 1u) << "node " << n;
    EXPECT_EQ(st.double_applies, 0u) << "node " << n;
    EXPECT_EQ(st.ops_executed, executed[static_cast<size_t>(n)]) << "node " << n;
    EXPECT_EQ(cluster.server(n).app().Digest(), cluster.server(0).app().Digest());
    cached_replies += st.dedup_replies;
  }
  EXPECT_EQ(cached_replies, 1u);
  EXPECT_EQ(client.ValuesFor(1), (std::vector<std::string>{"1", "1"}));
}

// A shard-control entry re-ordered under the same rid is a no-op on every
// replica: it neither re-runs the step nor reaches the move-id fence, and
// nobody is answered (its original was).
TEST(ServerAnswerTest, DuplicateShardControlEntryIsANoOp) {
  const ClusterConfig config = KvConfig(24);
  Fabric fabric(config.seed);
  const ShardGroupSpec spec = OwnsEverySlot();
  Cluster cluster(fabric, config, &spec);
  ASSERT_NE(cluster.WaitForLeader(), kInvalidNode);
  ScriptedClient client(cluster);
  const auto freeze = ShardCtl(client, 1, ShardOpKind::kFreeze, 8, 15);
  Order(cluster, freeze);
  RunFor(cluster, Millis(5));
  ASSERT_EQ(client.ValuesFor(1).size(), 1u);

  Order(cluster, freeze, /*allow_duplicate=*/true);
  RunFor(cluster, Millis(5));

  for (NodeId n = 0; n < 3; ++n) {
    const ServerStats& st = cluster.server(n).server_stats();
    EXPECT_EQ(st.shard_freezes, 1u) << "node " << n;
    EXPECT_EQ(st.shard_ctl_stale, 0u) << "node " << n;
    EXPECT_EQ(st.dedup_hits, 1u) << "node " << n;
  }
  EXPECT_EQ(client.replies.size(), 1u);
}

// Single-owner shards at apply: a freeze of slots 8-15 and a write for one
// of them, ordered in one instant with the freeze first. Ordering saw the
// slot served, so only the apply gate keeps the write from executing: every
// replica rejects it, and its replier redirects the client.
TEST(ServerAnswerTest, WriteOrderedBehindAFreezeOfItsSlotIsRejectedAtApply) {
  const ClusterConfig config = KvConfig(26);
  Fabric fabric(config.seed);
  const ShardGroupSpec spec = OwnsEverySlot();
  Cluster cluster(fabric, config, &spec);
  ASSERT_NE(cluster.WaitForLeader(), kInvalidNode);
  ScriptedClient client(cluster);
  std::string key = "k0";
  for (int i = 1; ShardSlotOf(key) < 8 || ShardSlotOf(key) > 15; ++i) {
    key = "k" + std::to_string(i);
  }
  std::vector<uint64_t> executed;
  for (NodeId n = 0; n < 3; ++n) {
    executed.push_back(cluster.server(n).server_stats().ops_executed);
  }

  Order(cluster, ShardCtl(client, 1, ShardOpKind::kFreeze, 8, 15));
  Order(cluster, client.Request(2, Set(key, "v"), 1, ShardSlotOf(key)));
  RunFor(cluster, Millis(5));

  for (NodeId n = 0; n < 3; ++n) {
    const ServerStats& st = cluster.server(n).server_stats();
    EXPECT_EQ(st.shard_freezes, 1u) << "node " << n;
    EXPECT_EQ(st.wrong_shard_rejects, 1u) << "node " << n;
    EXPECT_EQ(st.ops_executed, executed[static_cast<size_t>(n)]) << "node " << n;
  }
  EXPECT_EQ(client.nacks, std::vector<uint64_t>{2});
  EXPECT_TRUE(client.ValuesFor(2).empty());
}

// A first attempt the middlebox admitted, for a slot the group has since
// handed away, is redirected by the leader, which repays its admission slot
// then and there. A retransmission bypassed the middlebox and repays
// nothing, so the ledger drains to zero with exactly one FEEDBACK.
TEST(ServerAnswerTest, IngressRedirectRepaysTheFirstAttemptsSlotOnce) {
  const ClusterConfig config = KvConfig(25);
  Fabric fabric(config.seed);
  const ShardGroupSpec spec = OwnsEverySlot();
  Cluster cluster(fabric, config, &spec);
  const NodeId leader = cluster.WaitForLeader();
  ASSERT_NE(leader, kInvalidNode);
  ScriptedClient client(cluster);
  Order(cluster, ShardCtl(client, 1, ShardOpKind::kGc, 32, kShardSlots - 1));
  RunFor(cluster, Millis(5));
  ASSERT_FALSE(cluster.server(leader).shard_state().Serves(kShardSlots - 1));
  uint64_t feedback_before = 0;
  for (NodeId n = 0; n < 3; ++n) {
    feedback_before += cluster.server(n).server_stats().feedback_sent;
  }

  std::string key = "a";
  while (ShardSlotOf(key) < 32) {
    key += "a";
  }
  const KvCommand write = Set(key, "v");
  client.Send(cluster.ClientTarget(), client.Request(2, write, 1, ShardSlotOf(key)));
  RunFor(cluster, Millis(2));
  client.Send(cluster.RetryTarget(), client.Request(2, write, 2, ShardSlotOf(key)));
  RunFor(cluster, Millis(2));

  EXPECT_EQ(client.nacks, (std::vector<uint64_t>{2, 2}));
  EXPECT_TRUE(client.ValuesFor(2).empty());
  EXPECT_EQ(cluster.server(leader).server_stats().wrong_shard_nacks, 2u);
  uint64_t feedback = 0;
  for (NodeId n = 0; n < 3; ++n) {
    feedback += cluster.server(n).server_stats().feedback_sent;
  }
  EXPECT_EQ(feedback - feedback_before, 1u);
  EXPECT_EQ(cluster.flow_control()->forwarded(), 1u);
  EXPECT_EQ(cluster.flow_control()->outstanding(), 0);
}

}  // namespace
}  // namespace hovercraft
