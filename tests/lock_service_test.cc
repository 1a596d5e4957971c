// Lock service: codec, state-machine semantics, fencing tokens, snapshots,
// and replicated mutual exclusion.
#include <gtest/gtest.h>

#include <memory>

#include "src/app/lock_service.h"
#include "src/common/buffer.h"
#include "src/core/cluster.h"

namespace hovercraft {
namespace {

LockCommand Cmd(LockOpcode op, const char* lock, const char* owner = "") {
  LockCommand cmd;
  cmd.op = op;
  cmd.lock = lock;
  cmd.owner = owner;
  return cmd;
}

TEST(LockServiceTest, CommandCodecRoundTrip) {
  const LockCommand cmd = Cmd(LockOpcode::kAcquire, "locks/a", "client-1");
  Result<LockCommand> decoded = DecodeLockCommand(EncodeLockCommand(cmd));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().op, LockOpcode::kAcquire);
  EXPECT_EQ(decoded.value().lock, "locks/a");
  EXPECT_EQ(decoded.value().owner, "client-1");
  EXPECT_FALSE(DecodeLockCommand(nullptr).ok());
  EXPECT_FALSE(DecodeLockCommand(MakeBody({9, 0, 0})).ok());
  // Empty lock names are rejected.
  EXPECT_FALSE(DecodeLockCommand(EncodeLockCommand(Cmd(LockOpcode::kAcquire, "", "x"))).ok());
}

TEST(LockServiceTest, ReplyCodecRoundTrip) {
  LockReply reply;
  reply.status = LockReplyStatus::kHolder;
  reply.holder = "client-7";
  reply.fencing_token = 42;
  Result<LockReply> decoded = DecodeLockReply(EncodeLockReply(reply));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().status, LockReplyStatus::kHolder);
  EXPECT_EQ(decoded.value().holder, "client-7");
  EXPECT_EQ(decoded.value().fencing_token, 42u);
}

TEST(LockServiceTest, MutualExclusionAndFencing) {
  LockService svc;
  const LockReply a = svc.Apply(Cmd(LockOpcode::kAcquire, "L", "alice"));
  EXPECT_EQ(a.status, LockReplyStatus::kGranted);
  EXPECT_EQ(a.fencing_token, 1u);

  const LockReply b = svc.Apply(Cmd(LockOpcode::kAcquire, "L", "bob"));
  EXPECT_EQ(b.status, LockReplyStatus::kHeld);
  EXPECT_EQ(b.holder, "alice");

  // Idempotent re-acquisition by the holder returns the SAME token.
  const LockReply a2 = svc.Apply(Cmd(LockOpcode::kAcquire, "L", "alice"));
  EXPECT_EQ(a2.status, LockReplyStatus::kGranted);
  EXPECT_EQ(a2.fencing_token, 1u);

  // Only the holder can release.
  EXPECT_EQ(svc.Apply(Cmd(LockOpcode::kRelease, "L", "bob")).status,
            LockReplyStatus::kNotHolder);
  EXPECT_EQ(svc.Apply(Cmd(LockOpcode::kRelease, "L", "alice")).status,
            LockReplyStatus::kReleased);

  // Next acquisition gets a strictly larger token (zombie-holder defence).
  const LockReply c = svc.Apply(Cmd(LockOpcode::kAcquire, "L", "bob"));
  EXPECT_EQ(c.status, LockReplyStatus::kGranted);
  EXPECT_GT(c.fencing_token, a.fencing_token);
}

TEST(LockServiceTest, GetHolderIsReadOnly) {
  LockService svc;
  svc.Apply(Cmd(LockOpcode::kAcquire, "L", "alice"));
  EXPECT_EQ(svc.Apply(Cmd(LockOpcode::kGetHolder, "L")).status, LockReplyStatus::kHolder);
  EXPECT_EQ(svc.Apply(Cmd(LockOpcode::kGetHolder, "other")).status, LockReplyStatus::kFree);
  EXPECT_TRUE(Cmd(LockOpcode::kGetHolder, "L").IsReadOnly());
  EXPECT_FALSE(Cmd(LockOpcode::kAcquire, "L", "x").IsReadOnly());
}

TEST(LockServiceTest, SnapshotRoundTrip) {
  LockService a;
  a.Apply(Cmd(LockOpcode::kAcquire, "L1", "alice"));
  a.Apply(Cmd(LockOpcode::kAcquire, "L2", "bob"));
  a.Apply(Cmd(LockOpcode::kRelease, "L1", "alice"));

  LockService b;
  ASSERT_TRUE(b.RestoreState(a.SnapshotState()).ok());
  EXPECT_EQ(b.Digest(), a.Digest());
  EXPECT_EQ(b.held_locks(), 1u);
  // Token counter restored: the next acquisition continues the sequence.
  const LockReply from_a = a.Apply(Cmd(LockOpcode::kAcquire, "L3", "x"));
  const LockReply from_b = b.Apply(Cmd(LockOpcode::kAcquire, "L3", "x"));
  EXPECT_EQ(from_a.fencing_token, from_b.fencing_token);
}

// A forged holder count, or a forged length inside one holder, is a decode
// error: the decoder reserves by the bytes left, so it fails on the missing
// bytes instead of on a huge allocation.
TEST(LockServiceTest, ForgedCountsAreErrors) {
  auto forged = [](uint64_t count, uint32_t owner_len) {
    BufferWriter w;
    w.PutU64(5);  // next token
    w.PutU64(3);  // applied
    w.PutU64(count);
    w.PutString("L1");
    w.PutU32(owner_len);
    w.PutU64(1);
    return MakeBody(w.TakeBytes());
  };
  for (uint64_t count : {uint64_t{1} << 40, uint64_t{1} << 62, ~uint64_t{0}}) {
    LockService svc;
    EXPECT_FALSE(svc.RestoreState(forged(count, 0)).ok()) << count;
  }
  LockService svc;
  EXPECT_FALSE(svc.RestoreState(forged(1, 0xFFFFFFFFu)).ok());
  EXPECT_TRUE(svc.RestoreState(forged(1, 0)).ok());  // the unforged control
  EXPECT_EQ(svc.held_locks(), 1u);
}

// Mutual exclusion as a replicated property: two clients race ACQUIRE
// through the full stack; exactly one wins and all replicas agree.
TEST(LockServiceTest, ReplicatedRaceHasOneWinner) {
  ClusterConfig config;
  config.mode = ClusterMode::kHovercRaftPP;
  config.nodes = 3;
  config.seed = 7;
  config.replier_policy = ReplierPolicy::kJbsq;
  config.app_factory = []() { return std::make_unique<LockService>(); };
  Cluster cluster(config);
  ASSERT_NE(cluster.WaitForLeader(), kInvalidNode);

  class Racer final : public Host {
   public:
    Racer(Simulator* sim, const CostModel& costs, Cluster* cluster, const char* name)
        : Host(sim, costs, Kind::kServer), cluster_(cluster), name_(name) {}
    void Go() {
      Send(cluster_->ClientTarget(),
           std::make_shared<RpcRequest>(RequestId{id(), 1}, R2p2Policy::kReplicatedReq,
                                        EncodeLockCommand([this]() {
                                          LockCommand c;
                                          c.op = LockOpcode::kAcquire;
                                          c.lock = "L";
                                          c.owner = name_;
                                          return c;
                                        }())));
    }
    void HandleMessage(HostId, const MessagePtr& msg) override {
      if (const auto* resp = dynamic_cast<const RpcResponse*>(msg.get())) {
        auto reply = DecodeLockReply(resp->body());
        ASSERT_TRUE(reply.ok());
        granted = (reply.value().status == LockReplyStatus::kGranted);
        done = true;
      }
    }
    Cluster* cluster_;
    std::string name_;
    bool done = false;
    bool granted = false;
  };

  Racer alice(&cluster.sim(), config.costs, &cluster, "alice");
  Racer bob(&cluster.sim(), config.costs, &cluster, "bob");
  cluster.network().Attach(&alice);
  cluster.network().Attach(&bob);
  cluster.sim().After(Micros(10), [&]() {
    alice.Go();
    bob.Go();
  });
  cluster.sim().RunUntil(Millis(50));

  ASSERT_TRUE(alice.done);
  ASSERT_TRUE(bob.done);
  EXPECT_NE(alice.granted, bob.granted) << "exactly one racer must win";
  const uint64_t digest = cluster.server(0).app().Digest();
  for (NodeId n = 1; n < 3; ++n) {
    EXPECT_EQ(cluster.server(n).app().Digest(), digest);
  }
}

}  // namespace
}  // namespace hovercraft
