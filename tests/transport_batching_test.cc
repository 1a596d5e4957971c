// eRPC-style transport batching (CostModel::tx_batching): coalescing
// mechanics, physical/logical counter split, fault-injection transparency,
// and the non-negotiable property that batching never changes a chaos
// verdict — pinned-seed runs are batched/unbatched verdict-identical and
// batched runs are trace-deterministic (flush order pinned).
#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "src/chaos/runner.h"
#include "src/net/host.h"
#include "src/net/network.h"
#include "src/net/packet.h"
#include "src/obs/observability.h"
#include "src/r2p2/messages.h"

namespace hovercraft {
namespace {

class SinkHost final : public Host {
 public:
  SinkHost(Simulator* sim, const CostModel& costs, Kind kind = Kind::kServer)
      : Host(sim, costs, kind) {}

  void HandleMessage(HostId src, const MessagePtr& msg) override {
    received.push_back({src, msg, sim()->Now()});
  }

  struct Received {
    HostId src;
    MessagePtr msg;
    TimeNs at;
  };
  std::vector<Received> received;
};

MessagePtr SmallRequest(HostId client, uint64_t seq, int32_t bytes = 24) {
  return std::make_shared<RpcRequest>(RequestId{client, seq}, R2p2Policy::kReplicatedReq,
                                      MakeBody(std::vector<uint8_t>(static_cast<size_t>(bytes))));
}

struct BatchingFixture {
  BatchingFixture() {
    costs.tx_batching = true;
    costs.tx_batch_delay_ns = 0;  // doorbell at the end of the current instant
  }
  Simulator sim;
  CostModel costs;
  Network net{&sim, 1};
};

TEST(TransportBatchingTest, CoalescesSameInstantSendsIntoOneFrame) {
  BatchingFixture f;
  SinkHost a(&f.sim, f.costs);
  SinkHost b(&f.sim, f.costs);
  f.net.Attach(&a);
  f.net.Attach(&b);

  constexpr int kMsgs = 5;
  f.sim.At(0, [&]() {
    for (uint64_t i = 0; i < kMsgs; ++i) {
      a.Send(b.id(), SmallRequest(a.id(), i + 1));
    }
  });
  f.sim.RunToCompletion();

  // All five logical messages arrive, in send order (flush order is the
  // enqueue order — this pins it).
  ASSERT_EQ(b.received.size(), static_cast<size_t>(kMsgs));
  for (size_t i = 0; i < b.received.size(); ++i) {
    const auto* req = dynamic_cast<const RpcRequest*>(b.received[i].msg.get());
    ASSERT_NE(req, nullptr);
    EXPECT_EQ(req->rid().seq, i + 1);
  }
  // Logical counters see five messages; physical counters see one frame.
  EXPECT_EQ(a.counters().tx_msgs, static_cast<uint64_t>(kMsgs));
  EXPECT_EQ(a.counters().tx_batches, 1u);
  EXPECT_EQ(a.counters().tx_physical_frames, 1u);
  EXPECT_EQ(b.counters().rx_msgs, static_cast<uint64_t>(kMsgs));
  EXPECT_EQ(b.counters().rx_batches, 1u);
  EXPECT_EQ(b.counters().rx_physical_frames, 1u);
  // All members dispatch within one rx event: same arrival timestamp.
  EXPECT_EQ(b.received.front().at, b.received.back().at);
}

TEST(TransportBatchingTest, WireByteAttributionTelescopes) {
  BatchingFixture f;
  SinkHost a(&f.sim, f.costs);
  SinkHost b(&f.sim, f.costs);
  f.net.Attach(&a);
  f.net.Attach(&b);

  f.sim.At(0, [&]() {
    a.Send(b.id(), SmallRequest(a.id(), 1, 100));
    a.Send(b.id(), SmallRequest(a.id(), 2, 200));
    a.Send(b.id(), std::make_shared<FeedbackMsg>(RequestId{a.id(), 1}));
  });
  f.sim.RunToCompletion();

  // Per-kind wire bytes (members + the BATCH framing share) sum exactly to
  // the total wire bytes, on both ends.
  uint64_t tx_sum = 0;
  for (const uint64_t bytes : a.counters().tx_wire_bytes_by_kind) {
    tx_sum += bytes;
  }
  EXPECT_EQ(tx_sum, a.counters().tx_wire_bytes);
  EXPECT_GT(a.counters().tx_wire_bytes_by_kind[KindIndex(MessageKind::kBatch)], 0u);
  uint64_t rx_sum = 0;
  for (const uint64_t bytes : b.counters().rx_wire_bytes_by_kind) {
    rx_sum += bytes;
  }
  EXPECT_EQ(rx_sum, b.counters().rx_wire_bytes);
  EXPECT_EQ(b.counters().rx_wire_bytes_by_kind[KindIndex(MessageKind::kBatch)],
            a.counters().tx_wire_bytes_by_kind[KindIndex(MessageKind::kBatch)]);
  EXPECT_EQ(b.counters().rx_wire_bytes, a.counters().tx_wire_bytes);
}

TEST(TransportBatchingTest, LoneMessageGoesOutUnwrapped) {
  BatchingFixture f;
  SinkHost a(&f.sim, f.costs);
  SinkHost b(&f.sim, f.costs);
  f.net.Attach(&a);
  f.net.Attach(&b);

  f.sim.At(0, [&]() { a.Send(b.id(), SmallRequest(a.id(), 1)); });
  f.sim.RunToCompletion();

  ASSERT_EQ(b.received.size(), 1u);
  EXPECT_NE(dynamic_cast<const RpcRequest*>(b.received[0].msg.get()), nullptr);
  EXPECT_EQ(a.counters().tx_batches, 0u);
  EXPECT_EQ(b.counters().rx_batches, 0u);
}

TEST(TransportBatchingTest, LargeMessagesBypassTheQueue) {
  BatchingFixture f;
  SinkHost a(&f.sim, f.costs);
  SinkHost b(&f.sim, f.costs);
  f.net.Attach(&a);
  f.net.Attach(&b);

  f.sim.At(0, [&]() {
    a.Send(b.id(), SmallRequest(a.id(), 1, CostModel::kTxBatchSmallBytes + 1));
    a.Send(b.id(), SmallRequest(a.id(), 2, CostModel::kTxBatchSmallBytes + 1));
  });
  f.sim.RunToCompletion();

  EXPECT_EQ(b.received.size(), 2u);
  EXPECT_EQ(a.counters().tx_batches, 0u);
  EXPECT_EQ(a.counters().tx_physical_frames, 2u);
}

// Regression: an unbatched (large) message must not overtake small messages
// already coalescing toward the same destination — it flushes them first, so
// per-destination delivery order stays FIFO even with a long doorbell.
TEST(TransportBatchingTest, UnbatchedSendFlushesQueuedSmallMessagesFirst) {
  BatchingFixture f;
  f.costs.tx_batch_delay_ns = Micros(50);  // the flush must come from the large send
  SinkHost a(&f.sim, f.costs);
  SinkHost b(&f.sim, f.costs);
  f.net.Attach(&a);
  f.net.Attach(&b);

  f.sim.At(0, [&]() {
    a.Send(b.id(), SmallRequest(a.id(), 1));
    a.Send(b.id(), SmallRequest(a.id(), 2));
    a.Send(b.id(), SmallRequest(a.id(), 3, CostModel::kTxBatchSmallBytes + 1));
  });
  f.sim.RunToCompletion();

  ASSERT_EQ(b.received.size(), 3u);
  for (size_t i = 0; i < b.received.size(); ++i) {
    const auto* req = dynamic_cast<const RpcRequest*>(b.received[i].msg.get());
    ASSERT_NE(req, nullptr);
    EXPECT_EQ(req->rid().seq, i + 1);
  }
  // Two physical frames: the flushed two-message batch, then the large one —
  // both well before the doorbell would have fired.
  EXPECT_EQ(a.counters().tx_batches, 1u);
  EXPECT_EQ(a.counters().tx_physical_frames, 2u);
  EXPECT_LT(b.received.back().at, Micros(50));
}

TEST(TransportBatchingTest, FullBatchFlushesWithoutWaiting) {
  BatchingFixture f;
  f.costs.tx_batch_delay_ns = Micros(50);  // long doorbell to prove the cap flushes
  SinkHost a(&f.sim, f.costs);
  SinkHost b(&f.sim, f.costs);
  f.net.Attach(&a);
  f.net.Attach(&b);

  const int32_t cap = CostModel::kTxBatchMaxMsgs;
  f.sim.At(0, [&]() {
    for (int32_t i = 0; i < cap; ++i) {
      a.Send(b.id(), SmallRequest(a.id(), static_cast<uint64_t>(i) + 1));
    }
  });
  f.sim.RunToCompletion();

  ASSERT_EQ(b.received.size(), static_cast<size_t>(cap));
  EXPECT_EQ(a.counters().tx_batches, 1u);
  // The cap flushed at enqueue time, not at the doorbell: delivery happens
  // well before the 50us doorbell would have fired.
  EXPECT_LT(b.received.back().at, Micros(50));
}

TEST(TransportBatchingTest, MtuOverflowSplitsTheBatch) {
  BatchingFixture f;
  SinkHost a(&f.sim, f.costs);
  SinkHost b(&f.sim, f.costs);
  f.net.Attach(&a);
  f.net.Attach(&b);

  // Four 500B messages: 504B slots against a 1436B MTU payload -> two frames.
  f.sim.At(0, [&]() {
    for (uint64_t i = 0; i < 4; ++i) {
      a.Send(b.id(), SmallRequest(a.id(), i + 1, 500));
    }
  });
  f.sim.RunToCompletion();

  EXPECT_EQ(b.received.size(), 4u);
  EXPECT_EQ(a.counters().tx_physical_frames, 2u);
  EXPECT_EQ(a.counters().tx_batches, 2u);
}

TEST(TransportBatchingTest, DropFilterMatchesMembersNotFrames) {
  BatchingFixture f;
  SinkHost a(&f.sim, f.costs);
  SinkHost b(&f.sim, f.costs);
  f.net.Attach(&a);
  f.net.Attach(&b);
  // Drop FEEDBACK only; the surrounding batch must still deliver the rest.
  f.net.set_drop_filter([](const Packet& p, HostId) {
    return std::string(p.msg->Name()) == "FEEDBACK";
  });

  f.sim.At(0, [&]() {
    a.Send(b.id(), SmallRequest(a.id(), 1));
    a.Send(b.id(), std::make_shared<FeedbackMsg>(RequestId{a.id(), 1}));
    a.Send(b.id(), SmallRequest(a.id(), 2));
  });
  f.sim.RunToCompletion();

  ASSERT_EQ(b.received.size(), 2u);
  for (const auto& r : b.received) {
    EXPECT_STREQ(r.msg->Name(), "REQUEST");
  }
  EXPECT_EQ(f.net.dropped_msgs(), 1u);
  EXPECT_EQ(f.net.delivered_msgs(), 2u);
}

TEST(TransportBatchingTest, FailedHostDiscardsQueuedMessages) {
  BatchingFixture f;
  f.costs.tx_batch_delay_ns = Micros(10);
  SinkHost a(&f.sim, f.costs);
  SinkHost b(&f.sim, f.costs);
  f.net.Attach(&a);
  f.net.Attach(&b);

  f.sim.At(0, [&]() {
    a.Send(b.id(), SmallRequest(a.id(), 1));
    a.set_failed(true);  // crash before the doorbell fires
  });
  f.sim.RunToCompletion();

  EXPECT_TRUE(b.received.empty());
  EXPECT_EQ(a.counters().tx_physical_frames, 0u);
}

TEST(TransportBatchingTest, MulticastBatchFansOut) {
  BatchingFixture f;
  SinkHost a(&f.sim, f.costs);
  SinkHost b(&f.sim, f.costs);
  SinkHost c(&f.sim, f.costs);
  f.net.Attach(&a);
  f.net.Attach(&b);
  f.net.Attach(&c);
  const Addr group = f.net.CreateMulticastGroup({a.id(), b.id(), c.id()});

  f.sim.At(0, [&]() {
    a.Send(group, SmallRequest(a.id(), 1));
    a.Send(group, SmallRequest(a.id(), 2));
  });
  f.sim.RunToCompletion();

  EXPECT_EQ(b.received.size(), 2u);
  EXPECT_EQ(c.received.size(), 2u);
  EXPECT_TRUE(a.received.empty());
  EXPECT_EQ(a.counters().tx_batches, 1u);
  EXPECT_EQ(f.net.delivered_msgs(), 4u);  // 2 logical x 2 destinations
}

// --- verdict equivalence under chaos ---------------------------------------
// Batching is a transport optimization: for any pinned seed, the batched and
// unbatched runs must reach the same verdict — linearizability, convergence,
// watchdog silence, and exactly-once accounting. (Event interleavings differ,
// so raw message counts may too; verdicts may not.)

struct Verdict {
  bool ok;
  bool linearizable;
  bool conclusive;
  bool leader_alive;
  bool digests_converged;
  bool watchdog_ok;
  uint64_t double_applies;
};

Verdict VerdictOf(const ChaosRunResult& r) {
  return Verdict{r.ok(),
                 r.linearizability.linearizable,
                 r.linearizability.conclusive(),
                 r.leader_alive,
                 r.digests_converged,
                 r.watchdog_ok,
                 r.double_applies};
}

TEST(TransportBatchingTest, ChaosVerdictsAreBatchingInvariant) {
  const std::vector<std::string> schedules = {"partition-leader", "crash-leader", "reorder"};
  uint64_t seed = 7101;
  for (const std::string& schedule : schedules) {
    ChaosRunConfig config;
    config.cluster.mode = ClusterMode::kHovercRaft;
    config.schedule = schedule;
    config.cluster.seed = seed++;
    config.retry_enabled = true;

    ChaosRunConfig batched = config;
    batched.cluster.costs.tx_batching = true;
    batched.cluster.costs.tx_batch_delay_ns = 2'000;

    const ChaosRunResult base = RunChaosSchedule(config);
    const ChaosRunResult with_batching = RunChaosSchedule(batched);
    const Verdict a = VerdictOf(base);
    const Verdict b = VerdictOf(with_batching);

    EXPECT_TRUE(a.ok) << schedule << " unbatched:\n" << base.Describe();
    EXPECT_TRUE(b.ok) << schedule << " batched:\n" << with_batching.Describe();
    EXPECT_EQ(a.linearizable, b.linearizable) << schedule;
    EXPECT_EQ(a.conclusive, b.conclusive) << schedule;
    EXPECT_EQ(a.leader_alive, b.leader_alive) << schedule;
    EXPECT_EQ(a.digests_converged, b.digests_converged) << schedule;
    EXPECT_EQ(a.watchdog_ok, b.watchdog_ok) << schedule;
    EXPECT_EQ(a.double_applies, 0u) << schedule;
    EXPECT_EQ(b.double_applies, 0u) << schedule;
  }
}

// A batched run is itself deterministic: the same pinned seed replays to an
// identical trace (node states, nemesis events, every counter), which pins
// the flush order — any nondeterminism in doorbell scheduling or queue
// iteration would diverge here.
TEST(TransportBatchingTest, BatchedRunsReplayIdentically) {
  ChaosRunConfig config;
  config.cluster.mode = ClusterMode::kHovercRaft;
  config.schedule = "random";
  config.cluster.seed = 4242;
  config.retry_enabled = true;
  config.cluster.costs.tx_batching = true;
  config.cluster.costs.tx_batch_delay_ns = 2'000;

  const ChaosRunResult first = RunChaosSchedule(config);
  const ChaosRunResult second = RunChaosSchedule(config);

  EXPECT_TRUE(first.ok()) << first.Describe();
  EXPECT_EQ(first.Describe(), second.Describe());
  EXPECT_EQ(first.invoked, second.invoked);
  EXPECT_EQ(first.completed, second.completed);
  EXPECT_EQ(first.retransmits, second.retransmits);
  EXPECT_EQ(first.dropped_by_fault, second.dropped_by_fault);
  EXPECT_EQ(first.recorder_events, second.recorder_events);
}

// Cluster::ExportMetrics emits net.bytes_on_wire.{tx,rx}.<NAME> only for
// kinds that crossed a host's link, so no exported key is zero — and a
// batched run exports the BATCH framing share under its historic name.
TEST(TransportBatchingTest, ExportedWireBytesByKindAreNonZero) {
  obs::Observability bundle(obs::Observability::Options{});
  ChaosRunConfig config;
  config.cluster.mode = ClusterMode::kHovercRaftPP;
  config.schedule = "crash-leader";
  config.cluster.seed = 11;
  config.duration = Millis(60);
  config.settle = Millis(60);
  config.cluster.costs.tx_batching = true;
  config.fabric.obs = &bundle;
  EXPECT_TRUE(RunChaosSchedule(config).ok());

  std::ostringstream json;
  bundle.metrics().DumpJson(json);
  std::istringstream lines(json.str());
  int keys = 0;
  bool batch_seen = false;
  for (std::string line; std::getline(lines, line);) {
    if (line.find("net.bytes_on_wire.") == std::string::npos) {
      continue;
    }
    ++keys;
    batch_seen |= line.find(".BATCH\"") != std::string::npos;
    const std::string value = line.substr(line.rfind(' ') + 1);
    EXPECT_NE(std::stoull(value), 0u) << line;
  }
  EXPECT_GT(keys, 0);
  EXPECT_TRUE(batch_seen);
}

}  // namespace
}  // namespace hovercraft
