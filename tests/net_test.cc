#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "src/net/host.h"
#include "src/net/network.h"
#include "src/net/packet.h"
#include "src/r2p2/messages.h"

namespace hovercraft {
namespace {

// A host that records everything it receives and can echo.
class EchoHost final : public Host {
 public:
  EchoHost(Simulator* sim, const CostModel& costs, Kind kind = Kind::kServer)
      : Host(sim, costs, kind) {}

  void HandleMessage(HostId src, const MessagePtr& msg) override {
    received.push_back({src, msg, sim()->Now()});
    if (echo) {
      Send(src, msg);
    }
  }

  struct Received {
    HostId src;
    MessagePtr msg;
    TimeNs at;
  };
  std::vector<Received> received;
  bool echo = false;
};

MessagePtr SmallRequest(HostId client, uint64_t seq, int32_t bytes = 24) {
  return std::make_shared<RpcRequest>(RequestId{client, seq}, R2p2Policy::kReplicatedReq,
                                      MakeBody(std::vector<uint8_t>(static_cast<size_t>(bytes))));
}

struct NetFixture {
  Simulator sim;
  CostModel costs;
  Network net{&sim, 1};
};

TEST(NetworkTest, UnicastDelivery) {
  NetFixture f;
  EchoHost a(&f.sim, f.costs);
  EchoHost b(&f.sim, f.costs);
  f.net.Attach(&a);
  f.net.Attach(&b);

  f.sim.At(0, [&]() { a.Send(b.id(), SmallRequest(a.id(), 1)); });
  f.sim.RunToCompletion();
  ASSERT_EQ(b.received.size(), 1u);
  EXPECT_EQ(b.received[0].src, a.id());
  EXPECT_TRUE(a.received.empty());
}

TEST(NetworkTest, EndToEndLatencyIsPhysical) {
  NetFixture f;
  EchoHost a(&f.sim, f.costs);
  EchoHost b(&f.sim, f.costs);
  f.net.Attach(&a);
  f.net.Attach(&b);

  f.sim.At(0, [&]() { a.Send(b.id(), SmallRequest(a.id(), 1)); });
  f.sim.RunToCompletion();
  ASSERT_EQ(b.received.size(), 1u);
  // tx cpu + serialization + 2 propagations + switch + rx cpu: single-digit us.
  EXPECT_GT(b.received[0].at, Micros(1));
  EXPECT_LT(b.received[0].at, Micros(10));
}

TEST(NetworkTest, MulticastExcludesSender) {
  NetFixture f;
  EchoHost a(&f.sim, f.costs);
  EchoHost b(&f.sim, f.costs);
  EchoHost c(&f.sim, f.costs);
  f.net.Attach(&a);
  f.net.Attach(&b);
  f.net.Attach(&c);
  const Addr group = f.net.CreateMulticastGroup({a.id(), b.id(), c.id()});

  f.sim.At(0, [&]() { a.Send(group, SmallRequest(a.id(), 1)); });
  f.sim.RunToCompletion();
  EXPECT_EQ(a.received.size(), 0u);
  EXPECT_EQ(b.received.size(), 1u);
  EXPECT_EQ(c.received.size(), 1u);
}

TEST(NetworkTest, MulticastFromNonMemberReachesAll) {
  NetFixture f;
  EchoHost client(&f.sim, f.costs);
  EchoHost b(&f.sim, f.costs);
  EchoHost c(&f.sim, f.costs);
  f.net.Attach(&client);
  f.net.Attach(&b);
  f.net.Attach(&c);
  const Addr group = f.net.CreateMulticastGroup({b.id(), c.id()});

  f.sim.At(0, [&]() { client.Send(group, SmallRequest(client.id(), 1)); });
  f.sim.RunToCompletion();
  EXPECT_EQ(b.received.size(), 1u);
  EXPECT_EQ(c.received.size(), 1u);
}

TEST(NetworkTest, DropFilterTargetsOneDestination) {
  NetFixture f;
  EchoHost a(&f.sim, f.costs);
  EchoHost b(&f.sim, f.costs);
  EchoHost c(&f.sim, f.costs);
  f.net.Attach(&a);
  f.net.Attach(&b);
  f.net.Attach(&c);
  const Addr group = f.net.CreateMulticastGroup({a.id(), b.id(), c.id()});
  f.net.set_drop_filter([&](const Packet&, HostId dst) { return dst == b.id(); });

  f.sim.At(0, [&]() { a.Send(group, SmallRequest(a.id(), 1)); });
  f.sim.RunToCompletion();
  EXPECT_EQ(b.received.size(), 0u);
  EXPECT_EQ(c.received.size(), 1u);
  EXPECT_EQ(f.net.dropped_msgs(), 1u);
  EXPECT_EQ(f.net.delivered_msgs(), 1u);
}

TEST(NetworkTest, UniformLossDropsSome) {
  NetFixture f;
  EchoHost a(&f.sim, f.costs);
  EchoHost b(&f.sim, f.costs);
  f.net.Attach(&a);
  f.net.Attach(&b);
  f.net.set_loss_probability(0.5);

  for (int i = 0; i < 200; ++i) {
    f.sim.At(i * 1000, [&, i]() { a.Send(b.id(), SmallRequest(a.id(), 100 + i)); });
  }
  f.sim.RunToCompletion();
  EXPECT_GT(b.received.size(), 50u);
  EXPECT_LT(b.received.size(), 150u);
}

TEST(NetworkTest, FailedHostNeitherSendsNorReceives) {
  NetFixture f;
  EchoHost a(&f.sim, f.costs);
  EchoHost b(&f.sim, f.costs);
  f.net.Attach(&a);
  f.net.Attach(&b);

  b.set_failed(true);
  f.sim.At(0, [&]() { a.Send(b.id(), SmallRequest(a.id(), 1)); });
  f.sim.At(1000, [&]() { b.Send(a.id(), SmallRequest(b.id(), 2)); });
  f.sim.RunToCompletion();
  EXPECT_EQ(b.received.size(), 0u);
  EXPECT_EQ(a.received.size(), 0u);
}

TEST(NetworkTest, CountersTrackTraffic) {
  NetFixture f;
  EchoHost a(&f.sim, f.costs);
  EchoHost b(&f.sim, f.costs);
  f.net.Attach(&a);
  f.net.Attach(&b);
  b.echo = true;

  f.sim.At(0, [&]() { a.Send(b.id(), SmallRequest(a.id(), 1, 512)); });
  f.sim.RunToCompletion();
  EXPECT_EQ(a.counters().tx_msgs, 1u);
  EXPECT_EQ(a.counters().rx_msgs, 1u);
  EXPECT_EQ(b.counters().rx_msgs, 1u);
  EXPECT_EQ(b.counters().tx_msgs, 1u);
  EXPECT_EQ(a.counters().tx_payload_bytes, 512u);
  EXPECT_EQ(a.counters().tx_wire_bytes_by_kind[KindIndex(MessageKind::kRequest)],
            static_cast<uint64_t>(f.costs.WireBytesFor(512)));
}

TEST(NetworkTest, DeviceHostForwardsWithFixedLatency) {
  NetFixture f;
  EchoHost a(&f.sim, f.costs);
  EchoHost dev(&f.sim, f.costs, Host::Kind::kDevice);
  EchoHost c(&f.sim, f.costs);
  f.net.Attach(&a);
  f.net.Attach(&dev);
  f.net.Attach(&c);
  dev.echo = true;  // bounce back to sender

  f.sim.At(0, [&]() { a.Send(dev.id(), SmallRequest(a.id(), 1)); });
  f.sim.RunToCompletion();
  ASSERT_EQ(dev.received.size(), 1u);
  ASSERT_EQ(a.received.size(), 1u);
}

TEST(NetworkTest, NicSerializationThrottlesLargeMessages) {
  NetFixture f;
  EchoHost a(&f.sim, f.costs);
  EchoHost b(&f.sim, f.costs);
  f.net.Attach(&a);
  f.net.Attach(&b);

  // Send 100 x 6KB back-to-back; the NIC serializes ~5us per message, so the
  // last arrives no earlier than ~500us.
  f.sim.At(0, [&]() {
    for (uint64_t i = 0; i < 100; ++i) {
      a.Send(b.id(), SmallRequest(a.id(), i, 6000));
    }
  });
  f.sim.RunToCompletion();
  ASSERT_EQ(b.received.size(), 100u);
  EXPECT_GT(b.received.back().at, Micros(450));
}

// ---------------------------------------------------------------------------
// Drop accounting: everything counts per delivered *copy*
// ---------------------------------------------------------------------------

TEST(NetworkTest, MulticastDropsCountPerCopy) {
  // One multicast suppressed for 2 of its 3 destinations adds exactly 2 to
  // dropped_msgs and 1 to delivered_msgs. Pins the per-copy semantics the
  // chaos harness relies on.
  NetFixture f;
  EchoHost a(&f.sim, f.costs);
  EchoHost b(&f.sim, f.costs);
  EchoHost c(&f.sim, f.costs);
  EchoHost d(&f.sim, f.costs);
  f.net.Attach(&a);
  f.net.Attach(&b);
  f.net.Attach(&c);
  f.net.Attach(&d);
  const Addr group = f.net.CreateMulticastGroup({a.id(), b.id(), c.id(), d.id()});
  f.net.set_drop_filter([&](const Packet&, HostId dst) { return dst != b.id(); });

  f.sim.At(0, [&]() { a.Send(group, SmallRequest(a.id(), 1)); });
  f.sim.RunToCompletion();
  EXPECT_EQ(b.received.size(), 1u);
  EXPECT_EQ(f.net.delivered_msgs(), 1u);
  EXPECT_EQ(f.net.dropped_msgs(), 2u);
  EXPECT_EQ(f.net.dropped_by_fault(), 0u);  // filter drops are not fault drops
}

TEST(NetworkTest, PartitionDropsCrossGroupCopiesOnly) {
  NetFixture f;
  EchoHost a(&f.sim, f.costs);
  EchoHost b(&f.sim, f.costs);
  EchoHost c(&f.sim, f.costs);
  f.net.Attach(&a);
  f.net.Attach(&b);
  f.net.Attach(&c);
  const Addr group = f.net.CreateMulticastGroup({a.id(), b.id(), c.id()});
  // a alone in partition 1; b and c (unlisted) stay in partition 0.
  f.net.SetPartitions({{a.id()}});

  f.sim.At(0, [&]() { a.Send(group, SmallRequest(a.id(), 1)); });   // both copies cut
  f.sim.At(1000, [&]() { b.Send(c.id(), SmallRequest(b.id(), 2)); });  // same side: ok
  f.sim.At(2000, [&]() { b.Send(a.id(), SmallRequest(b.id(), 3)); });  // cross: cut
  f.sim.RunToCompletion();
  EXPECT_TRUE(a.received.empty());
  EXPECT_TRUE(b.received.empty());
  EXPECT_EQ(c.received.size(), 1u);
  EXPECT_EQ(f.net.dropped_by_fault(), 3u);  // 2 multicast copies + 1 unicast
  EXPECT_EQ(f.net.dropped_msgs(), 3u);

  f.net.HealPartitions();
  f.sim.At(Micros(10), [&]() { a.Send(b.id(), SmallRequest(a.id(), 4)); });
  f.sim.RunToCompletion();
  EXPECT_EQ(b.received.size(), 1u);
  EXPECT_EQ(f.net.dropped_by_fault(), 3u);  // healed: counter stops moving
}

TEST(NetworkTest, BlockLinkIsOneWay) {
  NetFixture f;
  EchoHost a(&f.sim, f.costs);
  EchoHost b(&f.sim, f.costs);
  f.net.Attach(&a);
  f.net.Attach(&b);
  f.net.BlockLink(a.id(), b.id());

  f.sim.At(0, [&]() { a.Send(b.id(), SmallRequest(a.id(), 1)); });
  f.sim.At(1000, [&]() { b.Send(a.id(), SmallRequest(b.id(), 2)); });
  f.sim.RunToCompletion();
  EXPECT_TRUE(b.received.empty());        // a -> b cut
  EXPECT_EQ(a.received.size(), 1u);       // b -> a unaffected
  EXPECT_EQ(f.net.dropped_by_fault(), 1u);

  f.net.UnblockLink(a.id(), b.id());
  f.sim.At(Micros(10), [&]() { a.Send(b.id(), SmallRequest(a.id(), 3)); });
  f.sim.RunToCompletion();
  EXPECT_EQ(b.received.size(), 1u);
}

TEST(NetworkTest, LinkDelayIsPerDirection) {
  NetFixture f;
  EchoHost a(&f.sim, f.costs);
  EchoHost b(&f.sim, f.costs);
  f.net.Attach(&a);
  f.net.Attach(&b);
  f.net.SetLinkDelay(a.id(), b.id(), Millis(1));

  f.sim.At(0, [&]() { a.Send(b.id(), SmallRequest(a.id(), 1)); });
  f.sim.At(0, [&]() { b.Send(a.id(), SmallRequest(b.id(), 2)); });
  f.sim.RunToCompletion();
  ASSERT_EQ(b.received.size(), 1u);
  ASSERT_EQ(a.received.size(), 1u);
  EXPECT_GT(b.received[0].at, Millis(1));   // delayed direction
  EXPECT_LT(a.received[0].at, Micros(100)); // reverse unaffected

  f.net.SetLinkDelay(a.id(), b.id(), 0);  // 0 clears
  b.received.clear();
  f.sim.At(f.sim.Now(), [&]() { a.Send(b.id(), SmallRequest(a.id(), 3)); });
  const TimeNs before = f.sim.Now();
  f.sim.RunToCompletion();
  ASSERT_EQ(b.received.size(), 1u);
  EXPECT_LT(b.received[0].at - before, Micros(100));
}

TEST(NetworkTest, ReorderingOvertakesInFlightCopies) {
  NetFixture f;
  EchoHost a(&f.sim, f.costs);
  EchoHost b(&f.sim, f.costs);
  f.net.Attach(&a);
  f.net.Attach(&b);
  f.net.SetReorder(0.5, Micros(300));

  for (uint64_t i = 0; i < 50; ++i) {
    f.sim.At(static_cast<TimeNs>(i) * Micros(20),
             [&, i]() { a.Send(b.id(), SmallRequest(a.id(), i)); });
  }
  f.sim.RunToCompletion();
  ASSERT_EQ(b.received.size(), 50u);
  bool out_of_order = false;
  for (size_t i = 1; i < b.received.size(); ++i) {
    const auto* prev = dynamic_cast<const RpcRequest*>(b.received[i - 1].msg.get());
    const auto* cur = dynamic_cast<const RpcRequest*>(b.received[i].msg.get());
    if (cur->rid().seq < prev->rid().seq) {
      out_of_order = true;
    }
  }
  EXPECT_TRUE(out_of_order);  // seed 1: deterministic inversion

  f.net.ClearFaults();
  b.received.clear();
  const TimeNs t = f.sim.Now();
  for (uint64_t i = 0; i < 20; ++i) {
    f.sim.At(t + static_cast<TimeNs>(i) * Micros(20),
             [&, i]() { a.Send(b.id(), SmallRequest(a.id(), 100 + i)); });
  }
  f.sim.RunToCompletion();
  for (size_t i = 1; i < b.received.size(); ++i) {
    const auto* prev = dynamic_cast<const RpcRequest*>(b.received[i - 1].msg.get());
    const auto* cur = dynamic_cast<const RpcRequest*>(b.received[i].msg.get());
    EXPECT_LT(prev->rid().seq, cur->rid().seq);  // in order again
  }
}

TEST(NetworkTest, ClearFaultsLeavesLossAndFilterAlone) {
  NetFixture f;
  EchoHost a(&f.sim, f.costs);
  EchoHost b(&f.sim, f.costs);
  f.net.Attach(&a);
  f.net.Attach(&b);
  f.net.set_drop_filter([](const Packet&, HostId) { return true; });
  f.net.SetPartitions({{a.id()}});
  f.net.ClearFaults();

  // The partition is gone but the test-owned drop filter still applies.
  f.sim.At(0, [&]() { a.Send(b.id(), SmallRequest(a.id(), 1)); });
  f.sim.RunToCompletion();
  EXPECT_TRUE(b.received.empty());
  EXPECT_EQ(f.net.dropped_by_fault(), 0u);
  EXPECT_EQ(f.net.dropped_msgs(), 1u);
}

}  // namespace
}  // namespace hovercraft
