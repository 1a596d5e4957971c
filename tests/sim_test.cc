#include <gtest/gtest.h>

#include <vector>

#include "src/common/random.h"
#include "src/sim/cost_model.h"
#include "src/sim/distributions.h"
#include "src/sim/serial_resource.h"
#include "src/sim/simulator.h"

namespace hovercraft {
namespace {

// ---------------------------------------------------------------------------
// Simulator
// ---------------------------------------------------------------------------

TEST(SimulatorTest, RunsEventsInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.At(30, [&]() { order.push_back(3); });
  sim.At(10, [&]() { order.push_back(1); });
  sim.At(20, [&]() { order.push_back(2); });
  sim.RunToCompletion();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.Now(), 30);
}

TEST(SimulatorTest, TiesBreakByScheduleOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.At(10, [&]() { order.push_back(1); });
  sim.At(10, [&]() { order.push_back(2); });
  sim.At(10, [&]() { order.push_back(3); });
  sim.RunToCompletion();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(SimulatorTest, AfterIsRelative) {
  Simulator sim;
  TimeNs fired_at = -1;
  sim.At(100, [&]() {
    sim.After(50, [&]() { fired_at = sim.Now(); });
  });
  sim.RunToCompletion();
  EXPECT_EQ(fired_at, 150);
}

TEST(SimulatorTest, CancelPreventsExecution) {
  Simulator sim;
  bool ran = false;
  const EventId id = sim.At(10, [&]() { ran = true; });
  EXPECT_TRUE(sim.Cancel(id));
  sim.RunToCompletion();
  EXPECT_FALSE(ran);
}

TEST(SimulatorTest, CancelTwiceFails) {
  Simulator sim;
  const EventId id = sim.At(10, []() {});
  EXPECT_TRUE(sim.Cancel(id));
  EXPECT_FALSE(sim.Cancel(id));
  EXPECT_FALSE(sim.Cancel(kInvalidEvent));
  sim.RunToCompletion();
}

TEST(SimulatorTest, RunUntilStopsAtDeadline) {
  Simulator sim;
  int count = 0;
  sim.At(10, [&]() { ++count; });
  sim.At(20, [&]() { ++count; });
  sim.At(30, [&]() { ++count; });
  sim.RunUntil(20);
  EXPECT_EQ(count, 2);
  EXPECT_EQ(sim.Now(), 20);
  sim.RunToCompletion();
  EXPECT_EQ(count, 3);
}

TEST(SimulatorTest, EventsScheduledDuringRunExecute) {
  Simulator sim;
  int depth = 0;
  std::function<void()> recurse = [&]() {
    if (++depth < 100) {
      sim.After(1, recurse);
    }
  };
  sim.At(0, recurse);
  sim.RunToCompletion();
  EXPECT_EQ(depth, 100);
  EXPECT_EQ(sim.Now(), 99);
}

TEST(SimulatorTest, CountsExecutedEvents) {
  Simulator sim;
  for (int i = 0; i < 5; ++i) {
    sim.At(i, []() {});
  }
  sim.RunToCompletion();
  EXPECT_EQ(sim.executed_events(), 5u);
}

// Satellite fix (ISSUE 4): counter semantics around cancellation. A
// cancelled event is never "executed", pending_events() excludes it
// immediately, and cancelled_events() counts each successful Cancel once.
TEST(SimulatorTest, CancelledEventsCountedSeparatelyFromExecuted) {
  Simulator sim;
  const EventId a = sim.At(10, []() {});
  sim.At(20, []() {});
  const EventId c = sim.At(30, []() {});
  EXPECT_EQ(sim.pending_events(), 3u);
  EXPECT_TRUE(sim.Cancel(a));
  EXPECT_TRUE(sim.Cancel(c));
  EXPECT_EQ(sim.pending_events(), 1u);
  EXPECT_EQ(sim.cancelled_events(), 2u);
  sim.RunToCompletion();
  EXPECT_EQ(sim.executed_events(), 1u);  // cancelled-then-popped must not count
  EXPECT_EQ(sim.cancelled_events(), 2u);
  EXPECT_EQ(sim.pending_events(), 0u);
}

// Regression (seed bug): Cancel() used to accept any previously issued id,
// including one whose event already ran, permanently corrupting
// pending_events(). A handle goes stale the moment its event executes.
TEST(SimulatorTest, CancelAfterExecuteFails) {
  Simulator sim;
  const EventId id = sim.At(10, []() {});
  sim.RunToCompletion();
  EXPECT_FALSE(sim.Cancel(id));
  EXPECT_EQ(sim.cancelled_events(), 0u);
  EXPECT_EQ(sim.pending_events(), 0u);
}

// A recycled slot must not resurrect an old handle: cancelling the stale id
// leaves the new event untouched.
TEST(SimulatorTest, StaleHandleDoesNotAliasRecycledSlot) {
  Simulator sim;
  const EventId old_id = sim.At(10, []() {});
  ASSERT_TRUE(sim.Cancel(old_id));
  bool ran = false;
  sim.At(10, [&]() { ran = true; });  // may reuse the freed slot
  EXPECT_FALSE(sim.Cancel(old_id));
  sim.RunToCompletion();
  EXPECT_TRUE(ran);
}

// Regression (seed bug): RunUntil checked only the queue head's time, so a
// cancelled head let it execute an event *beyond* `until`.
TEST(SimulatorTest, RunUntilWithCancelledHeadDoesNotOverrun) {
  Simulator sim;
  bool late_ran = false;
  const EventId head = sim.At(10, []() {});
  sim.At(20, [&]() { late_ran = true; });
  ASSERT_TRUE(sim.Cancel(head));
  EXPECT_EQ(sim.RunUntil(15), 0u);
  EXPECT_FALSE(late_ran);
  EXPECT_EQ(sim.Now(), 15);
  sim.RunToCompletion();
  EXPECT_TRUE(late_ran);
  EXPECT_EQ(sim.Now(), 20);
}

// Satellite fix (ISSUE 4): At() documents `when >= Now()` and now enforces
// it — scheduling into the past would silently reorder history.
TEST(SimulatorDeathTest, AtInThePastChecks) {
  Simulator sim;
  sim.At(100, []() {});
  sim.RunToCompletion();
  ASSERT_EQ(sim.Now(), 100);
  EXPECT_DEATH(sim.At(50, []() {}), "when");
}

namespace {
struct CountingHandler : EventHandler {
  Simulator* sim = nullptr;
  int fires = 0;
  int rearm_until = 0;
  TimeNs period = 0;
  void OnEvent() override {
    ++fires;
    if (fires < rearm_until) {
      sim->After(period, this);  // re-arm: stores only the pointer
    }
  }
};
}  // namespace

// The EventHandler flavour: recurring events re-arm through a vtable pointer
// with no callback object at all, and interleave correctly with lambdas.
TEST(SimulatorTest, EventHandlerPathFiresAndRearms) {
  Simulator sim;
  CountingHandler handler;
  handler.sim = &sim;
  handler.rearm_until = 5;
  handler.period = 10;
  std::vector<int> order;
  sim.At(10, &handler);
  sim.At(10, [&]() { order.push_back(1); });  // same time, scheduled later
  sim.RunToCompletion();
  EXPECT_EQ(handler.fires, 5);
  EXPECT_EQ(sim.Now(), 50);
  EXPECT_EQ(order, (std::vector<int>{1}));
  EXPECT_EQ(sim.executed_events(), 6u);
}

// A handler event is cancellable like any other.
TEST(SimulatorTest, EventHandlerCancellable) {
  Simulator sim;
  CountingHandler handler;
  handler.sim = &sim;
  handler.rearm_until = 1;
  const EventId id = sim.At(10, &handler);
  EXPECT_TRUE(sim.Cancel(id));
  sim.RunToCompletion();
  EXPECT_EQ(handler.fires, 0);
}

// Far-future events (beyond the wheel horizon, ~4.3s) cross the overflow
// tier and still execute in exact (time, schedule order) order, including
// ties straddling the tier boundary.
TEST(SimulatorTest, FarFutureEventsPreserveOrderAcrossOverflow) {
  Simulator sim;
  std::vector<int> order;
  const TimeNs far = Millis(5'000);                 // > 2^32 ns: overflow tier
  sim.At(far, [&]() { order.push_back(1); });
  sim.At(far + 1, [&]() { order.push_back(2); });
  sim.At(5, [&]() {
    // Scheduled *during* the run at the same far time: must run after the
    // earlier-scheduled overflow event at `far`, before the one at far+1.
    sim.At(far, [&]() { order.push_back(3); });
  });
  sim.At(Millis(100), [&]() { order.push_back(4); });  // deep wheel (level 3)
  sim.RunToCompletion();
  EXPECT_EQ(order, (std::vector<int>{4, 1, 3, 2}));
  EXPECT_EQ(sim.Now(), far + 1);
}

// Cancelling a far-future (overflow-tier) event works and the reclaimed
// slot is accounted exactly once.
TEST(SimulatorTest, CancelFarFutureEvent) {
  Simulator sim;
  bool ran = false;
  const EventId id = sim.At(Millis(6'000), [&]() { ran = true; });
  sim.At(Millis(5'000), []() {});
  EXPECT_TRUE(sim.Cancel(id));
  EXPECT_FALSE(sim.Cancel(id));
  sim.RunToCompletion();
  EXPECT_FALSE(ran);
  EXPECT_EQ(sim.Now(), Millis(5'000));
  EXPECT_EQ(sim.executed_events(), 1u);
  EXPECT_EQ(sim.cancelled_events(), 1u);
  EXPECT_EQ(sim.pending_events(), 0u);
}

// RunUntil stopping mid-wheel must leave later schedules reachable: an event
// scheduled exactly at the paused deadline still runs on the next slice.
TEST(SimulatorTest, ScheduleAtPausedDeadlineRuns) {
  Simulator sim;
  sim.At(Millis(30), []() {});  // parked beyond the first slice
  sim.RunUntil(1000);
  ASSERT_EQ(sim.Now(), 1000);
  bool ran = false;
  sim.At(1000, [&]() { ran = true; });  // exactly at the pause point
  sim.RunUntil(2000);
  EXPECT_TRUE(ran);
  sim.RunToCompletion();
  EXPECT_EQ(sim.Now(), Millis(30));
}

// ---------------------------------------------------------------------------
// SerialResource
// ---------------------------------------------------------------------------

TEST(SerialResourceTest, FifoAndQueueing) {
  Simulator sim;
  SerialResource res(&sim);
  std::vector<TimeNs> done;
  sim.At(0, [&]() {
    res.Submit(100, [&]() { done.push_back(sim.Now()); });
    res.Submit(50, [&]() { done.push_back(sim.Now()); });
  });
  sim.RunToCompletion();
  ASSERT_EQ(done.size(), 2u);
  EXPECT_EQ(done[0], 100);  // first item finishes at t=100
  EXPECT_EQ(done[1], 150);  // second queues behind it
}

TEST(SerialResourceTest, IdleResourceStartsImmediately) {
  Simulator sim;
  SerialResource res(&sim);
  TimeNs done = -1;
  sim.At(500, [&]() { res.Submit(10, [&]() { done = sim.Now(); }); });
  sim.RunToCompletion();
  EXPECT_EQ(done, 510);
}

TEST(SerialResourceTest, TracksQueueLengthAndBusy) {
  Simulator sim;
  SerialResource res(&sim);
  sim.At(0, [&]() {
    res.Submit(100);
    res.Submit(100);
    EXPECT_EQ(res.queue_length(), 2);
    EXPECT_EQ(res.busy_until(), 200);
  });
  sim.RunToCompletion();
  EXPECT_EQ(res.queue_length(), 0);
  EXPECT_EQ(res.total_busy(), 200);
}

TEST(SerialResourceTest, ZeroCostWorkIsOrdered) {
  Simulator sim;
  SerialResource res(&sim);
  std::vector<int> order;
  sim.At(0, [&]() {
    res.Submit(10, [&]() { order.push_back(1); });
    res.Submit(0, [&]() { order.push_back(2); });
  });
  sim.RunToCompletion();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

// ---------------------------------------------------------------------------
// Distributions
// ---------------------------------------------------------------------------

TEST(DistributionsTest, FixedAlwaysSame) {
  FixedDistribution d(Micros(1));
  Rng rng(1);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(d.Sample(rng), Micros(1));
  }
  EXPECT_EQ(d.Mean(), Micros(1));
}

TEST(DistributionsTest, ExponentialMean) {
  ExponentialDistribution d(Micros(10));
  Rng rng(2);
  double sum = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    sum += static_cast<double>(d.Sample(rng));
  }
  EXPECT_NEAR(sum / n, static_cast<double>(Micros(10)), Micros(10) * 0.05);
}

TEST(DistributionsTest, BimodalMatchesPaperShape) {
  // Paper section 7.3: mean 10us, 10% of requests are 10x longer.
  BimodalDistribution d(Micros(10), 0.1, 10.0);
  EXPECT_EQ(d.Mean(), Micros(10));
  EXPECT_EQ(d.long_value(), d.short_value() * 10);
  Rng rng(3);
  int long_count = 0;
  double sum = 0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    const TimeNs s = d.Sample(rng);
    sum += static_cast<double>(s);
    if (s == d.long_value()) {
      ++long_count;
    } else {
      EXPECT_EQ(s, d.short_value());
    }
  }
  EXPECT_NEAR(static_cast<double>(long_count) / n, 0.1, 0.01);
  EXPECT_NEAR(sum / n, static_cast<double>(Micros(10)), Micros(10) * 0.03);
}

// ---------------------------------------------------------------------------
// CostModel
// ---------------------------------------------------------------------------

TEST(CostModelTest, FramesForSizes) {
  CostModel cm;
  EXPECT_EQ(cm.FramesFor(0), 1);
  EXPECT_EQ(cm.FramesFor(1), 1);
  EXPECT_EQ(cm.FramesFor(cm.kMtuPayloadBytes), 1);
  EXPECT_EQ(cm.FramesFor(cm.kMtuPayloadBytes + 1), 2);
  EXPECT_EQ(cm.FramesFor(6000), (6000 + cm.kMtuPayloadBytes - 1) / cm.kMtuPayloadBytes);
}

TEST(CostModelTest, SerializationMatchesLinkRate) {
  CostModel cm;
  // 6KB reply on a 10G link: ~5 frames, ~(6000+5*64)*8/10 ns ≈ 5056 ns.
  const TimeNs t = cm.SerializationDelay(6000);
  EXPECT_GT(t, Micros(4));
  EXPECT_LT(t, Micros(6));
  // A tiny message still pays one frame.
  EXPECT_GT(cm.SerializationDelay(8), 0);
}

TEST(CostModelTest, CpuScalesWithSize) {
  CostModel cm;
  EXPECT_GT(cm.RxCpu(512), cm.RxCpu(24));
  EXPECT_GT(cm.TxCpu(6000), cm.TxCpu(512));
  // Multi-frame messages pay per-frame cost.
  EXPECT_GE(cm.RxCpu(cm.kMtuPayloadBytes * 3), 3 * cm.kPerFrameRxNs);
}

}  // namespace
}  // namespace hovercraft
