// Determinism contract tests for the timer-wheel scheduler (ISSUE 4).
//
// The wheel must execute events in exactly the order the reference
// binary-heap core (src/sim/reference_heap.h) does: strictly by time, ties
// by schedule order. These tests replay identical schedules — randomized
// self-scheduling/cancelling workloads and a hand-written golden sequence —
// through both cores and require identical (time, label) traces, then pin
// byte-identical ExportMetrics output across repeated chaos runs.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "src/chaos/runner.h"
#include "src/common/random.h"
#include "src/common/types.h"
#include "src/obs/observability.h"
#include "src/sim/reference_heap.h"
#include "src/sim/simulator.h"

namespace hovercraft {
namespace {

using Trace = std::vector<std::pair<TimeNs, int>>;

// Runs a randomized self-scheduling workload on either scheduler core and
// records the (time, label) execution order. All scheduling decisions are
// drawn from the Rng *inside executed events*, so the decision stream — and
// therefore the comparison — is only meaningful while both cores execute in
// the same order. Any divergence snowballs into a trace mismatch.
//
// Cancel targets are chosen by label from the currently-pending set, never
// from history, so both cores cancel the same logical events (the reference
// core's Cancel accepts stale ids; the wheel's does not — that seed bug is
// pinned separately in sim_test.cc).
template <typename Scheduler>
Trace RunRandomizedScript(uint64_t seed, int max_events) {
  Scheduler sched;
  Rng rng(seed);
  Trace trace;
  std::map<int, uint64_t> pending;  // label -> scheduler-specific event id
  int next_label = 0;
  int scheduled = 0;

  std::function<void(int)> on_fire = [&](int label) {
    pending.erase(label);
    trace.emplace_back(sched.Now(), label);
    // Fan out 0..3 new events across very different distances: same-tick
    // ties, near (level-0/1), mid (level-2), deep wheel (level 3), and far
    // (past the ~4.3s horizon, overflow tier). Mean fanout 1.5 keeps the
    // process supercritical (cancels eat ~0.25/event), so runs reliably hit
    // the max_events cap instead of dying out early.
    const int fanout = static_cast<int>(rng.NextBelow(4));
    for (int i = 0; i < fanout && scheduled < max_events; ++i) {
      TimeNs delta = 0;
      switch (rng.NextBelow(5)) {
        case 0: delta = 0; break;                                        // tie
        case 1: delta = static_cast<TimeNs>(rng.NextBelow(300)); break;  // near
        case 2: delta = static_cast<TimeNs>(rng.NextBelow(100'000)); break;
        case 3: delta = static_cast<TimeNs>(rng.NextBelow(60'000'000)); break;   // deep wheel
        default: delta = static_cast<TimeNs>(rng.NextBelow(6'000'000'000)); break;  // overflow tier
      }
      const int label2 = next_label++;
      ++scheduled;
      pending[label2] = sched.After(delta, [&on_fire, label2]() { on_fire(label2); });
    }
    // Occasionally cancel a pending event, chosen deterministically.
    if (!pending.empty() && rng.NextBelow(4) == 0) {
      auto it = pending.begin();
      std::advance(it, static_cast<long>(rng.NextBelow(pending.size())));
      EXPECT_TRUE(sched.Cancel(it->second));
      trace.emplace_back(sched.Now(), -1 - it->first);  // record the cancel
      pending.erase(it);
    }
  };

  for (int i = 0; i < 16; ++i) {
    const TimeNs when = static_cast<TimeNs>(rng.NextBelow(1'000'000));
    const int label = next_label++;
    ++scheduled;
    pending[label] = sched.At(when, [&on_fire, label]() { on_fire(label); });
  }
  // Drive in deadline slices so the wheel's RunUntil clamping is exercised,
  // then drain.
  for (TimeNs until = 0; until < 200'000'000 && !pending.empty(); until += 7'777'777) {
    sched.RunUntil(until);
  }
  sched.RunToCompletion();
  return trace;
}

TEST(SimDeterminismTest, RandomizedSchedulesMatchReferenceHeap) {
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    const Trace wheel = RunRandomizedScript<Simulator>(seed, 4000);
    const Trace heap = RunRandomizedScript<ReferenceHeapScheduler>(seed, 4000);
    ASSERT_GT(wheel.size(), 100u) << "seed " << seed << ": workload too small to be meaningful";
    ASSERT_EQ(wheel, heap) << "execution order diverged for seed " << seed;
  }
}

// Golden sequence: a hand-written schedule whose execution order under the
// original heap semantics is pinned as a literal. The wheel must reproduce
// it exactly — and so must the reference core, guarding the guard.
template <typename Scheduler>
Trace RunGoldenScript() {
  Scheduler sched;
  Trace trace;
  auto record = [&](int label) { return [&trace, &sched, label]() { trace.emplace_back(sched.Now(), label); }; };
  sched.At(50, record(0));
  sched.At(10, record(1));
  sched.At(10, record(2));                     // tie with label 1: schedule order
  const uint64_t cancel_me = sched.At(30, record(3));
  sched.At(40'000'000, record(4));             // deep wheel (level 3)
  sched.At(5'000'000'000, record(9));          // beyond the 2^32 ns wheel horizon
  sched.At(20, [&, cancel_me]() {
    trace.emplace_back(sched.Now(), 5);
    sched.Cancel(cancel_me);                   // head-of-queue cancellation
    sched.After(0, record(6));                 // same-tick self-schedule
    sched.At(40'000'000, record(7));           // ties with 4 deep in the wheel
    sched.After(65'600, record(8));            // level-2 distance
    sched.At(5'000'000'000, record(10));       // ties with 9 across the overflow tier
  });
  sched.RunUntil(45);                          // deadline between events
  sched.RunUntil(45);                          // idempotent re-run at same deadline
  sched.RunToCompletion();
  return trace;
}

TEST(SimDeterminismTest, GoldenSequencePinned) {
  const Trace expected = {
      {10, 1}, {10, 2}, {20, 5}, {20, 6}, {50, 0},
      {65'620, 8}, {40'000'000, 4}, {40'000'000, 7},
      {5'000'000'000, 9}, {5'000'000'000, 10},
  };
  EXPECT_EQ(RunGoldenScript<ReferenceHeapScheduler>(), expected)
      << "reference heap drifted from the pinned golden sequence";
  EXPECT_EQ(RunGoldenScript<Simulator>(), expected)
      << "timer wheel diverged from the pinned golden sequence";
}

// Byte-identical metrics replay through the observability harness: the same
// pinned-seed chaos run, executed twice on the wheel scheduler, must export
// byte-identical metrics (Cluster::ExportMetrics -> MetricsRegistry JSON).
TEST(SimDeterminismTest, ExportMetricsReplayIsByteIdentical) {
  std::string metrics[2];
  for (int i = 0; i < 2; ++i) {
    obs::Observability::Options oo;
    oo.sampling = true;
    obs::Observability bundle(oo);
    ChaosRunConfig config;
    config.cluster.mode = ClusterMode::kHovercRaftPP;
    config.schedule = "random";
    config.cluster.seed = 17;
    config.cluster.nodes = 3;
    config.clients = 2;
    config.rate_rps_per_client = 2'000;
    config.duration = Millis(60);
    config.settle = Millis(60);
    config.fabric.obs = &bundle;
    RunChaosSchedule(config);
    std::ostringstream out;
    bundle.metrics().DumpJson(out);
    metrics[i] = out.str();
  }
  EXPECT_FALSE(metrics[0].empty());
  EXPECT_EQ(metrics[0], metrics[1]);
}

}  // namespace
}  // namespace hovercraft
