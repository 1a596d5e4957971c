// Wall-clock throughput of the simulator scheduling core (ISSUE 4).
//
// Runs the same self-sustaining event workloads through the production
// timer-wheel Simulator and the preserved pre-PR binary-heap core
// (src/sim/reference_heap.h), and reports events/sec and ns/event for four
// event-queue shapes:
//
//   uniform      steady window of timers 0-10us out (the packet-delivery mix)
//   bimodal      90% short (<2us), 10% long (<1ms) — service-time tails
//   cancel-heavy every fire arms two timers and cancels one (retransmit-
//                timer pattern: armed, then cancelled on completion)
//   far-future   timers up to 100ms out (election-timeout distances), living
//                in the wheel's deepest level
//
// Callbacks are single-pointer captures, inline in both cores, so neither
// side pays allocation costs and the ratio isolates the scheduling data
// structures themselves.
//
// Both cores execute the identical event sequence (checksums are compared),
// so the ratio is a pure scheduling-cost comparison. Results are printed and,
// with --metrics-out=BENCH_sim.json, recorded via the metrics registry:
//
//   sim_throughput/<shape>/wheel/ps_per_event   picoseconds, integer
//   sim_throughput/<shape>/wheel/events_per_sec
//   sim_throughput/<shape>/heap/...             same, for the reference core
//   sim_throughput/<shape>/speedup_pct          100 * heap_ps / wheel_ps
//
// Beyond the standard BenchIo set it takes --events=N and --seed=S (see
// `sim_throughput --help`).
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_common.h"
#include "src/common/check.h"
#include "src/common/random.h"
#include "src/obs/flight_recorder.h"
#include "src/sim/reference_heap.h"
#include "src/sim/simulator.h"

namespace hovercraft {
namespace {

enum class Shape { kUniform, kBimodal, kCancelHeavy, kFarFuture };

struct ShapeDef {
  Shape shape;
  const char* name;
};

constexpr ShapeDef kShapes[] = {
    {Shape::kUniform, "uniform"},
    {Shape::kBimodal, "bimodal"},
    {Shape::kCancelHeavy, "cancel_heavy"},
    {Shape::kFarFuture, "far_future"},
};

TimeNs DrawDelay(Shape shape, Rng& rng) {
  switch (shape) {
    case Shape::kUniform:
      return static_cast<TimeNs>(rng.NextBelow(10'000));
    case Shape::kBimodal:
      return rng.NextBelow(10) == 0 ? static_cast<TimeNs>(rng.NextBelow(1'000'000))
                                    : static_cast<TimeNs>(rng.NextBelow(2'000));
    case Shape::kCancelHeavy:
      // Floor of 1ns so a just-armed timer is always still cancellable.
      return 1 + static_cast<TimeNs>(rng.NextBelow(10'000));
    case Shape::kFarFuture:
      return static_cast<TimeNs>(rng.NextBelow(100'000'000));
  }
  return 0;
}

struct RunResult {
  double seconds = 0;
  int64_t scheduled = 0;
  uint64_t executed = 0;
  int64_t cancelled = 0;
  uint64_t checksum = 0;

  double EventsPerSec() const { return static_cast<double>(scheduled) / seconds; }
  int64_t PsPerEvent() const {
    return static_cast<int64_t>(seconds * 1e12 / static_cast<double>(scheduled));
  }
};

// One self-sustaining run: keep a window of outstanding timers; each fired
// event draws its successors from the shared Rng. Both cores execute the
// identical sequence (same seed, same order), so their checksums must agree.
// The scheduled callback is `[this] { Fire(); }` — 8 bytes, inline in the
// wheel's InlineFunction and in std::function's small-object buffer alike.
template <typename Scheduler>
struct Workload {
  Scheduler sim;
  Rng rng;
  Shape shape;
  int64_t target;
  // When set, every fr_interval-th fired event also records one
  // flight-recorder event, pricing the always-on black box against the bare
  // loop (the CI perf-smoke gate). interval=10 is the density the gate was set
  // at; interval=1 is what cluster runs record since busy intervals became
  // recorder events (a 3-node HovercRaft cluster at 600 kRPS records about
  // one FR event per simulator event, up from one per two). The null check is
  // exactly the production recorder-absent fast path, so both sides of the
  // comparison pay it.
  obs::FlightRecorder* fr = nullptr;
  int fr_interval = 1;
  int fr_countdown = 1;
  RunResult r;

  Workload(Shape s, uint64_t seed, int64_t target_events)
      : rng(seed), shape(s), target(target_events) {}

  void Fire() {
    const TimeNs now = sim.Now();
    r.checksum = r.checksum * 1099511628211ull + static_cast<uint64_t>(now) + 1;
    ++r.executed;
    if (fr != nullptr && --fr_countdown == 0) {
      fr_countdown = fr_interval;
      fr->Record(now, 0, obs::FrType::kStage, r.executed, static_cast<uint64_t>(now));
    }
    if (r.scheduled >= target) {
      return;  // drain phase
    }
    if (shape == Shape::kCancelHeavy) {
      // Retransmit-timer pattern: arm two, immediately cancel one of them
      // (both are strictly in the future, so the cancel always lands).
      const uint64_t a = sim.After(DrawDelay(shape, rng), [this] { Fire(); });
      const uint64_t b = sim.After(DrawDelay(shape, rng), [this] { Fire(); });
      r.scheduled += 2;
      const bool ok = sim.Cancel(rng.NextBelow(2) == 0 ? a : b);
      HC_CHECK(ok);
      ++r.cancelled;
    } else {
      sim.After(DrawDelay(shape, rng), [this] { Fire(); });
      ++r.scheduled;
    }
  }
};

template <typename Scheduler>
RunResult RunShape(Shape shape, uint64_t seed, int64_t target_events,
                   obs::FlightRecorder* fr = nullptr, int fr_interval = 1) {
  constexpr int kWindow = 4096;
  auto w = std::make_unique<Workload<Scheduler>>(shape, seed, target_events);
  w->fr = fr;
  w->fr_interval = fr_interval;
  w->fr_countdown = fr_interval;

  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < kWindow; ++i) {
    Workload<Scheduler>* p = w.get();
    w->sim.At(DrawDelay(shape, w->rng), [p] { p->Fire(); });
    ++w->r.scheduled;
  }
  w->sim.RunToCompletion();
  const auto stop = std::chrono::steady_clock::now();
  w->r.seconds = std::chrono::duration<double>(stop - start).count();
  HC_CHECK_EQ(static_cast<int64_t>(w->r.executed) + w->r.cancelled, w->r.scheduled);
  return w->r;
}

void Run(benchutil::BenchIo& io, uint64_t seed, int64_t events) {
  benchutil::PrintHeader("Simulator core throughput: timer wheel vs reference heap",
                         "ISSUE 4 perf baseline (events/sec, ns/event by queue shape)");
  std::printf("events/shape: %lld   seed: %llu\n\n", static_cast<long long>(events),
              static_cast<unsigned long long>(seed));
  std::printf("%-13s %14s %14s %14s %14s %9s\n", "shape", "wheel ev/s", "heap ev/s",
              "wheel ns/ev", "heap ns/ev", "speedup");

  io.RecordGauge("sim_throughput/config/events", events);
  io.RecordGauge("sim_throughput/config/seed", static_cast<int64_t>(seed));

  for (const ShapeDef& def : kShapes) {
    const RunResult heap = RunShape<ReferenceHeapScheduler>(def.shape, seed, events);
    const RunResult wheel = RunShape<Simulator>(def.shape, seed, events);
    // Identical virtual execution is a precondition for comparing costs.
    HC_CHECK_EQ(wheel.checksum, heap.checksum);
    HC_CHECK_EQ(wheel.executed, heap.executed);

    const double speedup =
        static_cast<double>(heap.PsPerEvent()) / static_cast<double>(wheel.PsPerEvent());
    std::printf("%-13s %14.0f %14.0f %14.1f %14.1f %8.2fx\n", def.name, wheel.EventsPerSec(),
                heap.EventsPerSec(), static_cast<double>(wheel.PsPerEvent()) / 1000.0,
                static_cast<double>(heap.PsPerEvent()) / 1000.0, speedup);

    const std::string scope = std::string("sim_throughput/") + def.name + "/";
    io.RecordGauge(scope + "wheel/ps_per_event", wheel.PsPerEvent());
    io.RecordGauge(scope + "wheel/events_per_sec",
                   static_cast<int64_t>(wheel.EventsPerSec()));
    io.RecordGauge(scope + "heap/ps_per_event", heap.PsPerEvent());
    io.RecordGauge(scope + "heap/events_per_sec", static_cast<int64_t>(heap.EventsPerSec()));
    io.RecordGauge(scope + "speedup_pct",
                   heap.PsPerEvent() * 100 / std::max<int64_t>(1, wheel.PsPerEvent()));
    io.RecordCounter(scope + "executed", wheel.executed);
    io.RecordCounter(scope + "cancelled", static_cast<uint64_t>(wheel.cancelled));
  }
  std::printf("\nspeedup = heap ns/event over wheel ns/event; >1 means the wheel is faster.\n");

  // Always-on flight-recorder tax: uniform shape on the production wheel at
  // two recording densities. The acceptance gate (CI perf-smoke) requires
  // the interval=10 overhead_pct <= 105. interval=1 records on every
  // single simulator event — about the density of a loaded cluster run — and
  // is gated loosely (<= 120) as a backstop against the record path itself
  // getting an order of magnitude slower. Off/on runs are
  // interleaved and each takes its best of 5, so frequency drift hits all
  // sides alike.
  obs::FlightRecorder fr(obs::FlightRecorder::kDefaultDepth);
  int64_t off_ps = INT64_MAX;
  int64_t on1_ps = INT64_MAX;
  int64_t on10_ps = INT64_MAX;
  for (int i = 0; i < 5; ++i) {
    off_ps = std::min(off_ps,
                      RunShape<Simulator>(Shape::kUniform, seed, events, nullptr).PsPerEvent());
    on10_ps = std::min(
        on10_ps, RunShape<Simulator>(Shape::kUniform, seed, events, &fr, 10).PsPerEvent());
    on1_ps = std::min(
        on1_ps, RunShape<Simulator>(Shape::kUniform, seed, events, &fr, 1).PsPerEvent());
  }
  const int64_t overhead_pct = on10_ps * 100 / std::max<int64_t>(1, off_ps);
  const int64_t worst_case_pct = on1_ps * 100 / std::max<int64_t>(1, off_ps);
  std::printf("\nflight recorder (uniform/wheel, best of 5): off %.1f ns/ev, "
              "on %.1f ns/ev at 1-in-10 density (cost %lld%%), "
              "%.1f ns/ev at 1-in-1 worst case (cost %lld%%)\n",
              static_cast<double>(off_ps) / 1000.0, static_cast<double>(on10_ps) / 1000.0,
              static_cast<long long>(overhead_pct), static_cast<double>(on1_ps) / 1000.0,
              static_cast<long long>(worst_case_pct));
  io.RecordGauge("sim_throughput/flight_recorder/off_ps_per_event", off_ps);
  io.RecordGauge("sim_throughput/flight_recorder/on_ps_per_event", on10_ps);
  io.RecordGauge("sim_throughput/flight_recorder/overhead_pct", overhead_pct);
  io.RecordGauge("sim_throughput/flight_recorder/worst_case_ps_per_event", on1_ps);
  io.RecordGauge("sim_throughput/flight_recorder/worst_case_overhead_pct", worst_case_pct);
}

}  // namespace
}  // namespace hovercraft

int main(int argc, char** argv) {
  int64_t events = 1'000'000;
  uint64_t seed = 42;
  hovercraft::Flags flags("sim_throughput");
  flags.Add("--events=N", &events, "scheduled events per shape per core (default 1000000)");
  flags.Add("--seed=S", &seed, "workload seed (default 42; CI pins this)");
  hovercraft::benchutil::BenchIo io(argc, argv, std::move(flags));
  hovercraft::Run(io, seed, events);
  return io.Finish();
}
