// Parallel seed-sweep driver (ISSUE 4).
//
// Fans a grid of (system, offered rate, seed) load points out over a pool of
// worker threads — one independent Simulator per load point, so every point
// is exactly the run the serial benches would produce — and merges the
// results into one metrics JSON deterministically: points are recorded in
// grid order regardless of which worker finished first, so `-j 16` writes a
// byte-identical file to `-j 1`. `--verify` proves it on every invocation by
// running the grid both ways and comparing the merged bytes.
//
// Defaults reproduce the Figure 7 grid (4 systems x 8 offered rates, S=1us,
// 24B/8B, N=3, reply load balancing off) across `--seeds` consecutive seeds.
//
// Usage (`sweep --help` lists every flag):
//   tools/sweep -j $(nproc) --seeds=5 --metrics-out=sweep.json
//   tools/sweep --verify -j 2 --seeds=2 --rates=20000,50000 --modes=hovercraft++
//
// Exit status: 0 on success, 1 if --verify finds the outputs differ, 2 on a
// bad command line or an unwritable --metrics-out.
//
// Merged metric names:
//   <system>/s<seed>/r<rps>/load.*|latency.*   per-point summary (the same
//                                              shape the fig benches record)
//   <system>/r<rps>/agg/...                    across-seed aggregates
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "src/common/flags.h"
#include "src/common/logging.h"
#include "src/loadgen/experiment.h"
#include "src/obs/metrics.h"

namespace hovercraft {
namespace {

struct Options {
  int32_t jobs = 1;
  int32_t seeds = 3;
  uint64_t base_seed = 42;
  std::vector<double> rates = {50e3, 200e3, 400e3, 600e3, 800e3, 900e3, 950e3, 1000e3};
  std::vector<ClusterMode> systems = {ClusterMode::kVanillaRaft, ClusterMode::kHovercRaft,
                                      ClusterMode::kHovercRaftPP, ClusterMode::kUnreplicated};
  int64_t warmup_ms = 80;
  int64_t measure_ms = 200;
  std::string metrics_out;
  bool verify = false;
};

// One cell of the sweep grid. Tasks are generated — and always recorded — in
// (system, rate, seed) order; workers may execute them in any order.
struct Task {
  ClusterMode system;
  double rate;
  uint64_t seed;
};

std::vector<Task> BuildGrid(const Options& opt) {
  std::vector<Task> grid;
  for (ClusterMode system : opt.systems) {
    for (double rate : opt.rates) {
      for (int s = 0; s < opt.seeds; ++s) {
        grid.push_back(Task{system, rate, opt.base_seed + static_cast<uint64_t>(s)});
      }
    }
  }
  return grid;
}

LoadMetrics RunTask(const Task& task, const Options& opt) {
  SyntheticWorkloadConfig workload;  // the fig7 workload: S=1us, 24B/8B
  workload.request_bytes = 24;
  workload.reply_bytes = 8;
  workload.service_time = std::make_shared<FixedDistribution>(Micros(1));
  ExperimentConfig config = benchutil::MakeSyntheticExperiment(
      task.system, 3, workload, ReplierPolicy::kLeaderOnly, 128, task.seed);
  config.warmup = Millis(opt.warmup_ms);
  config.measure = Millis(opt.measure_ms);
  return RunLoadPoint(config, task.rate);
}

// Executes the whole grid on `jobs` threads. The result vector is indexed by
// task position, so completion order cannot leak into the output.
std::vector<LoadMetrics> RunGrid(const std::vector<Task>& grid, const Options& opt, int jobs) {
  std::vector<LoadMetrics> results(grid.size());
  std::atomic<size_t> next{0};
  auto worker = [&]() {
    while (true) {
      const size_t i = next.fetch_add(1);
      if (i >= grid.size()) {
        return;
      }
      results[i] = RunTask(grid[i], opt);
    }
  };
  if (jobs <= 1) {
    worker();
    return results;
  }
  std::vector<std::thread> pool;
  const int n = std::min<int>(jobs, static_cast<int>(grid.size()));
  pool.reserve(static_cast<size_t>(n));
  for (int t = 0; t < n; ++t) {
    pool.emplace_back(worker);
  }
  for (std::thread& t : pool) {
    t.join();
  }
  return results;
}

std::string PointScope(const Task& task) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "%s/s%llu/r%lld/", ClusterModeName(task.system),
                static_cast<unsigned long long>(task.seed),
                static_cast<long long>(std::llround(task.rate)));
  return buf;
}

// Deterministic merge: walk the grid in generation order and record each
// point's summary (same shape as BenchIo::RecordLoadPoint), then per-(system,
// rate) aggregates across seeds. Everything is integer-rounded, so the JSON
// bytes depend only on the grid and the per-point results.
void Merge(const std::vector<Task>& grid, const std::vector<LoadMetrics>& results,
           const Options& opt, obs::MetricsRegistry& reg) {
  for (size_t i = 0; i < grid.size(); ++i) {
    const LoadMetrics& m = results[i];
    const std::string scope = PointScope(grid[i]);
    reg.SetGauge(scope + "load.offered_rps", std::llround(m.offered_rps));
    reg.SetGauge(scope + "load.achieved_rps", std::llround(m.achieved_rps));
    reg.SetGauge(scope + "load.nack_rps", std::llround(m.nack_rps));
    reg.SetCounter(scope + "load.sent", m.sent);
    reg.SetCounter(scope + "load.completed", m.completed);
    reg.SetCounter(scope + "load.nacked", m.nacked);
    reg.SetCounter(scope + "load.lost", m.lost);
    reg.SetGauge(scope + "latency.mean_ns", static_cast<int64_t>(m.mean_ns));
    reg.SetGauge(scope + "latency.p50_ns", m.p50_ns);
    reg.SetGauge(scope + "latency.p99_ns", m.p99_ns);
  }
  // Seeds for one (system, rate) are adjacent in grid order.
  const size_t seeds = static_cast<size_t>(opt.seeds);
  for (size_t base = 0; base + seeds <= grid.size(); base += seeds) {
    double achieved_sum = 0;
    double p99_sum = 0;
    int64_t p99_max = 0;
    uint64_t lost = 0;
    for (size_t s = 0; s < seeds; ++s) {
      const LoadMetrics& m = results[base + s];
      achieved_sum += m.achieved_rps;
      p99_sum += static_cast<double>(m.p99_ns);
      p99_max = std::max(p99_max, m.p99_ns);
      lost += m.lost;
    }
    char buf[96];
    std::snprintf(buf, sizeof(buf), "%s/r%lld/agg/", ClusterModeName(grid[base].system),
                  static_cast<long long>(std::llround(grid[base].rate)));
    const std::string scope = buf;
    reg.SetGauge(scope + "seeds", static_cast<int64_t>(seeds));
    reg.SetGauge(scope + "achieved_rps_mean",
                 std::llround(achieved_sum / static_cast<double>(seeds)));
    reg.SetGauge(scope + "p99_ns_mean", std::llround(p99_sum / static_cast<double>(seeds)));
    reg.SetGauge(scope + "p99_ns_max", p99_max);
    reg.SetCounter(scope + "lost_total", lost);
  }
}

std::string RunAndMerge(const std::vector<Task>& grid, const Options& opt, int jobs) {
  const std::vector<LoadMetrics> results = RunGrid(grid, opt, jobs);
  obs::MetricsRegistry reg;
  Merge(grid, results, opt, reg);
  std::ostringstream out;
  reg.DumpJson(out);
  return out.str();
}

int Main(int argc, char** argv) {
  Options opt;
  Flags flags("sweep");
  flags.Add("-j N", &opt.jobs, "worker threads (default 1)");
  flags.Add("--jobs=N", &opt.jobs, "same as -j");
  flags.Add("--seeds=N", &opt.seeds, "consecutive seeds per grid point (default 3)");
  flags.Add("--seed=BASE", &opt.base_seed, "first seed (default 42, the benches' pinned seed)");
  flags.AddList("--rates=RPS,...", &opt.rates, ParseNumber<double>,
                "offered rates in rps (default: the fig7 list)");
  flags.AddList("--modes=MODE,...", &opt.systems, ParseClusterMode,
                "subset of vanilla,hovercraft,hovercraft++,unrep");
  flags.Add("--warmup-ms=N", &opt.warmup_ms, "per-point warmup window (default 80)");
  flags.Add("--measure-ms=N", &opt.measure_ms, "per-point measurement window (default 200)");
  flags.Add("--metrics-out=PATH", &opt.metrics_out, "merged metrics JSON");
  flags.Add("--verify", &opt.verify,
            "run the grid with --jobs and again serially; fail\n"
            "unless the merged outputs are byte-identical");
  flags.ParseOrExit(argc, argv);
  if (opt.jobs < 1 || opt.seeds < 1) {
    std::fprintf(stderr, "error: --jobs and --seeds must be >= 1\n");
    return 2;
  }

  // Workers only run simulations and write their own result slot, but the
  // log sink is process-global: drop to errors-only up front rather than
  // interleaving warning lines from concurrent runs.
  if (opt.jobs > 1) {
    SetLogLevel(LogLevel::kError);
  }

  const std::vector<Task> grid = BuildGrid(opt);
  std::printf("sweep: %zu load points (%zu systems x %zu rates x %d seeds), %d worker(s)\n",
              grid.size(), opt.systems.size(), opt.rates.size(), opt.seeds, opt.jobs);

  const std::string merged = RunAndMerge(grid, opt, opt.jobs);
  if (opt.verify) {
    const std::string serial = RunAndMerge(grid, opt, 1);
    if (merged != serial) {
      std::fprintf(stderr, "verify: FAILED — -j %d output differs from serial output\n",
                   opt.jobs);
      return 1;
    }
    std::printf("verify: OK — -j %d merged metrics byte-identical to serial (%zu bytes)\n",
                opt.jobs, merged.size());
  }
  if (!opt.metrics_out.empty()) {
    std::ofstream out(opt.metrics_out, std::ios::binary);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", opt.metrics_out.c_str());
      return 2;
    }
    out << merged;
    std::printf("metrics: %zu bytes -> %s\n", merged.size(), opt.metrics_out.c_str());
  }
  return 0;
}

}  // namespace
}  // namespace hovercraft

int main(int argc, char** argv) { return hovercraft::Main(argc, argv); }
