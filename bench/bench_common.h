// Shared configuration and reporting helpers for the figure/table benches.
// Each bench binary regenerates one table or figure of the paper (see
// DESIGN.md for the experiment index and EXPERIMENTS.md for results).
#ifndef BENCH_BENCH_COMMON_H_
#define BENCH_BENCH_COMMON_H_

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>

#include "src/app/synthetic.h"
#include "src/common/flags.h"
#include "src/core/cluster.h"
#include "src/loadgen/experiment.h"
#include "src/loadgen/workload.h"
#include "src/obs/critical_path.h"
#include "src/obs/observability.h"

namespace hovercraft {
namespace benchutil {

// The paper's SLO: 99th percentile within 500us (section 7).
constexpr TimeNs kSlo = Micros(500);

inline ClusterConfig MakeClusterConfig(ClusterMode mode, int32_t nodes,
                                       ReplierPolicy policy = ReplierPolicy::kLeaderOnly,
                                       int64_t bounded_queue = 128, uint64_t seed = 1) {
  ClusterConfig config;
  config.mode = mode;
  config.nodes = nodes;
  config.seed = seed;
  config.replier_policy = policy;
  config.bounded_queue_depth = bounded_queue;
  config.app_factory = []() { return std::make_unique<SyntheticService>(); };
  return config;
}

inline ExperimentConfig MakeSyntheticExperiment(ClusterMode mode, int32_t nodes,
                                                const SyntheticWorkloadConfig& workload,
                                                ReplierPolicy policy = ReplierPolicy::kLeaderOnly,
                                                int64_t bounded_queue = 128, uint64_t seed = 1) {
  ExperimentConfig config;
  config.cluster = MakeClusterConfig(mode, nodes, policy, bounded_queue, seed);
  config.workload_factory = [workload]() { return std::make_unique<SyntheticWorkload>(workload); };
  return config;
}

inline void PrintHeader(const char* title, const char* paper_ref) {
  std::printf("=====================================================================\n");
  std::printf("%s\n", title);
  std::printf("Reproduces: %s\n", paper_ref);
  std::printf("=====================================================================\n");
}

inline void PrintCurvePoint(const char* system, const LoadMetrics& m) {
  std::printf("%-14s offered=%9.0f achieved=%9.0f rps  p50=%7.1fus  p99=%7.1fus  "
              "nack=%6.0f lost=%llu\n",
              system, m.offered_rps, m.achieved_rps, static_cast<double>(m.p50_ns) / 1e3,
              static_cast<double>(m.p99_ns) / 1e3, m.nack_rps,
              static_cast<unsigned long long>(m.lost));
}

// Shared observability plumbing for the bench binaries. Every fig*/table*
// bench takes the same flags and emits the same metrics JSON shape through
// the cluster-wide registry (docs/observability.md):
//
//   --metrics-out=PATH      metrics registry JSON: per-load-point summaries
//                           plus per-node counters under "<system>/r<rps>/"
//   --sample-interval-us=N  queue-depth sampling period (default 100)
//
// A bench with flags of its own declares them in a Flags table and hands it
// over; BenchIo adds the two above and parses the lot. Without flags no
// Observability is allocated, so the simulation runs on the disabled fast
// path and the bench output is unchanged. Any other argument prints the
// usage and exits 2 before anything is simulated. For a Chrome trace of one
// run use tools/chaos_runner --trace-out.
class BenchIo {
 public:
  BenchIo(int argc, char** argv) : BenchIo(argc, argv, Flags(ProgramName(argv[0]))) {}
  BenchIo(int argc, char** argv, Flags flags) {
    flags.Add("--metrics-out=PATH", &metrics_out_, "write the metrics registry as JSON");
    flags.AddDuration("--sample-interval-us=N", &sample_interval_, Micros(1),
                      "queue-depth sampling period (default 100)");
    flags.ParseOrExit(argc, argv);
    if (!metrics_out_.empty()) {
      obs::Observability::Options oo;
      oo.sampling = true;
      oo.sample_interval = sample_interval_;
      obs_ = std::make_unique<obs::Observability>(oo);
    }
  }

  obs::Observability* obs() { return obs_.get(); }

  // "HovercRaft/r150000/" — canonical per-load-point metric scope.
  static std::string PointScope(const char* system, double offered_rps) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%s/r%lld/", system,
                  static_cast<long long>(std::llround(offered_rps)));
    return buf;
  }

  // Wires the bundle into one run; `scope` prefixes every metric the cluster
  // exports. No-ops when observability is off.
  void Attach(ExperimentConfig* config, const std::string& scope) {
    if (obs_ == nullptr) return;
    config->fabric.obs = obs_.get();
    config->cluster.obs_scope = scope;
  }
  // For a hand-built cluster: the scope only; the bundle goes on its fabric
  // (FabricConfig{.obs = io.obs()}).
  void Attach(ClusterConfig* config, const std::string& scope) {
    if (obs_ == nullptr) return;
    config->obs_scope = scope;
  }

  // Writes the uniform per-load-point summary into the registry. Rates are
  // rounded to integer RPS so the JSON stays byte-deterministic.
  void RecordLoadPoint(const std::string& scope, const LoadMetrics& m) {
    if (obs_ == nullptr) return;
    obs::MetricsRegistry& reg = obs_->metrics();
    reg.SetGauge(scope + "load.offered_rps", std::llround(m.offered_rps));
    reg.SetGauge(scope + "load.achieved_rps", std::llround(m.achieved_rps));
    reg.SetGauge(scope + "load.nack_rps", std::llround(m.nack_rps));
    reg.SetCounter(scope + "load.sent", m.sent);
    reg.SetCounter(scope + "load.completed", m.completed);
    reg.SetCounter(scope + "load.nacked", m.nacked);
    reg.SetCounter(scope + "load.lost", m.lost);
    reg.SetGauge(scope + "latency.mean_ns", m.mean_ns);
    reg.SetGauge(scope + "latency.p50_ns", m.p50_ns);
    reg.SetGauge(scope + "latency.p99_ns", m.p99_ns);
  }

  // Records the result of an SLO search under `scope` ("VanillaRaft/24B/").
  void RecordSlo(const std::string& scope, const SloResult& r) {
    if (obs_ == nullptr) return;
    obs::MetricsRegistry& reg = obs_->metrics();
    reg.SetGauge(scope + "slo.max_rps", std::llround(r.max_rps_under_slo));
    reg.SetGauge(scope + "slo.offered_at_max", std::llround(r.offered_at_max));
    reg.SetGauge(scope + "slo.p99_at_max_ns", r.p99_at_max);
  }

  void RecordGauge(const std::string& name, int64_t value) {
    if (obs_ != nullptr) obs_->metrics().SetGauge(name, value);
  }
  void RecordCounter(const std::string& name, uint64_t value) {
    if (obs_ != nullptr) obs_->metrics().SetCounter(name, value);
  }

  // The standard latency/throughput curve step shared by the fig benches:
  // run one load point with metrics scoped under "<system>/r<rps>/", print
  // the usual curve line plus the tail_attribution table (per-stage blame
  // over the p50/p99/p99.9 populations, from the always-on flight recorder),
  // and record the uniform summary. Each attribution row's per-stage blame
  // must sum to its end-to-end latency within 1% — a violated sum marks the
  // whole bench failed (the blame decomposition is a checked output, not a
  // best-effort annotation).
  LoadMetrics RunCurvePoint(const char* system, ExperimentConfig config, double rate_rps) {
    const std::string scope = PointScope(system, rate_rps);
    Attach(&config, scope);
    obs::CriticalPath critical_path;
    config.cluster.critical_path = &critical_path;
    const LoadMetrics m = RunLoadPoint(config, rate_rps);
    PrintCurvePoint(system, m);
    RecordLoadPoint(scope, m);
    EmitTailAttribution(scope, critical_path);
    return m;
  }

  // Prints + records the critical-path blame table for one load point and
  // enforces the telescoping-sum acceptance gate.
  void EmitTailAttribution(const std::string& scope, const obs::CriticalPath& critical_path) {
    if (critical_path.completed() == 0) {
      return;
    }
    std::printf("%s", critical_path.AttributionTable(scope).c_str());
    const double err = critical_path.MaxSumError();
    if (err > 0.01) {
      std::fprintf(stderr,
                   "tail_attribution: blame sum off by %.3f%% (> 1%%) at %s — "
                   "stage instrumentation lost a segment\n",
                   err * 100.0, scope.c_str());
      Fail();
    }
    if (obs_ != nullptr) {
      obs::MetricsRegistry& reg = obs_->metrics();
      for (const obs::CriticalPath::Row& row : critical_path.Attribution()) {
        const std::string base = scope + "tail." + row.population + ".";
        reg.SetGauge(base + "e2e_ns", std::llround(row.e2e_ns));
        reg.SetGauge(base + "count", static_cast<int64_t>(row.count));
        for (size_t s = 0; s < obs::kStageCount; ++s) {
          if (row.blame_ns[s] > 0) {
            reg.SetGauge(base + "blame." + obs::StageName(static_cast<obs::Stage>(s)) + "_ns",
                         std::llround(row.blame_ns[s]));
          }
        }
      }
    }
  }

  // SLO-search step shared by fig8/fig9: scope the cluster metrics and the
  // search summary under `scope` (the last probed point wins the cluster
  // counters; the summary gauges describe the search result).
  SloResult RunSloPoint(const std::string& scope, ExperimentConfig config, TimeNs slo_p99,
                        double lo_rps, double hi_rps) {
    Attach(&config, scope);
    const SloResult r = FindMaxThroughputUnderSlo(config, slo_p99, lo_rps, hi_rps);
    RecordSlo(scope, r);
    return r;
  }

  // Marks the run failed: Finish() will return a nonzero exit code after
  // still writing the requested outputs. For benches that double as
  // acceptance checks (e.g. fig9_live_rescale, fig12_failover).
  void Fail() { failed_ = true; }

  // Writes the requested output files; call once at the end of main.
  // Returns the process exit code (0; 1 if Fail() was called; 2 on I/O
  // failure).
  int Finish() {
    if (obs_ == nullptr) return failed_ ? 1 : 0;
    std::ofstream out(metrics_out_, std::ios::binary);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", metrics_out_.c_str());
      return 2;
    }
    obs_->metrics().DumpJson(out);
    std::printf("metrics: %zu entries -> %s\n", obs_->metrics().size(), metrics_out_.c_str());
    return failed_ ? 1 : 0;
  }

 private:
  static std::string ProgramName(const char* argv0) {
    const std::string path = argv0;
    return path.substr(path.rfind('/') + 1);
  }

  std::string metrics_out_;
  TimeNs sample_interval_ = Micros(100);
  bool failed_ = false;
  std::unique_ptr<obs::Observability> obs_;
};

}  // namespace benchutil
}  // namespace hovercraft

#endif  // BENCH_BENCH_COMMON_H_
