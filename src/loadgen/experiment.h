// Experiment harness: builds a cluster + client fleet, drives a load point,
// and searches for the maximum throughput under a tail-latency SLO — the two
// measurements every figure of the paper's evaluation is built from.
#ifndef SRC_LOADGEN_EXPERIMENT_H_
#define SRC_LOADGEN_EXPERIMENT_H_

#include <functional>
#include <memory>
#include <string_view>
#include <vector>

#include "src/core/cluster.h"
#include "src/loadgen/client.h"
#include "src/loadgen/workload.h"

namespace hovercraft {

// A scripted AddServer/RemoveServer of `node`, `at` after the start of load;
// proposed through the cluster's management plane, which retries until the
// change commits (ExperimentConfig and ChaosRunConfig both take them).
struct MembershipEvent {
  TimeNs at = 0;
  NodeId node = kInvalidNode;
};

// "T:N" — node N, T microseconds in: one item of the --add-server-at-us /
// --remove-server-at-us flags.
bool ParseMembershipEvent(std::string_view item, MembershipEvent* out);

struct ExperimentConfig {
  ClusterConfig cluster;
  // The run's fabric (recorder depth, observability bundle). Its network
  // and the clients are seeded from cluster.seed.
  FabricConfig fabric;
  std::function<std::unique_ptr<Workload>()> workload_factory;
  // Offered load is split evenly over this many client machines so client
  // NICs/CPU never bottleneck the system under test.
  int32_t client_count = 8;
  TimeNs warmup = Millis(80);
  TimeNs measure = Millis(200);
  // Extra simulated time after the window closes so in-window requests can
  // drain; whatever is still outstanding counts as lost with this latency.
  TimeNs drain = Millis(150);

  // Scripted membership events (offsets from load start, i.e. the beginning
  // of warmup): AddServer/RemoveServer proposed through the cluster's
  // management plane, which retries until the change commits. The cluster
  // needs spare_nodes > 0 for adds to have a server to draw on.
  std::vector<MembershipEvent> add_server_at;
  std::vector<MembershipEvent> remove_server_at;
};

struct LoadMetrics {
  double offered_rps = 0;
  double achieved_rps = 0;  // completions of in-window requests / window
  double nack_rps = 0;
  double mean_ns = 0;
  int64_t p50_ns = 0;
  int64_t p99_ns = 0;
  uint64_t sent = 0;
  uint64_t completed = 0;
  uint64_t nacked = 0;
  uint64_t lost = 0;
  // Simulator events executed over the whole run (warmup + measure + drain).
  // executed_events / completed is the deterministic proxy for per-request
  // simulator CPU cost that the wire-path perf gate tracks.
  uint64_t executed_events = 0;
};

// Runs one fixed offered load and reports the window metrics.
LoadMetrics RunLoadPoint(const ExperimentConfig& config, double rate_rps);

// Largest achieved throughput whose p99 stays within `slo_p99`
// (paper: "achieved throughput under a 500us SLO"). Geometric bracketing
// followed by bisection on the offered rate.
struct SloResult {
  double max_rps_under_slo = 0;
  double offered_at_max = 0;
  int64_t p99_at_max = 0;
};
SloResult FindMaxThroughputUnderSlo(const ExperimentConfig& config, TimeNs slo_p99,
                                    double lo_rps, double hi_rps, int iterations = 5);

// Latency/throughput curve: one RunLoadPoint per rate.
std::vector<LoadMetrics> SweepRates(const ExperimentConfig& config,
                                    const std::vector<double>& rates);

}  // namespace hovercraft

#endif  // SRC_LOADGEN_EXPERIMENT_H_
