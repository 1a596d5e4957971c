// Live rescale: one continuous HovercRaft++ run scaled N=3 -> 5 -> 7 under
// constant offered load, without restarting anything. The companion to
// fig9_cluster_size: that bench measures capacity at each static size, this
// one shows the same capacity being reached *live* through AddServer.
//
// Workload: 80us mostly-read-only service at 80 kRPS offered — far above the
// 3-node capacity, so the flow-control middlebox sheds the excess as NACKs.
// Read-only execution spreads over the replier set (JBSQ), so each pair of
// added servers raises capacity; committed throughput must climb in two
// visible steps as the config changes commit:
//
//   t in [0s, 1s): members {0,1,2}          ~30 kRPS
//   t = 1s:        AddServer(3), AddServer(4)  (learner catch-up via
//                  InstallSnapshot, then promotion — serialized, one
//                  config change in flight at a time)
//   t in [1s, 2s): members {0..4}           ~47 kRPS
//   t = 2s:        AddServer(5), AddServer(6)
//   t in [2s, 3s): members {0..6}           ~63 kRPS
//
// The bench fails (nonzero exit) unless the steady-state window averages
// increase strictly and by a clear margin, i.e. the live rescale actually
// delivered the added capacity.
#include <cstdio>
#include <memory>
#include <vector>

#include "bench/bench_common.h"
#include "src/loadgen/client.h"
#include "src/stats/timeseries.h"

namespace hovercraft {
namespace {

constexpr double kOfferedRps = 80e3;
constexpr int kClients = 8;
constexpr TimeNs kStep = Seconds(1);       // one window per cluster size
constexpr TimeNs kDuration = 3 * kStep;    // N=3, N=5, N=7
constexpr TimeNs kSettleSkip = Millis(300);  // catch-up + promotion transient
// Each step adds two servers; the second window must beat the first by at
// least this factor (expected ratios are ~1.5 and ~1.35).
constexpr double kStepMargin = 1.10;

void Run(benchutil::BenchIo& io) {
  benchutil::PrintHeader(
      "Live rescale: HovercRaft++ N=3 -> 5 -> 7 via AddServer under 80 kRPS,"
      " 80us 95% read-only, flow control cap 1000",
      "Kogias & Bugnion, HovercRaft (EuroSys'20), section 4 / Figure 9 (live)");

  ClusterConfig cluster_config = benchutil::MakeClusterConfig(
      ClusterMode::kHovercRaftPP, 3, ReplierPolicy::kJbsq, /*bounded_queue=*/64, 42);
  cluster_config.spare_nodes = 4;
  cluster_config.flow_control_threshold = 1000;
  io.Attach(&cluster_config, "fig9_live/");
  Fabric fabric(cluster_config.seed, {.obs = io.obs()});
  Cluster cluster(fabric, cluster_config);
  if (cluster.WaitForLeader() == kInvalidNode) {
    std::printf("no leader elected\n");
    io.Fail();
    return;
  }

  SyntheticWorkloadConfig workload;
  workload.read_only_fraction = 0.95;
  workload.service_time = std::make_shared<FixedDistribution>(Micros(80));

  Timeseries timeline(Millis(100));
  std::vector<std::unique_ptr<ClientHost>> clients;
  const TimeNs t0 = cluster.sim().Now();
  for (int c = 0; c < kClients; ++c) {
    auto client = std::make_unique<ClientHost>(
        &cluster.sim(), cluster_config.costs, [&cluster]() { return cluster.ClientTarget(); },
        std::make_unique<SyntheticWorkload>(workload), kOfferedRps / kClients,
        1000 + static_cast<uint64_t>(c));
    cluster.network().Attach(client.get());
    client->set_timeseries(&timeline);
    client->SetMeasureWindow(t0, t0 + kDuration);
    client->StartLoad(t0, t0 + kDuration);
    clients.push_back(std::move(client));
  }
  if (obs::Observability* o = io.obs()) {
    o->StartSampling(&cluster.sim(), t0 + kDuration);
  }

  // The rescale events. Each AddServer proposes through the management
  // plane, which retries until the change commits; the two adds of a step
  // serialize on the one-change-in-flight rule.
  cluster.sim().At(t0 + kStep, [&cluster]() {
    cluster.AddServer(3);
    cluster.AddServer(4);
  });
  cluster.sim().At(t0 + 2 * kStep, [&cluster]() {
    cluster.AddServer(5);
    cluster.AddServer(6);
  });

  cluster.sim().RunUntil(t0 + kDuration);

  if (obs::Observability* o = io.obs()) {
    cluster.ExportMetrics(&o->metrics());
  }

  // Per-bin timeline, annotated with the rescale points.
  std::printf("%8s %12s %12s %12s\n", "t(s)", "kRPS", "nack kRPS", "p99(us)");
  const double bin_sec = static_cast<double>(timeline.bin_width()) / 1e9;
  for (const Timeseries::Point& p : timeline.Points()) {
    const bool step1 = p.start <= kStep && kStep < p.start + timeline.bin_width();
    const bool step2 = p.start <= 2 * kStep && 2 * kStep < p.start + timeline.bin_width();
    std::printf("%8.1f %12.1f %12.1f %12.1f%s\n", static_cast<double>(p.start) / 1e9,
                static_cast<double>(p.samples) / bin_sec / 1e3,
                static_cast<double>(p.events) / bin_sec / 1e3,
                static_cast<double>(p.p99) / 1e3,
                step1 ? "   <-- AddServer(3), AddServer(4)"
                      : (step2 ? "   <-- AddServer(5), AddServer(6)" : ""));
  }

  // Steady-state average of each window, skipping the transition transient
  // at the start (learner catch-up + promotion + scheduler rebalance).
  double window_rps[3] = {0, 0, 0};
  int window_bins[3] = {0, 0, 0};
  for (const Timeseries::Point& p : timeline.Points()) {
    const int w = static_cast<int>(p.start / kStep);
    if (w < 0 || w > 2 || p.start - w * kStep < kSettleSkip) {
      continue;
    }
    window_rps[w] += static_cast<double>(p.samples) / bin_sec;
    ++window_bins[w];
  }
  std::printf("\n%10s %10s %10s %14s\n", "window", "members", "bins", "avg kRPS");
  const int expected_members[3] = {3, 5, 7};
  for (int w = 0; w < 3; ++w) {
    if (window_bins[w] > 0) {
      window_rps[w] /= window_bins[w];
    }
    std::printf("%9.0fs %10d %10d %14.1f\n", static_cast<double>(w), expected_members[w],
                window_bins[w], window_rps[w] / 1e3);
    io.RecordGauge("fig9_live/window" + std::to_string(w) + ".avg_rps",
                   static_cast<int64_t>(window_rps[w]));
  }

  const auto& members = cluster.Members();
  std::printf("final members (config idx %llu):",
              static_cast<unsigned long long>(cluster.applied_config_idx()));
  for (NodeId m : members) {
    std::printf(" %d", m);
  }
  std::printf("\n");
  io.RecordGauge("fig9_live/final_members", static_cast<int64_t>(members.size()));

  // Acceptance: all four adds committed, and each rescale delivered a clear
  // throughput step under the unchanged offered load.
  if (members.size() != 7) {
    std::printf("FAIL: expected 7 members after the rescale, have %zu\n", members.size());
    io.Fail();
  }
  for (int w = 1; w < 3; ++w) {
    if (window_rps[w] < kStepMargin * window_rps[w - 1]) {
      std::printf("FAIL: window %d (%.1f kRPS) did not beat window %d (%.1f kRPS) by %.0f%%\n",
                  w, window_rps[w] / 1e3, w - 1, window_rps[w - 1] / 1e3,
                  (kStepMargin - 1.0) * 100);
      io.Fail();
    }
  }
}

}  // namespace
}  // namespace hovercraft

int main(int argc, char** argv) {
  hovercraft::benchutil::BenchIo io(argc, argv);
  hovercraft::Run(io);
  return io.Finish();
}
