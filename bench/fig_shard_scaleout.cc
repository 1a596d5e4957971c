// Shard scale-out: aggregate committed throughput of 1 / 2 / 4 HovercRaft
// groups sharing one fabric, at a fixed per-group size (3 nodes). Clients
// spray the whole 64-slot keyspace uniformly under an offered load far above
// single-group capacity; each group's flow-control middlebox sheds its
// excess as NACKs, so the committed rate measures capacity, not load.
//
// This is the scaling argument of multi-Raft sharding (docs/sharding.md):
// consensus ordering is per-group, so adding groups adds capacity near-
// linearly while each group still runs the paper's single-group protocol
// unchanged. The bench fails (nonzero exit) unless 4 groups deliver at least
// 2.5x the aggregate throughput of 1 group — sub-linear losses from the
// shared fabric are visible as a shortfall here.
//
// Everything runs in virtual time with pinned seeds: the committed-rate
// gauges are byte-deterministic, so CI holds them to the committed
// BENCH_sim.json baseline with a tight band (a drift is a protocol change,
// not runner noise).
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "src/app/synthetic.h"
#include "src/loadgen/client.h"
#include "src/loadgen/workload.h"
#include "src/shard/sharded_cluster.h"
#include "src/stats/timeseries.h"

namespace hovercraft {
namespace {

constexpr int32_t kNodesPerGroup = 3;
constexpr double kOfferedRps = 280e3;  // well above 4-group capacity
constexpr int kClients = 8;
constexpr TimeNs kServiceTime = Micros(20);  // ~50 kRPS per group, all-execute
constexpr TimeNs kDuration = Millis(500);
constexpr TimeNs kSettleSkip = Millis(100);  // election + queue fill transient
constexpr double kScaleoutGate = 2.5;        // 4 groups vs 1 group

// Committed (completed) steady-state RPS for one group count.
double RunPoint(benchutil::BenchIo& io, int32_t groups) {
  ShardedClusterConfig cfg;
  cfg.groups = groups;
  cfg.nodes = kNodesPerGroup;
  cfg.mode = ClusterMode::kHovercRaft;
  cfg.app_factory = []() { return std::make_unique<SyntheticService>(); };
  cfg.replier_policy = ReplierPolicy::kJbsq;
  cfg.flow_control_threshold = 256;  // shed the over-offer as admission NACKs
  cfg.seed = 42;
  ShardedCluster sharded(cfg);
  if (!sharded.WaitForAllLeaders()) {
    std::printf("FAIL: a group failed to elect a leader (groups=%d)\n", groups);
    io.Fail();
    return 0.0;
  }

  SyntheticWorkloadConfig workload;
  workload.random_shard_slot = true;  // uniform over all 64 data slots
  workload.service_time = std::make_shared<FixedDistribution>(kServiceTime);

  Timeseries timeline(Millis(50));
  std::vector<std::unique_ptr<ClientHost>> clients;
  const TimeNs t0 = sharded.sim().Now();
  for (int c = 0; c < kClients; ++c) {
    auto client = std::make_unique<ClientHost>(
        &sharded.sim(), cfg.costs, [&sharded]() { return sharded.group(GroupId{0}).ClientTarget(); },
        std::make_unique<SyntheticWorkload>(workload), kOfferedRps / kClients,
        1000 + static_cast<uint64_t>(c));
    client->EnableSharding([&sharded](uint32_t slot) { return sharded.RouteOf(slot); });
    sharded.network().Attach(client.get());
    client->set_timeseries(&timeline);
    client->StartLoad(t0, t0 + kDuration);
    clients.push_back(std::move(client));
  }
  sharded.sim().RunUntil(t0 + kDuration + Millis(20));

  // Steady-state committed rate, skipping the fill transient.
  double completed = 0.0, nacked = 0.0;
  TimeNs measured = 0;
  for (const Timeseries::Point& p : timeline.Points()) {
    if (p.start < kSettleSkip || p.start + timeline.bin_width() > kDuration) {
      continue;
    }
    completed += static_cast<double>(p.samples);
    nacked += static_cast<double>(p.events);
    measured += timeline.bin_width();
  }
  const double sec = static_cast<double>(measured) / 1e9;
  const double achieved_rps = sec > 0 ? completed / sec : 0.0;
  const double nack_rps = sec > 0 ? nacked / sec : 0.0;

  // A stable map never redirects: any wrong-shard NACK here is a routing bug.
  uint64_t redirects = 0;
  for (const auto& client : clients) {
    redirects += client->total_redirects();
  }
  if (redirects != 0 || sharded.TotalWrongShardNacks() != 0) {
    std::printf("FAIL: %llu redirects / %llu wrong-shard NACKs on a stable map\n",
                static_cast<unsigned long long>(redirects),
                static_cast<unsigned long long>(sharded.TotalWrongShardNacks()));
    io.Fail();
  }
  if (!sharded.AllWatchdogsOk()) {
    std::printf("FAIL: watchdog tripped: %s\n", sharded.WatchdogSummary().c_str());
    io.Fail();
  }

  std::printf("groups=%d  offered=%7.0f  committed=%9.1f rps  nack=%9.1f rps  per-group:",
              groups, kOfferedRps, achieved_rps, nack_rps);
  for (int32_t g = 0; g < groups; ++g) {
    const uint64_t executed = sharded.group(GroupId{g}).TotalExecuted();
    std::printf(" %llu", static_cast<unsigned long long>(executed));
    if (executed == 0) {
      std::printf("\nFAIL: group %d executed nothing\n", g);
      io.Fail();
    }
  }
  std::printf("\n");

  const std::string scope = "fig_shard_scaleout/g" + std::to_string(groups) + "/";
  io.RecordGauge(scope + "achieved_rps", static_cast<int64_t>(achieved_rps));
  io.RecordGauge(scope + "nack_rps", static_cast<int64_t>(nack_rps));
  return achieved_rps;
}

void Run(benchutil::BenchIo& io) {
  benchutil::PrintHeader(
      "Shard scale-out: 1/2/4 HovercRaft groups (3 nodes each) on one fabric,"
      " 20us writes, uniform 64-slot spray at 280 kRPS offered",
      "multi-Raft sharding on Kogias & Bugnion, HovercRaft (EuroSys'20)");

  const int32_t group_counts[] = {1, 2, 4};
  double achieved[3] = {0, 0, 0};
  for (int i = 0; i < 3; ++i) {
    achieved[i] = RunPoint(io, group_counts[i]);
  }

  const double scaleout = achieved[0] > 0 ? achieved[2] / achieved[0] : 0.0;
  std::printf("\nscale-out 4 groups vs 1: %.2fx (gate: >= %.1fx)\n", scaleout, kScaleoutGate);
  io.RecordGauge("fig_shard_scaleout/scaleout_x100", static_cast<int64_t>(scaleout * 100.0));
  if (scaleout < kScaleoutGate) {
    std::printf("FAIL: sharding did not scale — %.2fx < %.1fx\n", scaleout, kScaleoutGate);
    io.Fail();
  }
}

}  // namespace
}  // namespace hovercraft

int main(int argc, char** argv) {
  hovercraft::benchutil::BenchIo io(argc, argv);
  hovercraft::Run(io);
  return io.Finish();
}
