// Figure 12: behaviour across a leader failure. 3-node HovercRaft++ running
// the Figure 11 workload (bimodal mean 10us, 75% read-only) at a fixed
// 165 kRPS — below the 3-node capacity (~200k) but above the 2-node capacity
// (~160k). Flow control admits at most 1000 in-flight requests. At t=3s the
// leader is killed: throughput dips during the election, recovers to the
// 2-node capacity, and the flow-control middlebox NACKs the ~5 kRPS excess
// instead of letting latency collapse.
//
// Clients run the exactly-once retry machinery: requests swallowed by the
// failover (sent to the dead leader, or replies lost with it) are
// retransmitted with backoff and recovered instead of silently lost. The
// summary reports recovered-by-retry completions and retransmit counts next
// to the downtime figure; with retries on, lost_in_window should be 0.
#include <cstdio>
#include <memory>
#include <vector>

#include "bench/bench_common.h"
#include "src/loadgen/client.h"
#include "src/stats/timeseries.h"

namespace hovercraft {
namespace {

constexpr double kOfferedRps = 165e3;
constexpr TimeNs kKillAt = Seconds(3);
constexpr TimeNs kDuration = Seconds(8);
constexpr int kClients = 8;

void Run(benchutil::BenchIo& io) {
  benchutil::PrintHeader(
      "Figure 12: leader failure timeline, HovercRaft++ N=3, 165 kRPS offered,"
      " flow control cap 1000",
      "Kogias & Bugnion, HovercRaft (EuroSys'20), Figure 12");

  ClusterConfig cluster_config = benchutil::MakeClusterConfig(
      ClusterMode::kHovercRaftPP, 3, ReplierPolicy::kJbsq, /*bounded_queue=*/32, 42);
  cluster_config.flow_control_threshold = 1000;
  io.Attach(&cluster_config, "fig12/");
  Fabric fabric(cluster_config.seed, {.obs = io.obs()});
  Cluster cluster(fabric, cluster_config);
  if (cluster.WaitForLeader() == kInvalidNode) {
    std::printf("no leader elected\n");
    return;
  }

  SyntheticWorkloadConfig workload;
  workload.read_only_fraction = 0.75;
  workload.service_time = std::make_shared<BimodalDistribution>(Micros(10), 0.1, 10.0);

  Timeseries timeline(Millis(500));
  std::vector<std::unique_ptr<ClientHost>> clients;
  const TimeNs t0 = cluster.sim().Now();
  for (int c = 0; c < kClients; ++c) {
    auto client = std::make_unique<ClientHost>(
        &cluster.sim(), cluster_config.costs, [&cluster]() { return cluster.ClientTarget(); },
        std::make_unique<SyntheticWorkload>(workload), kOfferedRps / kClients,
        1000 + static_cast<uint64_t>(c));
    cluster.network().Attach(client.get());
    client->set_timeseries(&timeline);
    ClientHost::RetryPolicy retry;
    retry.enabled = true;
    // Above the window-limited sojourn time after the failover (cap 1000 at
    // ~160 kRPS is ~6ms by Little's law), so steady-state traffic never
    // retransmits spuriously; failover gaps are ~100ms, far beyond it.
    retry.initial_backoff = Millis(10);
    retry.max_backoff = Millis(50);
    client->set_retry_policy(retry);
    client->set_retry_target([&cluster]() { return cluster.RetryTarget(); });
    client->SetMeasureWindow(t0, t0 + kDuration);
    client->StartLoad(t0, t0 + kDuration);
    clients.push_back(std::move(client));
  }

  if (obs::Observability* o = io.obs()) {
    o->StartSampling(&cluster.sim(), t0 + kDuration + Millis(200));
  }

  cluster.sim().At(t0 + kKillAt, [&cluster]() { cluster.KillLeader(); });
  cluster.sim().RunUntil(t0 + kDuration + Millis(200));

  if (obs::Observability* o = io.obs()) {
    cluster.ExportMetrics(&o->metrics());
  }

  std::printf("%8s %12s %12s %12s %12s\n", "t(s)", "kRPS", "nack kRPS", "p50(us)", "p99(us)");
  const double bin_sec = 0.5;
  for (const Timeseries::Point& p : timeline.Points()) {
    std::printf("%8.1f %12.1f %12.1f %12.1f %12.1f%s\n",
                static_cast<double>(p.start) / 1e9,
                static_cast<double>(p.samples) / bin_sec / 1e3,
                static_cast<double>(p.events) / bin_sec / 1e3,
                static_cast<double>(p.p50) / 1e3, static_cast<double>(p.p99) / 1e3,
                p.start <= kKillAt && kKillAt < p.start + timeline.bin_width()
                    ? "   <-- leader killed"
                    : "");
  }
  uint64_t sent = 0, completed = 0, nacked = 0, retransmits = 0, recovered = 0;
  uint64_t abandoned = 0, lost = 0;
  for (auto& client : clients) {
    client->AccountLost(Seconds(1));  // anything still unresolved blew the SLO
    sent += client->sent_in_window();
    completed += client->completed_in_window();
    nacked += client->nacked_in_window();
    retransmits += client->total_retransmits();
    recovered += client->recovered_in_window();
    abandoned += client->total_abandoned();
    lost += client->lost_in_window();
  }
  std::printf(
      "\nexactly-once: sent=%llu completed=%llu nacked=%llu lost=%llu\n"
      "              retransmits=%llu recovered_by_retry=%llu abandoned=%llu\n",
      static_cast<unsigned long long>(sent), static_cast<unsigned long long>(completed),
      static_cast<unsigned long long>(nacked), static_cast<unsigned long long>(lost),
      static_cast<unsigned long long>(retransmits), static_cast<unsigned long long>(recovered),
      static_cast<unsigned long long>(abandoned));
  uint64_t feedback = 0;
  for (NodeId n = 0; n < 3; ++n) {
    feedback += cluster.server(n).server_stats().feedback_sent;
  }
  const FlowControl& fc = *cluster.flow_control();
  std::printf("flow control: outstanding=%lld forwarded=%llu nacked=%llu feedback=%llu\n",
              static_cast<long long>(fc.outstanding()),
              static_cast<unsigned long long>(fc.forwarded()),
              static_cast<unsigned long long>(fc.nacked()),
              static_cast<unsigned long long>(feedback));
  std::printf(
      "              reconciles=%llu reconciled_released=%llu force_released=%llu\n",
      static_cast<unsigned long long>(fc.reconciles_started()),
      static_cast<unsigned long long>(fc.reconciled_released()),
      static_cast<unsigned long long>(fc.force_released()));
  // Admission-slot ledger convergence: requests in flight at the instant the
  // leader died repay their slots through the new leader's reconcile answers
  // rather than leaking. After the drain the ledger must be exactly empty —
  // no "known bounded residual" caveat (DESIGN.md section 5c).
  if (fc.outstanding() != 0) {
    std::printf("FAIL: flow-control ledger did not converge (outstanding=%lld)\n",
                static_cast<long long>(fc.outstanding()));
    io.Fail();
  }
  std::printf("final leader: node %d (term %llu)\n", cluster.LeaderId(),
              static_cast<unsigned long long>(
                  cluster.server(cluster.LeaderId()).raft()->term()));

  // Exactly-once summary plus the per-bin timeline into the registry, so the
  // failover dip/recovery lands in the same JSON shape as the curve benches.
  io.RecordCounter("fig12/client.sent", sent);
  io.RecordCounter("fig12/client.completed", completed);
  io.RecordCounter("fig12/client.nacked", nacked);
  io.RecordCounter("fig12/client.lost", lost);
  io.RecordCounter("fig12/client.retransmits", retransmits);
  io.RecordCounter("fig12/client.recovered_by_retry", recovered);
  io.RecordCounter("fig12/client.abandoned", abandoned);
  if (obs::Observability* o = io.obs()) {
    for (const Timeseries::Point& p : timeline.Points()) {
      o->metrics().Sample("fig12/timeline.completed", p.start,
                          static_cast<int64_t>(p.samples));
      o->metrics().Sample("fig12/timeline.nacked", p.start,
                          static_cast<int64_t>(p.events));
      o->metrics().Sample("fig12/timeline.p99_ns", p.start, p.p99);
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
