#include "src/loadgen/experiment.h"

#include <algorithm>
#include <utility>

#include "src/common/check.h"
#include "src/common/flags.h"
#include "src/common/logging.h"
#include "src/obs/observability.h"
#include "src/stats/histogram.h"

namespace hovercraft {

bool ParseMembershipEvent(std::string_view item, MembershipEvent* out) {
  std::string_view fields[2];
  int64_t at_us = 0;
  if (!SplitFields(item, ':', fields) || !ParseNumber(fields[0], &at_us) ||
      !ParseNumber(fields[1], &out->node) || out->node < 0) {
    return false;
  }
  out->at = Micros(at_us);
  return true;
}

LoadMetrics RunLoadPoint(const ExperimentConfig& config, double rate_rps) {
  HC_CHECK(config.workload_factory != nullptr);
  HC_CHECK_GT(rate_rps, 0.0);

  Fabric fabric(config.cluster.seed, config.fabric);
  Cluster cluster(fabric, config.cluster);
  const NodeId leader = cluster.WaitForLeader();
  if (config.cluster.mode != ClusterMode::kUnreplicated) {
    HC_CHECK_NE(leader, kInvalidNode);
  }

  std::vector<std::unique_ptr<ClientHost>> clients;
  const double per_client = rate_rps / config.client_count;
  for (int32_t c = 0; c < config.client_count; ++c) {
    auto client = std::make_unique<ClientHost>(
        &cluster.sim(), config.cluster.costs, [&cluster]() { return cluster.ClientTarget(); },
        config.workload_factory(), per_client,
        config.cluster.seed + 0x9000u + static_cast<uint64_t>(c));
    cluster.network().Attach(client.get());
    clients.push_back(std::move(client));
  }

  obs::Observability* o = fabric.obs();
  const TimeNs t0 = cluster.sim().Now();
  const TimeNs window_start = t0 + config.warmup;
  const TimeNs window_end = window_start + config.measure;
  for (const auto& ev : config.add_server_at) {
    cluster.sim().At(t0 + ev.at, [&cluster, ev]() { cluster.AddServer(ev.node); });
  }
  for (const auto& ev : config.remove_server_at) {
    cluster.sim().At(t0 + ev.at, [&cluster, ev]() { cluster.RemoveServer(ev.node); });
  }
  for (auto& client : clients) {
    client->SetMeasureWindow(window_start, window_end);
    client->StartLoad(t0, window_end);
  }
  if (o != nullptr) {
    o->StartSampling(&cluster.sim(), window_end + config.drain);
  }
  cluster.sim().RunUntil(window_end + config.drain);

  LoadMetrics metrics;
  metrics.offered_rps = rate_rps;
  Histogram merged;
  for (auto& client : clients) {
    client->AccountLost(config.drain);
    merged.Merge(client->latencies());
    metrics.sent += client->sent_in_window();
    metrics.completed += client->completed_in_window();
    metrics.nacked += client->nacked_in_window();
    metrics.lost += client->lost_in_window();
  }
  const double window_sec = static_cast<double>(config.measure) / 1e9;
  metrics.achieved_rps = static_cast<double>(metrics.completed) / window_sec;
  metrics.nack_rps = static_cast<double>(metrics.nacked) / window_sec;
  metrics.mean_ns = merged.Mean();
  metrics.p50_ns = merged.Percentile(50);
  metrics.p99_ns = merged.Percentile(99);
  metrics.executed_events = cluster.sim().executed_events();
  if (o != nullptr) {
    cluster.ExportMetrics(&o->metrics());
  }
  return metrics;
}

std::vector<LoadMetrics> SweepRates(const ExperimentConfig& config,
                                    const std::vector<double>& rates) {
  std::vector<LoadMetrics> out;
  out.reserve(rates.size());
  for (double rate : rates) {
    out.push_back(RunLoadPoint(config, rate));
  }
  return out;
}

SloResult FindMaxThroughputUnderSlo(const ExperimentConfig& config, TimeNs slo_p99,
                                    double lo_rps, double hi_rps, int iterations) {
  HC_CHECK(lo_rps > 0 && hi_rps > lo_rps);
  SloResult best;

  auto passes = [&](const LoadMetrics& m) {
    // A run only counts if the tail met the SLO *and* the system kept up
    // with the offered load (heavy NACK/loss with a fast tail is not a
    // valid operating point).
    return m.p99_ns <= slo_p99 && m.lost == 0 &&
           m.achieved_rps >= 0.95 * m.offered_rps;
  };
  auto consider = [&](const LoadMetrics& m) {
    if (passes(m) && m.achieved_rps > best.max_rps_under_slo) {
      best.max_rps_under_slo = m.achieved_rps;
      best.offered_at_max = m.offered_rps;
      best.p99_at_max = m.p99_ns;
    }
  };

  // Establish the bracket: lo must pass; walk hi down if even lo fails.
  LoadMetrics lo_m = RunLoadPoint(config, lo_rps);
  consider(lo_m);
  if (!passes(lo_m)) {
    HC_LOG_WARN("SLO search: floor rate %.0f already violates the SLO (p99=%lld ns)", lo_rps,
                static_cast<long long>(lo_m.p99_ns));
    return best;
  }
  LoadMetrics hi_m = RunLoadPoint(config, hi_rps);
  consider(hi_m);
  if (passes(hi_m)) {
    return best;  // even the ceiling passes; report it
  }

  double lo = lo_rps;
  double hi = hi_rps;
  for (int i = 0; i < iterations; ++i) {
    const double mid = 0.5 * (lo + hi);
    const LoadMetrics m = RunLoadPoint(config, mid);
    consider(m);
    if (passes(m)) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return best;
}

}  // namespace hovercraft
