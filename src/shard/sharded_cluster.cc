#include "src/shard/sharded_cluster.h"

#include <utility>

#include "src/common/check.h"
#include "src/obs/flight_recorder.h"
#include "src/obs/metrics.h"
#include "src/obs/watchdog.h"

namespace hovercraft {

ShardedCluster::ShardedCluster(const ShardedClusterConfig& config)
    : config_(config), fabric_(config_.seed, config_), map_(config_.groups) {
  HC_CHECK(config_.app_factory != nullptr);
  HC_CHECK_GT(config_.groups, 0);
  HC_CHECK_GT(config_.nodes, 0);
  // Sharding routes through per-group admission middleboxes; the multicast
  // modes are the ones that have them.
  HC_CHECK(config_.mode == ClusterMode::kHovercRaft ||
           config_.mode == ClusterMode::kHovercRaftPP);
  // The obs stride leaves no room for spares, and the per-group watchdogs
  // below are the only sinks a group attaches.
  HC_CHECK(config_.spare_nodes == 0 && config_.watchdog == nullptr &&
           config_.critical_path == nullptr);

  for (int32_t g = 0; g < config_.groups; ++g) {
    const GroupId gid{g};
    ClusterConfig cc = config_;
    const ShardGroupSpec spec{ObsBaseOf(gid), map_.SlotsOf(gid)};
    // Group-local seed, derived from the group id alone: group 0's stream is
    // independent of how many groups exist (determinism contract).
    cc.seed = config_.seed ^ (0x9E3779B97F4A7C15ull * static_cast<uint64_t>(g + 1));
    cc.obs_scope = config_.obs_scope + "shard" + std::to_string(g) + ".";
    if (fabric_.recorder() != nullptr) {
      watchdogs_.push_back(std::make_unique<obs::Watchdog>(fabric_.recorder()));
      cc.watchdog = watchdogs_.back().get();
    }

    auto cluster = std::make_unique<Cluster>(fabric_, cc, &spec);
    FlowControl* fc = cluster->flow_control();
    HC_CHECK(fc != nullptr);
    fc->set_shard_gate([this, gid](uint32_t slot) -> uint64_t {
      return map_.ServesAt(gid, slot) ? 0 : map_.epoch();
    });
    groups_.push_back(std::move(cluster));
    if (config_.per_group_hook) {
      config_.per_group_hook(gid, *groups_.back());
    }
  }

  std::vector<ShardGroupEndpoints> endpoints;
  endpoints.reserve(groups_.size());
  for (auto& cluster : groups_) {
    ShardGroupEndpoints ep;
    ep.ingress = cluster->ClientTarget();
    ep.group = cluster->RetryTarget();
    endpoints.push_back(ep);
  }
  coordinator_ = std::make_unique<ShardCoordinator>(&sim(), config_.costs, &map_,
                                                    std::move(endpoints));
  network().Attach(coordinator_.get());
}

ShardedCluster::~ShardedCluster() = default;

bool ShardedCluster::AllWatchdogsOk() const {
  for (const auto& wd : watchdogs_) {
    if (!wd->ok()) {
      return false;
    }
  }
  return true;
}

std::string ShardedCluster::WatchdogSummary() const {
  if (watchdogs_.empty()) {
    return "off";
  }
  std::string out;
  for (size_t g = 0; g < watchdogs_.size(); ++g) {
    if (!out.empty()) {
      out += " | ";
    }
    out += 'g';
    out += std::to_string(g);
    out += ": ";
    out += watchdogs_[g]->Summary();
  }
  return out;
}

bool ShardedCluster::WaitForAllLeaders(TimeNs deadline) {
  auto all_elected = [this]() {
    for (auto& cluster : groups_) {
      if (cluster->LeaderId() == kInvalidNode) {
        return false;
      }
    }
    return true;
  };
  while (!all_elected() && sim().Now() < deadline) {
    if (!sim().Step()) {
      break;
    }
  }
  return all_elected();
}

ClientHost::ShardRoute ShardedCluster::RouteOf(uint32_t slot) const {
  ClientHost::ShardRoute route;
  route.epoch = map_.epoch();
  const GroupId owner = map_.OwnerOf(slot);
  if (owner.valid()) {
    const Cluster& cluster = group(owner);
    route.ingress = cluster.ClientTarget();
    route.retry = cluster.RetryTarget();
  }
  return route;
}

uint64_t ShardedCluster::TotalExecuted() const {
  uint64_t total = 0;
  for (const auto& cluster : groups_) {
    total += cluster->TotalExecuted();
  }
  return total;
}

uint64_t ShardedCluster::TotalReplies() const {
  uint64_t total = 0;
  for (const auto& cluster : groups_) {
    total += cluster->TotalReplies();
  }
  return total;
}

uint64_t ShardedCluster::TotalWrongShardNacks() const {
  uint64_t total = 0;
  for (const auto& cluster : groups_) {
    total += cluster->flow_control()->wrong_shard_nacked();
    for (NodeId n = 0; n < cluster->total_node_count(); ++n) {
      const ServerStats& st = cluster->server(n).server_stats();
      total += st.wrong_shard_nacks + st.wrong_shard_rejects;
    }
  }
  return total;
}

uint64_t ShardedCluster::TotalDoubleApplies() const {
  uint64_t total = 0;
  for (const auto& cluster : groups_) {
    for (NodeId n = 0; n < cluster->total_node_count(); ++n) {
      total += cluster->server(n).server_stats().double_applies;
    }
  }
  return total;
}

void ShardedCluster::ExportMetrics(obs::MetricsRegistry* metrics) {
  HC_CHECK(metrics != nullptr);
  for (auto& cluster : groups_) {
    cluster->ExportMetrics(metrics);
  }
  const std::string scope = config_.obs_scope + "shard/";
  metrics->SetGauge(scope + "epoch", static_cast<int64_t>(map_.epoch()));
  metrics->SetGauge(scope + "groups", static_cast<int64_t>(config_.groups));
  const ShardCoordinator::CoordinatorStats& cs = coordinator_->stats();
  metrics->SetCounter(scope + "moves_started", cs.moves_started);
  metrics->SetCounter(scope + "moves_completed", cs.moves_completed);
  metrics->SetCounter(scope + "moves_rejected", cs.moves_rejected);
  metrics->SetCounter(scope + "moves_failed", cs.moves_failed);
  metrics->SetCounter(scope + "moves_aborted", cs.moves_aborted);
  metrics->SetCounter(scope + "ctl_sent", cs.ctl_sent);
  metrics->SetCounter(scope + "ctl_retries", cs.ctl_retries);
  metrics->SetCounter(scope + "ctl_nacked", cs.ctl_nacked);
  metrics->SetCounter(scope + "capture_bytes", cs.capture_bytes);
  metrics->SetCounter(scope + "wrong_shard_nacks", TotalWrongShardNacks());
}

}  // namespace hovercraft
