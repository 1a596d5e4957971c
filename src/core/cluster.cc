#include "src/core/cluster.h"

#include <string>
#include <utility>

#include "src/common/check.h"
#include "src/common/logging.h"
#include "src/obs/critical_path.h"
#include "src/obs/observability.h"
#include "src/obs/watchdog.h"

namespace hovercraft {

Cluster::Cluster(const ClusterConfig& config)
    : config_(config),
      owned_fabric_(std::make_unique<Fabric>(config.seed)),
      fabric_(owned_fabric_.get()) {
  Build(nullptr);
}

Cluster::Cluster(Fabric& fabric, const ClusterConfig& config, const ShardGroupSpec* shard)
    : config_(config), fabric_(&fabric) {
  Build(shard);
}

void Cluster::Build(const ShardGroupSpec* shard) {
  HC_CHECK(config_.app_factory != nullptr);
  HC_CHECK_GT(config_.nodes, 0);
  // A sharded group shares its fabric with other groups. Its obs-node range
  // is [base, base + nodes] — the last id is its flow-control middlebox — so
  // its watchdog only sees this group's events.
  const bool sharded = shard != nullptr;
  const NodeId obs_base = sharded ? shard->obs_node_base : 0;
  if (sharded && config_.watchdog != nullptr) {
    config_.watchdog->set_node_filter(obs_base, obs_base + config_.nodes + 1);
  }
  // Sinks go on before any server is built so the very first role
  // transition is already checked.
  fabric_->AttachSink(config_.watchdog);
  fabric_->AttachSink(config_.critical_path);
  const bool replicated = config_.mode != ClusterMode::kUnreplicated;
  HC_CHECK_GE(config_.spare_nodes, 0);
  // Spares are built and started like members but start outside the voter
  // set (raft.initial_voters below) and outside the multicast groups.
  const int32_t members = replicated ? config_.nodes : 1;
  const int32_t nodes = replicated ? config_.nodes + config_.spare_nodes : 1;
  for (NodeId n = 0; n < members; ++n) {
    members_.push_back(n);
  }

  for (NodeId n = 0; n < nodes; ++n) {
    ServerConfig sc;
    static_cast<ServerTuning&>(sc) = config_.server_template;
    sc.mode = config_.mode;
    static_cast<RaftTuning&>(sc.raft) = config_.raft;
    sc.raft.SetMode(config_.mode, config_.replier_policy, config_.bounded_queue_depth);
    sc.raft.id = n;
    sc.raft.cluster_size = nodes;
    sc.raft.initial_voters = members;
    if (sharded) {
      sc.raft.obs_node_base = obs_base;
      sc.sharded = true;
      sc.shard_owned_slots = shard->owned_slots;
    }
    if (config_.stagger_first_election && n == 0) {
      sc.raft.election_timeout_min = Millis(1);
      sc.raft.election_timeout_max = Millis(2);
    }
    // The server builds its app while the deployment's index is current, so
    // the app shares image parts from its first write (src/common/image.h).
    ImagePartIndex::Scope parts(&fabric_->image_parts());
    servers_.push_back(std::make_unique<ReplicatedServer>(
        &sim(), config_.costs, sc, config_.app_factory,
        config_.seed + 0x1000u + static_cast<uint64_t>(n)));
    server_hosts_.push_back(network().Attach(servers_.back().get()));
  }

  HostId aggregator_host = kInvalidHost;
  HostId flow_control_host = kInvalidHost;

  if (config_.mode == ClusterMode::kHovercRaft || config_.mode == ClusterMode::kHovercRaftPP) {
    // Multicast groups span the *members*, not the spares: a spare joins the
    // replication group only when its config change commits.
    std::vector<HostId> member_hosts(server_hosts_.begin(), server_hosts_.begin() + members);
    group_all_ = network().CreateMulticastGroup(member_hosts);

    if (config_.mode == ClusterMode::kHovercRaftPP) {
      aggregator_ = std::make_unique<Aggregator>(&sim(), config_.costs, nodes);
      aggregator_host = network().Attach(aggregator_.get());
      for (NodeId n = 0; n < nodes; ++n) {
        std::vector<HostId> group;
        for (NodeId m = 0; m < members; ++m) {
          if (m != n) {
            group.push_back(server_hosts_[static_cast<size_t>(m)]);
          }
        }
        groups_excluding_.push_back(network().CreateMulticastGroup(std::move(group)));
      }
      aggregator_->Configure(server_hosts_, group_all_, groups_excluding_, members_);
    }

    flow_control_ = std::make_unique<FlowControl>(&sim(), config_.costs, group_all_,
                                                  config_.flow_control_threshold);
    flow_control_host = network().Attach(flow_control_.get());
    if (sharded) {
      // The middlebox records its flow-ledger events as the group's extra
      // pseudo-node so the group's filtered watchdog still balances them.
      flow_control_->set_obs_node(obs_base + config_.nodes);
    }
  }

  for (NodeId n = 0; n < nodes; ++n) {
    servers_[static_cast<size_t>(n)]->Wire(server_hosts_, aggregator_host, flow_control_host);
    servers_[static_cast<size_t>(n)]->set_config_committed_callback(
        [this](NodeId self, const MembershipConfig& cfg, LogIndex idx) {
          ApplyCommittedConfig(self, cfg, idx);
        });
  }
  for (NodeId n = 0; n < nodes; ++n) {
    servers_[static_cast<size_t>(n)]->Start();
  }
  if (fabric_->obs() != nullptr) {
    InstallObservability();
  }
}

Cluster::~Cluster() {
  // The samplers close over this cluster's servers and middleboxes; drop
  // them before the sampled objects die.
  if (fabric_->obs() != nullptr) {
    fabric_->obs()->ClearSamplers();
  }
  fabric_->DetachSink(config_.watchdog);
  fabric_->DetachSink(config_.critical_path);
}

void Cluster::InstallObservability() {
  obs::Observability* o = fabric_->obs();
  // Queue-depth samplers: read-only probes over the simulated resources.
  // Scheduling them consumes event ids but never reorders same-time work
  // relative to each other, so simulation outcomes are unchanged.
  for (size_t n = 0; n < servers_.size(); ++n) {
    ReplicatedServer* s = servers_[n].get();
    // The run scope keeps series from successive clusters (one bench binary
    // runs many load points) separate, so each series stays monotonic in t.
    const std::string scope = config_.obs_scope + obs::NodeScope(static_cast<NodeId>(n));
    o->AddSampler(scope + "net_thread.depth",
                  [s]() { return s->net_thread().queue_length(); });
    o->AddSampler(scope + "app_thread.depth",
                  [s]() { return s->app_thread().queue_length(); });
    o->AddSampler(scope + "nic_tx.depth",
                  [s]() { return s->nic_tx().queue_length(); });
    if (s->disk() != nullptr) {
      // WAL flush-queue depth: fsyncs waiting behind the in-flight one
      // (group-commit pressure; storage observability satellite).
      o->AddSampler(scope + "storage.flush_queue.depth",
                    [s]() { return static_cast<int64_t>(s->disk()->queue_depth()); });
    }
    if (s->raft() != nullptr) {
      o->AddSampler(scope + "raft.commit_lag", [s]() {
        return static_cast<int64_t>(s->raft()->commit_index() - s->raft()->applied_index());
      });
      o->AddSampler(scope + "raft.log_entries",
                    [s]() { return static_cast<int64_t>(s->raft()->log().size()); });
      // Bounded replica queue (JBSQ, section 3.4) as the current leader sees
      // it: entries assigned to this node but not yet reported applied.
      o->AddSampler(scope + "jbsq.backlog", [this, n]() {
        const NodeId leader = LeaderId();
        if (leader == kInvalidNode) {
          return static_cast<int64_t>(0);
        }
        return server(leader).raft()->scheduler().PendingOf(static_cast<NodeId>(n));
      });
    }
  }
  if (flow_control_ != nullptr) {
    FlowControl* fc = flow_control_.get();
    o->AddSampler(config_.obs_scope + "flow_control/outstanding",
                  [fc]() { return fc->outstanding(); });
  }
}

// ExportMetrics exports every counter of these structs: a new field fails to
// compile here until it is added to the list below.
static_assert(sizeof(ServerStats) == 26 * sizeof(uint64_t));
static_assert(sizeof(RaftStats) == 29 * sizeof(uint64_t));
static_assert(sizeof(StorageStats) == 9 * sizeof(uint64_t));
static_assert(sizeof(SimDiskStats) == 9 * sizeof(uint64_t));

void Cluster::ExportMetrics(obs::MetricsRegistry* metrics) {
  HC_CHECK(metrics != nullptr);
  const std::string& scope = config_.obs_scope;
  for (size_t n = 0; n < servers_.size(); ++n) {
    ReplicatedServer& s = *servers_[n];
    const std::string prefix = scope + obs::NodeScope(static_cast<NodeId>(n));
    const NetCounters& net = s.counters();
    metrics->SetCounter(prefix + "net.tx_msgs", net.tx_msgs);
    metrics->SetCounter(prefix + "net.rx_msgs", net.rx_msgs);
    metrics->SetCounter(prefix + "net.tx_frames", net.tx_frames);
    metrics->SetCounter(prefix + "net.rx_frames", net.rx_frames);
    metrics->SetCounter(prefix + "net.tx_payload_bytes", net.tx_payload_bytes);
    metrics->SetCounter(prefix + "net.rx_payload_bytes", net.rx_payload_bytes);
    // Physical-layer view: frames that actually crossed the link (a coalesced
    // batch is one frame) and wire bytes including framing + sub-headers.
    metrics->SetCounter(prefix + "net.tx_physical_frames", net.tx_physical_frames);
    metrics->SetCounter(prefix + "net.rx_physical_frames", net.rx_physical_frames);
    metrics->SetCounter(prefix + "net.tx_batches", net.tx_batches);
    metrics->SetCounter(prefix + "net.rx_batches", net.rx_batches);
    metrics->SetCounter(prefix + "net.tx_wire_bytes", net.tx_wire_bytes);
    metrics->SetCounter(prefix + "net.rx_wire_bytes", net.rx_wire_bytes);
    // Per-kind wire bytes; a kind that never crossed this host's link has no
    // key (every frame that did cost at least its framing, so > 0).
    for (size_t k = 0; k < kMessageKindCount; ++k) {
      const char* name = MessageKindName(static_cast<MessageKind>(k));
      if (net.tx_wire_bytes_by_kind[k] > 0) {
        metrics->SetCounter(prefix + "net.bytes_on_wire.tx." + name, net.tx_wire_bytes_by_kind[k]);
      }
      if (net.rx_wire_bytes_by_kind[k] > 0) {
        metrics->SetCounter(prefix + "net.bytes_on_wire.rx." + name, net.rx_wire_bytes_by_kind[k]);
      }
    }
    const ServerStats& st = s.server_stats();
    metrics->SetCounter(prefix + "server.client_requests", st.client_requests);
    metrics->SetCounter(prefix + "server.replies_sent", st.replies_sent);
    metrics->SetCounter(prefix + "server.ops_executed", st.ops_executed);
    metrics->SetCounter(prefix + "server.ro_skipped", st.ro_skipped);
    metrics->SetCounter(prefix + "server.feedback_sent", st.feedback_sent);
    metrics->SetCounter(prefix + "server.unrestricted_served", st.unrestricted_served);
    metrics->SetCounter(prefix + "server.dedup_hits", st.dedup_hits);
    metrics->SetCounter(prefix + "server.dedup_replies", st.dedup_replies);
    metrics->SetCounter(prefix + "server.double_applies", st.double_applies);
    metrics->SetCounter(prefix + "server.retransmits_inflight", st.retransmits_inflight);
    metrics->SetCounter(prefix + "server.unordered_gc", st.unordered_gc);
    metrics->SetCounter(prefix + "server.snapshots_restored", st.snapshots_restored);
    metrics->SetCounter(prefix + "server.fc_reconcile_answers", st.fc_reconcile_answers);
    metrics->SetCounter(prefix + "server.read_index_local", st.read_index_local);
    metrics->SetCounter(prefix + "server.read_index_forwarded", st.read_index_forwarded);
    metrics->SetCounter(prefix + "server.read_index_remote", st.read_index_remote);
    metrics->SetCounter(prefix + "server.read_index_queued", st.read_index_queued);
    metrics->SetCounter(prefix + "server.read_index_dropped", st.read_index_dropped);
    metrics->SetCounter(prefix + "server.wrong_shard_nacks", st.wrong_shard_nacks);
    metrics->SetCounter(prefix + "server.wrong_shard_rejects", st.wrong_shard_rejects);
    metrics->SetCounter(prefix + "server.shard_freezes", st.shard_freezes);
    metrics->SetCounter(prefix + "server.shard_installs", st.shard_installs);
    metrics->SetCounter(prefix + "server.shard_gcs", st.shard_gcs);
    metrics->SetCounter(prefix + "server.shard_unfreezes", st.shard_unfreezes);
    metrics->SetCounter(prefix + "server.shard_uninstalls", st.shard_uninstalls);
    metrics->SetCounter(prefix + "server.shard_ctl_stale", st.shard_ctl_stale);
    if (s.raft() != nullptr) {
      const RaftStats& rs = s.raft()->stats();
      metrics->SetCounter(prefix + "raft.elections_started", rs.elections_started);
      metrics->SetCounter(prefix + "raft.times_leader", rs.times_leader);
      metrics->SetCounter(prefix + "raft.ae_sent", rs.ae_sent);
      metrics->SetCounter(prefix + "raft.ae_received", rs.ae_received);
      metrics->SetCounter(prefix + "raft.entries_appended", rs.entries_appended);
      metrics->SetCounter(prefix + "raft.recoveries_requested", rs.recoveries_requested);
      metrics->SetCounter(prefix + "raft.recoveries_served", rs.recoveries_served);
      metrics->SetCounter(prefix + "raft.submits_rejected", rs.submits_rejected);
      metrics->SetCounter(prefix + "raft.snapshots_sent", rs.snapshots_sent);
      metrics->SetCounter(prefix + "raft.snapshots_installed", rs.snapshots_installed);
      metrics->SetCounter(prefix + "raft.config_changes_proposed", rs.config_changes_proposed);
      metrics->SetCounter(prefix + "raft.config_changes_committed", rs.config_changes_committed);
      metrics->SetCounter(prefix + "raft.config_changes_aborted", rs.config_changes_aborted);
      metrics->SetCounter(prefix + "raft.learners_promoted", rs.learners_promoted);
      metrics->SetCounter(prefix + "raft.learner_catchup_ns_total", rs.learner_catchup_ns_total);
      metrics->SetCounter(prefix + "raft.prevote_rounds", rs.prevote_rounds);
      metrics->SetCounter(prefix + "raft.prevote_granted", rs.prevote_granted);
      metrics->SetCounter(prefix + "raft.prevote_rejected", rs.prevote_rejected);
      metrics->SetCounter(prefix + "raft.stepdowns_check_quorum", rs.stepdowns_check_quorum);
      metrics->SetCounter(prefix + "raft.votes_ignored_sticky", rs.votes_ignored_sticky);
      metrics->SetCounter(prefix + "raft.read_index_served", rs.read_index_served);
      metrics->SetCounter(prefix + "raft.read_index_rejected", rs.read_index_rejected);
      metrics->SetCounter(prefix + "raft.agg_fallbacks", rs.agg_fallbacks);
      metrics->SetCounter(prefix + "raft.acks_deferred_persist", rs.acks_deferred_persist);
      metrics->SetCounter(prefix + "raft.acks_dropped_crash", rs.acks_dropped_crash);
      metrics->SetCounter(prefix + "raft.campaigns_blocked_suspect",
                          rs.campaigns_blocked_suspect);
      metrics->SetCounter(prefix + "raft.suspect_repaired", rs.suspect_repaired);
      metrics->SetCounter(prefix + "raft.match_regressions", rs.match_regressions);
      metrics->SetCounter(prefix + "raft.committed_overwritten", rs.committed_overwritten);
      metrics->SetGauge(prefix + "raft.commit_index",
                        static_cast<int64_t>(s.raft()->commit_index()));
      metrics->SetGauge(prefix + "raft.applied_index",
                        static_cast<int64_t>(s.raft()->applied_index()));
      metrics->SetGauge(prefix + "raft.durable_index",
                        static_cast<int64_t>(s.raft()->durable_index()));
    }
    if (s.storage() != nullptr) {
      const StorageStats& ss = s.storage()->stats();
      metrics->SetCounter(prefix + "storage.entry_records", ss.entry_records);
      metrics->SetCounter(prefix + "storage.meta_records", ss.meta_records);
      metrics->SetCounter(prefix + "storage.snapshots_saved", ss.snapshots_saved);
      metrics->SetCounter(prefix + "storage.recoveries", ss.recoveries);
      metrics->SetCounter(prefix + "storage.recovered_entries", ss.recovered_entries);
      metrics->SetCounter(prefix + "storage.torn_truncations", ss.torn_truncations);
      metrics->SetCounter(prefix + "storage.corrupt_records", ss.corrupt_records);
      metrics->SetCounter(prefix + "storage.suspect_recoveries", ss.suspect_recoveries);
      metrics->SetCounter(prefix + "storage.segments_dropped", ss.segments_dropped);
      const SimDiskStats& ds = s.disk()->stats();
      metrics->SetCounter(prefix + "disk.appends", ds.appends);
      metrics->SetCounter(prefix + "disk.bytes_written", ds.bytes_written);
      metrics->SetCounter(prefix + "disk.syncs", ds.syncs);
      metrics->SetCounter(prefix + "disk.sync_coalesced", ds.coalesced);
      metrics->SetCounter(prefix + "disk.crashes", ds.crashes);
      metrics->SetCounter(prefix + "disk.bytes_lost", ds.bytes_lost);
      metrics->SetCounter(prefix + "disk.torn_crashes", ds.torn_crashes);
      metrics->SetCounter(prefix + "disk.flips", ds.flips);
      metrics->SetCounter(prefix + "disk.stall_ns", ds.stall_ns);
    }
    metrics->SetGauge(prefix + "net_thread.busy_ns", s.net_thread().total_busy());
    metrics->SetGauge(prefix + "app_thread.busy_ns", s.app_thread().total_busy());
  }
  metrics->SetCounter(scope + "fabric/delivered_msgs", network().delivered_msgs());
  metrics->SetCounter(scope + "fabric/dropped_msgs", network().dropped_msgs());
  metrics->SetCounter(scope + "fabric/dropped_by_fault", network().dropped_by_fault());
  if (flow_control_ != nullptr) {
    metrics->SetCounter(scope + "flow_control/forwarded", flow_control_->forwarded());
    metrics->SetCounter(scope + "flow_control/nacked", flow_control_->nacked());
    metrics->SetGauge(scope + "flow_control/outstanding", flow_control_->outstanding());
    metrics->SetCounter(scope + "flow_control/reconciles_started",
                        flow_control_->reconciles_started());
    metrics->SetCounter(scope + "flow_control/reconciled_released",
                        flow_control_->reconciled_released());
    metrics->SetCounter(scope + "flow_control/force_released", flow_control_->force_released());
  }
  if (aggregator_ != nullptr) {
    const Aggregator::AggStats& as = aggregator_->agg_stats();
    metrics->SetCounter(scope + "aggregator/ae_forwarded", as.ae_forwarded);
    metrics->SetCounter(scope + "aggregator/replies_absorbed", as.replies_absorbed);
    metrics->SetCounter(scope + "aggregator/commits_sent", as.commits_sent);
    metrics->SetCounter(scope + "aggregator/flushes", as.flushes);
    metrics->SetCounter(scope + "aggregator/reconfigures", as.reconfigures);
  }
  metrics->SetGauge(scope + "cluster/members", static_cast<int64_t>(members_.size()));
  metrics->SetGauge(scope + "cluster/config_idx", static_cast<int64_t>(applied_config_idx_));
}

NodeId Cluster::LeaderId() const {
  for (size_t n = 0; n < servers_.size(); ++n) {
    if (!servers_[n]->failed() && servers_[n]->IsLeader()) {
      return static_cast<NodeId>(n);
    }
  }
  return kInvalidNode;
}

NodeId Cluster::WaitForLeader(TimeNs deadline) {
  if (config_.mode == ClusterMode::kUnreplicated) {
    return 0;
  }
  while (LeaderId() == kInvalidNode && sim().Now() < deadline) {
    if (!sim().Step()) {
      break;
    }
  }
  return LeaderId();
}

Addr Cluster::ClientTarget() const {
  switch (config_.mode) {
    case ClusterMode::kUnreplicated:
      return server_hosts_[0];
    case ClusterMode::kVanillaRaft: {
      const NodeId leader = LeaderId();
      return server_hosts_[static_cast<size_t>(leader == kInvalidNode ? 0 : leader)];
    }
    case ClusterMode::kHovercRaft:
    case ClusterMode::kHovercRaftPP:
      HC_CHECK(flow_control_ != nullptr);
      return flow_control_->id();
  }
  return server_hosts_[0];
}

Addr Cluster::RetryTarget() const {
  switch (config_.mode) {
    case ClusterMode::kHovercRaft:
    case ClusterMode::kHovercRaftPP:
      HC_CHECK(group_all_ != kInvalidHost);
      return group_all_;
    default:
      return ClientTarget();
  }
}

void Cluster::KillNode(NodeId node) {
  if (node == kInvalidNode) {
    return;  // e.g. KillLeader during an election window
  }
  HC_CHECK_GE(node, 0);
  HC_CHECK_LT(static_cast<size_t>(node), servers_.size());
  servers_[static_cast<size_t>(node)]->set_failed(true);
}

void Cluster::PowerFailNode(NodeId node) {
  if (node == kInvalidNode) {
    return;
  }
  HC_CHECK_GE(node, 0);
  HC_CHECK_LT(static_cast<size_t>(node), servers_.size());
  HC_CHECK(config_.server_template.disk_faults);
  servers_[static_cast<size_t>(node)]->PowerFail();
}

void Cluster::RestartNode(NodeId node) {
  HC_CHECK_GE(node, 0);
  HC_CHECK_LT(static_cast<size_t>(node), servers_.size());
  servers_[static_cast<size_t>(node)]->Restart();
}

// ---------------------------------------------------------------------------
// Dynamic membership
// ---------------------------------------------------------------------------

void Cluster::AddServer(NodeId node) {
  TryConfigChange(node, /*add=*/true, /*attempts_left=*/5000);
}

void Cluster::RemoveServer(NodeId node) {
  TryConfigChange(node, /*add=*/false, /*attempts_left=*/5000);
}

bool Cluster::IsMember(NodeId node) const {
  for (NodeId m : members_) {
    if (m == node) {
      return true;
    }
  }
  return false;
}

void Cluster::TryConfigChange(NodeId node, bool add, int32_t attempts_left) {
  HC_CHECK_GE(node, 0);
  HC_CHECK_LT(static_cast<size_t>(node), servers_.size());
  // The goal is reached only when the change *commits* (members_ tracks the
  // committed config chain): a proposal can be accepted by a stale leader and
  // truncated away on the next leader change, so acceptance alone is not
  // success. IsMember covers the learner phase of an add — committing the
  // learner config is enough; promotion is the leader's job from there.
  const bool satisfied = add ? IsMember(node) : !IsMember(node);
  if (satisfied) {
    return;
  }
  const NodeId leader = LeaderId();
  if (leader != kInvalidNode) {
    RaftNode* raft = servers_[static_cast<size_t>(leader)]->raft();
    // May be rejected (a change already in flight, possibly our own earlier
    // proposal); the retry below re-checks committed state either way.
    const bool accepted = add ? raft->StartAddServer(node) : raft->StartRemoveServer(node);
    (void)accepted;
  }
  // Not committed yet: retry at the management-plane cadence until the
  // budget runs out.
  if (attempts_left <= 0) {
    HC_LOG_WARN("cluster: giving up on %s of node %d", add ? "AddServer" : "RemoveServer", node);
    return;
  }
  sim().After(Millis(1), [this, node, add, attempts_left]() {
    TryConfigChange(node, add, attempts_left - 1);
  });
}

void Cluster::ApplyCommittedConfig(NodeId self, const MembershipConfig& config, LogIndex idx) {
  (void)self;  // the first replica to report a commit applies it for all
  if (idx <= applied_config_idx_) {
    return;
  }
  applied_config_idx_ = idx;
  const std::vector<NodeId> previous_members = members_;
  members_ = config.members;

  // 1. Multicast groups: the replication group tracks the member set (the
  //    switch joins/leaves replicas), and each per-node exclusion group —
  //    the aggregator's fan-out target when that node leads — tracks it too.
  if (group_all_ != kInvalidHost) {
    std::vector<HostId> member_hosts;
    member_hosts.reserve(config.members.size());
    for (NodeId m : config.members) {
      member_hosts.push_back(server_hosts_[static_cast<size_t>(m)]);
    }
    network().SetGroupMembers(group_all_, member_hosts);
  }
  for (size_t n = 0; n < groups_excluding_.size(); ++n) {
    std::vector<HostId> group;
    for (NodeId m : config.members) {
      if (m != static_cast<NodeId>(n)) {
        group.push_back(server_hosts_[static_cast<size_t>(m)]);
      }
    }
    network().SetGroupMembers(groups_excluding_[n], std::move(group));
  }

  // 2. Aggregator: install the new voter set and epoch (flushes registers).
  if (aggregator_ != nullptr) {
    aggregator_->Reconfigure(config.voters, idx);
  }

  // 3. Removed servers are retired from the management plane — a removed
  //    node that was partitioned when its removal committed never observes
  //    it locally. Only nodes *leaving* the config are retired; spares that
  //    were never members stay available for a later AddServer. Deferred so
  //    this runs outside the Raft callback that delivered the commit.
  for (NodeId removed : previous_members) {
    if (config.IsMember(removed)) {
      continue;
    }
    ReplicatedServer* s = servers_[static_cast<size_t>(removed)].get();
    if (s->raft() != nullptr && !s->raft()->retired()) {
      sim().After(0, [s]() {
        if (!s->failed() && s->raft() != nullptr) {
          s->raft()->Retire();
        }
      });
    }
  }
}

int32_t Cluster::LiveNodeCount() const {
  int32_t live = 0;
  for (const auto& s : servers_) {
    if (!s->failed()) {
      ++live;
    }
  }
  return live;
}

uint64_t Cluster::TotalReplies() const {
  uint64_t total = 0;
  for (const auto& s : servers_) {
    total += s->server_stats().replies_sent;
  }
  return total;
}

uint64_t Cluster::TotalExecuted() const {
  uint64_t total = 0;
  for (const auto& s : servers_) {
    total += s->server_stats().ops_executed;
  }
  return total;
}

}  // namespace hovercraft
