#include "trial.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <memory>
#include <optional>
#include <utility>

#include "src/app/kvstore/command.h"
#include "src/app/kvstore/service.h"
#include "src/app/synthetic.h"
#include "src/app/ycsb.h"
#include "src/core/cluster.h"
#include "src/loadgen/client.h"
#include "src/loadgen/workload.h"
#include "src/obs/watchdog.h"
#include "src/sim/distributions.h"

namespace hovercraft::perfbench {
namespace {

constexpr int32_t kRequestBytes = 24;
constexpr int32_t kReplyBytes = 8;
constexpr TimeNs kRecoveryWindow = Millis(10);
// A 10 ms window needs this many requests before its p99 means anything.
constexpr size_t kRecoveryMinSamples = 100;

YcsbEConfig YcsbConfig() {
  YcsbEConfig config;
  config.conversation_count = 2000;
  config.preload_per_conversation = 10;
  config.zipf_theta = 0.99;
  return config;
}

bool SyntheticReplyOk(const Body& reply) {
  return reply != nullptr && reply->size() == static_cast<size_t>(kReplyBytes);
}

// A kvstore reply is a status byte, a u32 value count and that many
// u32-length-prefixed values. Every YCSB-E reply must be kOk: SCANs hit
// preloaded conversations, INSERTs return the new list length.
bool KvReplyOk(const Body& reply) {
  if (reply == nullptr || reply->size() < 5 || (*reply)[0] != 0) {
    return false;
  }
  auto u32_at = [&reply](size_t off) {
    uint32_t v = 0;
    std::memcpy(&v, reply->data() + off, sizeof(v));
    return v;
  };
  static const auto kScanLimit = static_cast<uint32_t>(YcsbConfig().scan_limit);
  const uint32_t count = u32_at(1);
  if (count == 0 || count > kScanLimit) {
    return false;
  }
  size_t off = 5;
  for (uint32_t i = 0; i < count; ++i) {
    if (off + 4 > reply->size()) {
      return false;
    }
    off += 4 + u32_at(off);
  }
  return off == reply->size();
}

struct NodeSnap {
  RaftStats raft;
  ServerStats server;
  StorageStats storage;
  SimDiskStats disk;
};

struct Snap {
  uint64_t events = 0;
  uint64_t cancels = 0;
  uint64_t msgs = 0;
  uint64_t frames = 0;
  uint64_t wire_bytes = 0;
  uint64_t agg_commits = 0;
  uint64_t fc_nacks = 0;
  AllocCounts allocs;
  std::vector<NodeSnap> nodes;
};

Snap TakeSnap(Cluster& cluster) {
  Snap s;
  s.events = cluster.sim().executed_events();
  s.cancels = cluster.sim().cancelled_events();
  for (size_t h = 0; h < cluster.network().host_count(); ++h) {
    const NetCounters& c = cluster.network().host(static_cast<HostId>(h))->counters();
    s.msgs += c.tx_msgs;
    s.frames += c.tx_physical_frames;
    s.wire_bytes += c.tx_wire_bytes;
  }
  if (cluster.aggregator() != nullptr) {
    s.agg_commits = cluster.aggregator()->agg_stats().commits_sent;
  }
  if (cluster.flow_control() != nullptr) {
    s.fc_nacks = cluster.flow_control()->nacked();
  }
  for (NodeId n = 0; n < cluster.node_count(); ++n) {
    ReplicatedServer& server = cluster.server(n);
    s.nodes.push_back(NodeSnap{server.raft()->stats(), server.server_stats(),
                               server.storage()->stats(), server.disk()->stats()});
  }
  s.allocs = AllocCountsNow();
  return s;
}

LayerCounts Diff(const Snap& a, const Snap& b) {
  LayerCounts d;
  d.events = b.events - a.events;
  d.cancels = b.cancels - a.cancels;
  d.msgs = b.msgs - a.msgs;
  d.frames = b.frames - a.frames;
  d.wire_bytes = b.wire_bytes - a.wire_bytes;
  d.agg_commits = b.agg_commits - a.agg_commits;
  d.fc_nacks = b.fc_nacks - a.fc_nacks;
  d.allocs = b.allocs.allocs - a.allocs.allocs;
  d.alloc_bytes = b.allocs.bytes - a.allocs.bytes;
  for (size_t n = 0; n < a.nodes.size(); ++n) {
    const NodeSnap& x = a.nodes[n];
    const NodeSnap& y = b.nodes[n];
    d.ae_sent += y.raft.ae_sent - x.raft.ae_sent;
    d.elections += y.raft.elections_started - x.raft.elections_started;
    if (y.raft.times_leader == x.raft.times_leader && y.raft.ae_sent == x.raft.ae_sent) {
      d.follower_entries += y.raft.entries_appended - x.raft.entries_appended;
      d.follower_ae_received += y.raft.ae_received - x.raft.ae_received;
    }
    d.storage_records += (y.storage.entry_records - x.storage.entry_records) +
                         (y.storage.meta_records - x.storage.meta_records);
    d.disk_bytes += y.disk.bytes_written - x.disk.bytes_written;
    d.syncs += y.disk.syncs - x.disk.syncs;
    d.execs += y.server.ops_executed - x.server.ops_executed;
    d.feedback += y.server.feedback_sent - x.server.feedback_sent;
    d.dedup_hits += y.server.dedup_hits - x.server.dedup_hits;
  }
  return d;
}

uint64_t Mix(uint64_t h, uint64_t v) {
  h ^= v + 0x9E3779B97F4A7C15ull + (h << 6) + (h >> 2);
  return h * 0x100000001B3ull;
}

// Detaches a sink from the cluster's recorder before the cluster goes away.
class SinkGuard {
 public:
  SinkGuard(obs::FlightRecorder* recorder, obs::FlightRecorder::Sink* sink)
      : recorder_(recorder), sink_(sink) {
    recorder_->AddSink(sink_);
  }
  ~SinkGuard() { recorder_->RemoveSink(sink_); }
  SinkGuard(const SinkGuard&) = delete;
  SinkGuard& operator=(const SinkGuard&) = delete;

 private:
  obs::FlightRecorder* recorder_;
  obs::FlightRecorder::Sink* sink_;
};

std::function<std::unique_ptr<StateMachine>()> AppFactory(const WorkloadSpec& spec,
                                                          uint64_t seed,
                                                          const TraceProbes* trace) {
  CallTimer* timer = trace != nullptr ? trace->app : nullptr;
  SpanLog* spans = trace != nullptr ? trace->spans : nullptr;
  auto wrap = [timer, spans](std::unique_ptr<StateMachine> app) -> std::unique_ptr<StateMachine> {
    if (timer == nullptr) {
      return app;
    }
    return std::make_unique<TimedStateMachine>(std::move(app), timer, spans);
  };
  if (!spec.ycsb) {
    return [wrap]() { return wrap(std::make_unique<SyntheticService>()); };
  }
  const uint64_t preload_seed = Mix(seed, 0xFEED5EED);
  return [wrap, preload_seed]() {
    auto svc = std::make_unique<KvService>();
    // Every replica loads the same dataset before the run.
    Rng rng(preload_seed);
    YcsbEGenerator gen(YcsbConfig());
    for (const KvCommand& cmd : gen.PreloadCommands(rng)) {
      svc->Apply(cmd);
    }
    return wrap(std::move(svc));
  };
}

std::unique_ptr<Workload> MakeWorkload(const WorkloadSpec& spec, const TraceProbes* trace) {
  std::unique_ptr<Workload> workload;
  if (spec.ycsb) {
    workload = std::make_unique<YcsbEWorkload>(YcsbConfig());
  } else {
    SyntheticWorkloadConfig config;
    config.request_bytes = kRequestBytes;
    config.reply_bytes = kReplyBytes;
    config.read_only_fraction = spec.read_only_fraction;
    if (spec.bimodal_service) {
      config.service_time = std::make_shared<BimodalDistribution>(Micros(10), 0.1, 10.0);
    }
    workload = std::make_unique<SyntheticWorkload>(config);
  }
  if (trace != nullptr && trace->loadgen != nullptr) {
    workload = std::make_unique<TimedWorkload>(std::move(workload), trace->loadgen, trace->spans);
  }
  return workload;
}

// True when `bad` failures among `n` samples still leave the nearest-rank
// p99 within the SLO.
bool P99Meets(size_t n, size_t bad) {
  const size_t need = static_cast<size_t>(std::ceil(0.99 * static_cast<double>(n)));
  return n - bad >= need;
}

}  // namespace

void LayerCounts::Add(const LayerCounts& o) {
  requests += o.requests;
  completed += o.completed;
  events += o.events;
  cancels += o.cancels;
  msgs += o.msgs;
  frames += o.frames;
  wire_bytes += o.wire_bytes;
  ae_sent += o.ae_sent;
  elections += o.elections;
  follower_entries += o.follower_entries;
  follower_ae_received += o.follower_ae_received;
  storage_records += o.storage_records;
  disk_bytes += o.disk_bytes;
  request_body_bytes += o.request_body_bytes;
  syncs += o.syncs;
  execs += o.execs;
  feedback += o.feedback;
  agg_commits += o.agg_commits;
  dedup_hits += o.dedup_hits;
  allocs += o.allocs;
  alloc_bytes += o.alloc_bytes;
  retransmits += o.retransmits;
  recovered += o.recovered;
  abandoned += o.abandoned;
  fc_nacks += o.fc_nacks;
}

const std::vector<WorkloadSpec>& Workloads() {
  static const std::vector<WorkloadSpec> kWorkloads = [] {
    std::vector<WorkloadSpec> w;

    WorkloadSpec fig7;
    fig7.name = "fig7-write";
    fig7.why = "paper Fig. 7 point: HovercRaft N=3, 24 B writes at 600 kRPS, leader replies, "
               "batching off; protocol path cost, control for batching";
    fig7.mode = ClusterMode::kHovercRaft;
    fig7.rate_rps = 600e3;
    // Many short trials: medians over more of them are steadier.
    fig7.warmup = Millis(5);
    fig7.window = Millis(20);
    fig7.drain = Millis(5);
    fig7.trials_per_10s = 36;
    fig7.ladder_krps = {700, 800, 900, 1050};
    fig7.blame_tolerance = 0.01;
    w.push_back(fig7);

    WorkloadSpec batched = fig7;
    batched.name = "fig7-write-batched";
    batched.why = "same traffic and seed with transport batching on; exercises the Host TX "
                  "coalescing path";
    batched.tx_batching = true;
    batched.trials_per_10s = 28;
    w.push_back(batched);

    WorkloadSpec failover;
    failover.name = "read-failover";
    failover.why = "HovercRaft++ with JBSQ, flow control and retries on the Fig. 11 read mix; "
                   "the leader is killed mid-run";
    failover.mode = ClusterMode::kHovercRaftPP;
    failover.policy = ReplierPolicy::kJbsq;
    failover.bounded_queue = 32;
    failover.fc_threshold = 1000;
    failover.retries = true;
    failover.read_only_fraction = 0.75;
    failover.bimodal_service = true;
    failover.rate_rps = 120e3;
    // Short trials, many of them: the election timeout is random, so
    // unavail_ms and recovery_ms are medians over many failovers.
    failover.warmup = Millis(10);
    failover.window = Millis(30);
    failover.after_kill = Millis(80);
    failover.drain = Millis(60);
    failover.trials_per_10s = 40;
    failover.ladder_krps = {90, 120, 150, 210};
    w.push_back(failover);

    WorkloadSpec ycsb;
    ycsb.name = "ycsb-e";
    ycsb.why = "HovercRaft++ kvstore under YCSB-E (95% SCAN, 5% INSERT, zipf 0.99); the one "
               "app-bound workload, control for protocol-path wins";
    ycsb.mode = ClusterMode::kHovercRaftPP;
    ycsb.policy = ReplierPolicy::kJbsq;
    ycsb.bounded_queue = 64;
    ycsb.ycsb = true;
    ycsb.rate_rps = 40e3;
    ycsb.warmup = Millis(20);
    ycsb.window = Millis(250);
    ycsb.drain = Millis(20);
    ycsb.trials_per_10s = 4;
    ycsb.ladder_krps = {30, 45, 80};
    ycsb.ladder_window = Millis(100);
    w.push_back(ycsb);
    return w;
  }();
  return kWorkloads;
}

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& spec : Workloads()) {
    if (name == spec.name) {
      return &spec;
    }
  }
  return nullptr;
}

uint64_t TrialSeed(uint64_t seed, uint64_t stream, uint64_t index) {
  uint64_t x = seed * 0x9E3779B97F4A7C15ull + stream * 0xD1B54A32D192ED03ull + index + 1;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return (x ^ (x >> 31)) | 1;
}

TrialPlan MainPlan(const WorkloadSpec& spec, uint64_t seed) {
  TrialPlan plan;
  plan.seed = seed;
  plan.rate_rps = spec.rate_rps;
  plan.warmup = spec.warmup;
  plan.window = spec.window;
  plan.after_kill = spec.after_kill;
  plan.drain = spec.drain;
  return plan;
}

TrialPlan LadderPlan(const WorkloadSpec& spec, uint64_t seed, double rate_rps) {
  TrialPlan plan;
  plan.seed = seed;
  plan.rate_rps = rate_rps;
  plan.warmup = Millis(10);
  plan.window = spec.ladder_window;
  // A rung above the knee leaves a backlog; it must drain before the
  // replicas' digests are compared.
  plan.drain = std::max(spec.drain, Millis(50));
  return plan;
}

TimeNs Percentile(const std::vector<TimeNs>& sorted, double q) {
  if (sorted.empty()) {
    return 0;
  }
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(sorted.size())));
  rank = std::clamp<size_t>(rank, 1, sorted.size());
  return sorted[rank - 1];
}

size_t SamplesBeyond(size_t n, double q) {
  const size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(n)));
  return n > rank ? n - rank : 0;
}

TrialResult RunTrial(const WorkloadSpec& spec, const TrialPlan& plan, const TraceProbes* trace) {
  TrialResult r;
  const int64_t wall_start = WallNs();
  SpanLog* spans = trace != nullptr ? trace->spans : nullptr;
  const uint32_t setup_span = spans != nullptr ? spans->Begin("setup", 0) : 0;

  // Declared before the cluster, which detaches it in its destructor.
  obs::Watchdog watchdog;
  ClusterConfig config;
  config.mode = spec.mode;
  config.nodes = kNodes;
  config.seed = plan.seed;
  config.replier_policy = spec.policy;
  config.bounded_queue_depth = spec.bounded_queue;
  config.flow_control_threshold = spec.fc_threshold;
  config.costs.tx_batching = spec.tx_batching;
  config.watchdog = &watchdog;
  config.app_factory = AppFactory(spec, plan.seed, trace);
  Cluster cluster(config);
  if (cluster.WaitForLeader() == kInvalidNode) {
    r.failures.push_back("no leader elected");
    if (spans != nullptr) {
      spans->End(setup_span);
    }
    return r;
  }
  const TimeNs t0 = cluster.sim().Now();
  const TimeNs window_start = t0 + plan.warmup;
  const TimeNs window_end = window_start + plan.window;
  const bool kill = plan.after_kill > 0;
  const TimeNs load_end = window_end + plan.after_kill;
  const TimeNs end = load_end + plan.drain;
  // Percentiles cover requests sent in the window. With a kill they stop
  // one SLO before it: later requests were still within their SLO when the
  // leader died, so their latency is the failover's, which unavail_ms and
  // recovery_ms measure.
  const TimeNs latency_end = kill ? window_end - kSlo : load_end;

  std::optional<TrialBlameSink> blame;
  std::optional<SinkGuard> blame_guard;
  if (trace != nullptr && trace->critical_path != nullptr) {
    blame.emplace(trace->critical_path, trace->client_offset, window_start, latency_end);
    blame_guard.emplace(cluster.sim().flight_recorder(), &*blame);
  }

  std::vector<std::unique_ptr<RequestLog>> logs;
  std::vector<std::unique_ptr<ClientHost>> clients;
  for (int32_t c = 0; c < kClients; ++c) {
    logs.push_back(std::make_unique<RequestLog>(spec.ycsb ? KvReplyOk : SyntheticReplyOk));
    auto client = std::make_unique<ClientHost>(
        &cluster.sim(), config.costs, [&cluster]() { return cluster.ClientTarget(); },
        MakeWorkload(spec, trace), plan.rate_rps / kClients,
        Mix(plan.seed, 0x9000u + static_cast<uint64_t>(c)));
    cluster.network().Attach(client.get());
    client->set_observer(logs.back().get());
    if (spec.retries) {
      // The Fig. 12 backoffs: above the window-limited sojourn time, so
      // steady traffic never retransmits; failover gaps are far beyond it.
      ClientHost::RetryPolicy retry;
      retry.enabled = true;
      retry.initial_backoff = Millis(10);
      retry.max_backoff = Millis(50);
      client->set_retry_policy(retry);
      client->set_retry_target([&cluster]() { return cluster.RetryTarget(); });
    }
    client->SetMeasureWindow(window_start, load_end);
    client->StartLoad(t0, load_end);
    clients.push_back(std::move(client));
  }
  if (kill) {
    cluster.sim().At(window_end, [&cluster]() { cluster.KillLeader(); });
  }

  const Snap before = TakeSnap(cluster);
  if (spans != nullptr) {
    spans->End(setup_span);
  }
  const int64_t load_wall_start = WallNs();
  r.setup_s = static_cast<double>(load_wall_start - wall_start) / 1e9;

  // The run stops once at the end of the window (to read the leader's log
  // size) and, when traced, every 5 ms of virtual time for a sim.run span.
  const uint32_t load_span = spans != nullptr ? spans->Begin("load", 0) : 0;
  auto run_until = [&](TimeNs until) {
    if (spans == nullptr) {
      cluster.sim().RunUntil(until);
      return;
    }
    for (TimeNs t = cluster.sim().Now(); t < until;) {
      t = std::min(until, t + Millis(5));
      const uint32_t slice = spans->Begin("sim.run", load_span);
      spans->set_current(slice);
      cluster.sim().RunUntil(t);
      spans->End(slice);
    }
    spans->set_current(0);
  };
  run_until(window_end - 1);
  const NodeId leader = cluster.LeaderId();
  if (leader != kInvalidNode) {
    r.leader_log_entries = cluster.server(leader).raft()->log().size();
  }
  run_until(end);
  if (spans != nullptr) {
    spans->End(load_span);
  }
  r.load_s = static_cast<double>(WallNs() - load_wall_start) / 1e9;
  const Snap after = TakeSnap(cluster);
  r.layers = Diff(before, after);

  // ---- client accounting ----
  for (size_t c = 0; c < clients.size(); ++c) {
    ClientHost& client = *clients[c];
    client.AccountLost(plan.drain);
    r.layers.requests += client.total_sent();
    r.layers.completed += client.total_completed();
    r.layers.retransmits += client.total_retransmits();
    r.layers.recovered += client.recovered_in_window();
    r.layers.abandoned += client.total_abandoned();
    const RequestLog& log = *logs[c];
    r.layers.request_body_bytes += log.body_bytes();
    uint64_t sent = 0, completed = 0, nacked = 0, open = 0;
    for (const RequestLog::Record& rec : log.records()) {
      if (rec.sent < window_start || rec.sent >= load_end) {
        continue;
      }
      ++sent;
      completed += rec.done >= 0 ? 1 : 0;
      nacked += rec.done == RequestLog::kNacked ? 1 : 0;
      open += rec.done == RequestLog::kOpen ? 1 : 0;
    }
    if (log.records().size() != client.total_sent() || sent != client.sent_in_window() ||
        completed != client.completed_in_window() || nacked != client.nacked_in_window() ||
        open != client.lost_in_window() ||
        client.sent_in_window() != client.completed_in_window() + client.nacked_in_window() +
                                       client.lost_in_window()) {
      r.failures.push_back("client " + std::to_string(c) +
                           ": sent != completed + nacked + lost, or the observer disagrees "
                           "with the client's counters");
    }
    if (log.bad_replies() != 0) {
      r.failures.push_back(std::to_string(log.bad_replies()) + " malformed replies");
    }
    if (log.protocol_errors() != 0) {
      r.failures.push_back(std::to_string(log.protocol_errors()) +
                           " observer callbacks out of order");
    }
  }

  // ---- replica checks ----
  std::optional<uint64_t> digest;
  uint64_t double_applies = 0;
  for (NodeId n = 0; n < cluster.node_count(); ++n) {
    ReplicatedServer& server = cluster.server(n);
    double_applies += server.server_stats().double_applies;
    if (server.failed()) {
      continue;
    }
    if (!digest.has_value()) {
      digest = server.app().Digest();
    } else if (*digest != server.app().Digest()) {
      r.failures.push_back("live replicas disagree on the state digest");
    }
  }
  if (double_applies != 0) {
    r.failures.push_back("double_applies = " + std::to_string(double_applies));
  }
  if (cluster.flow_control() != nullptr) {
    r.fc_outstanding_end = cluster.flow_control()->outstanding();
    if (r.fc_outstanding_end != 0) {
      r.failures.push_back("flow-control ledger did not drain: outstanding = " +
                           std::to_string(r.fc_outstanding_end));
    }
  }
  if (!watchdog.ok()) {
    r.failures.push_back("watchdog: " + watchdog.Summary());
  }

  // ---- simulated metrics from the exact request records ----
  struct Req {
    TimeNs sent;
    TimeNs latency;  // kFailedLatency for failures
  };
  std::vector<Req> reqs;
  std::vector<TimeNs> completions;
  uint64_t window_completed = 0;
  uint64_t fingerprint = 0xCBF29CE484222325ull;
  for (const auto& log : logs) {
    for (const RequestLog::Record& rec : log->records()) {
      fingerprint = Mix(Mix(fingerprint, static_cast<uint64_t>(rec.sent)),
                        static_cast<uint64_t>(rec.done));
      if (rec.done >= 0) {
        completions.push_back(rec.done);
      }
      if (rec.sent < window_start) {
        continue;
      }
      const TimeNs latency = rec.done >= 0 ? rec.done - rec.sent : kFailedLatency;
      reqs.push_back(Req{rec.sent, latency});
      ++r.attempted;
      r.failed += latency == kFailedLatency ? 1 : 0;
      if (rec.sent < latency_end) {
        r.window_latency.push_back(latency);
        if (rec.sent < window_end && rec.done >= 0) {
          ++window_completed;
        }
        if (rec.sent < window_end && (rec.done < 0 || rec.done > window_end)) {
          ++r.outstanding_at_window_end;
        }
      }
    }
  }
  r.fingerprint = Mix(Mix(fingerprint, r.layers.events), r.layers.msgs);
  r.achieved_rps = static_cast<double>(window_completed) * 1e9 / static_cast<double>(plan.window);
  std::sort(reqs.begin(), reqs.end(), [](const Req& a, const Req& b) { return a.sent < b.sent; });
  std::sort(completions.begin(), completions.end());

  {
    // p99 of the last quarter of the window: a growing backlog shows here
    // before it shows in the whole-window p99.
    std::vector<TimeNs> tail;
    const TimeNs from = window_end - plan.window / 4;
    for (const Req& q : reqs) {
      if (q.sent >= from && q.sent < window_end) {
        tail.push_back(q.latency);
      }
    }
    std::sort(tail.begin(), tail.end());
    r.last_quarter_p99_ns = Percentile(tail, 0.99);
  }

  const TimeNs disturbance = kill ? window_end : window_start;
  TimeNs prev = disturbance;
  for (TimeNs c : completions) {
    if (c < disturbance) {
      continue;
    }
    if (c > load_end) {
      break;
    }
    r.unavail_ns = std::max(r.unavail_ns, c - prev);
    prev = c;
  }
  r.unavail_ns = std::max(r.unavail_ns, load_end - prev);

  // Recovery: slide a 10 ms window over the requests sent after the
  // disturbance; the first window whose p99 meets the SLO ends recovery.
  {
    size_t lo = 0;
    while (lo < reqs.size() && reqs[lo].sent < disturbance) {
      ++lo;
    }
    size_t hi = lo;
    size_t bad = 0;
    r.recovery_ns = load_end - disturbance;
    for (size_t i = lo; i < reqs.size() && reqs[i].sent + kRecoveryWindow <= load_end; ++i) {
      while (hi < reqs.size() && reqs[hi].sent < reqs[i].sent + kRecoveryWindow) {
        bad += reqs[hi].latency > kSlo ? 1 : 0;
        ++hi;
      }
      const size_t n = hi - i;
      if (n >= kRecoveryMinSamples && P99Meets(n, bad)) {
        r.recovery_ns = reqs[i].sent + kRecoveryWindow - disturbance;
        r.recovered = true;
        break;
      }
      bad -= reqs[i].latency > kSlo ? 1 : 0;
    }
  }
  return r;
}

}  // namespace hovercraft::perfbench
