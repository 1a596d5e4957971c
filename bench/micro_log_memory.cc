// Heap a replica retains per log entry between two compactions, heap
// allocations per request on a fig7-shaped run, the heap one of its clients
// holds, and the longest log such a run holds (google-benchmark). Its own
// binary because the counting allocator replaces operator new/delete for the
// whole program; the timing cases in micro_raft_log keep the plain allocator.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "bench/counting_allocator.h"
#include "src/app/synthetic.h"
#include "src/common/check.h"
#include "src/core/cluster.h"
#include "src/loadgen/client.h"
#include "src/loadgen/workload.h"
#include "src/raft/log.h"
#include "src/raft/wal_codec.h"
#include "src/sim/simulator.h"
#include "src/storage/fsync_policy.h"
#include "src/storage/sim_disk.h"
#include "src/storage/stable_storage.h"

namespace hovercraft {
namespace {

// 25,000 fig7-shaped entries (24-byte writes from 8 clients, each with its
// own request) appended through RaftLog, then encoded with EncodeWalEntry and
// appended through StableStorage on a zero-latency SimDisk. The argument is
// the seq stride: 1 is one replica group serving every request of its
// clients; 4 is one of four shard groups, whose log sees about every fourth
// seq of each client. BM_RetainedBytesPerEntry's disk keeps its bytes, as a
// deployment with ServerConfig::disk_faults does; the NoDiskFaults case's
// keeps sizes only, as every other deployment's does. Counters:
//   log_bytes_per_entry  RaftLog: the entries, their requests, the rid index;
//   wal_bytes_per_entry  StableStorage and SimDisk: the segments' buffers and
//                        any per-entry bookkeeping;
//   bytes_per_entry      the sum.
// Live bytes are a deterministic function of the code (run each case alone
// with --benchmark_filter; after other cases, reused heap chunks shift them by
// a few bytes). CI gates bytes_per_entry (docs/performance.md sections 10
// and 15).
void RetainedBytesPerEntry(benchmark::State& state, bool disk_faults) {
  constexpr uint64_t kEntries = 25'000;
  constexpr HostId kClients = 8;
  const auto stride = static_cast<uint64_t>(state.range(0));
  double log_bytes = 0;
  double wal_bytes = 0;
  for (auto _ : state) {
    Simulator sim;
    SimDisk disk(&sim, 1, /*sync_latency=*/0, disk_faults);
    StableStorage storage(&disk, FsyncPolicy::kGroupCommit);
    auto log = std::make_unique<RaftLog>();
    std::vector<uint64_t> next_seq(kClients, 1);

    const uint64_t live_before = g_live_bytes;
    for (uint64_t k = 0; k < kEntries; ++k) {
      const auto c = static_cast<HostId>(k % kClients);
      LogEntry e;
      e.term = 1;
      e.replier = 0;
      e.rid = RequestId{c, next_seq[static_cast<size_t>(c)]};
      next_seq[static_cast<size_t>(c)] += stride;
      e.request = MakeMessage<RpcRequest>(e.rid, R2p2Policy::kReplicatedReq,
                                          MakeBody(std::vector<uint8_t>(24)));
      e.body_hash = HashRequestBody(*e.request);
      log->Append(std::move(e));
    }
    const uint64_t live_log = g_live_bytes;
    for (LogIndex idx = log->first_index(); idx <= log->last_index(); ++idx) {
      const LogEntry& e = log->At(idx);
      storage.AppendEntry(idx, e.term, e.replier, EncodeWalEntry(e));
    }
    const uint64_t live_wal = g_live_bytes;
    log_bytes = static_cast<double>(live_log - live_before);
    wal_bytes = static_cast<double>(live_wal - live_log);
    benchmark::DoNotOptimize(log->FindRequest(RequestId{0, 1}));
  }
  state.counters["log_bytes_per_entry"] = log_bytes / kEntries;
  state.counters["wal_bytes_per_entry"] = wal_bytes / kEntries;
  state.counters["bytes_per_entry"] = (log_bytes + wal_bytes) / kEntries;
}
void BM_RetainedBytesPerEntry(benchmark::State& state) { RetainedBytesPerEntry(state, true); }
void BM_RetainedBytesPerEntryNoDiskFaults(benchmark::State& state) {
  RetainedBytesPerEntry(state, false);
}
BENCHMARK(BM_RetainedBytesPerEntry)->Arg(1)->Arg(4)->Unit(benchmark::kMillisecond)->Iterations(1);
BENCHMARK(BM_RetainedBytesPerEntryNoDiskFaults)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);

// Heap allocations (operator new calls) per completed request on the Figure 7
// write path: HovercRaft, 3 nodes, 24-byte writes with 8-byte replies, the
// leader replying, no TX batching, one open-loop client at 300 kRPS. Counted
// over 20 ms of simulated load after a 10 ms warm-up, so start-up (the
// election, first table and pool growth) stays out. The count is a
// deterministic function of the code and the pinned seeds; run the case alone
// (--benchmark_filter) since pool chunks left by an earlier case in the same
// process would be reused. CI gates allocs_per_req (docs/performance.md
// section 12).
void BM_AllocsPerRequest(benchmark::State& state) {
  double allocs_per_req = 0;
  double alloc_bytes_per_req = 0;
  for (auto _ : state) {
    ClusterConfig config;
    config.mode = ClusterMode::kHovercRaft;
    config.nodes = 3;
    config.seed = 7;
    config.app_factory = []() { return std::make_unique<SyntheticService>(); };
    Cluster cluster(config);
    HC_CHECK_NE(cluster.WaitForLeader(), kInvalidNode);
    SyntheticWorkloadConfig wc;
    wc.request_bytes = 24;
    wc.reply_bytes = 8;
    wc.service_time = std::make_shared<FixedDistribution>(Micros(1));
    ClientHost client(&cluster.sim(), cluster.config().costs,
                      [&cluster]() { return cluster.ClientTarget(); },
                      std::make_unique<SyntheticWorkload>(wc), 300'000, 11);
    cluster.network().Attach(&client);
    const TimeNs t0 = cluster.sim().Now();
    client.StartLoad(t0, t0 + Millis(30));
    cluster.sim().RunUntil(t0 + Millis(10));
    const uint64_t calls_before = g_alloc_calls;
    const uint64_t bytes_before = g_alloc_bytes;
    const uint64_t completed_before = client.total_completed();
    cluster.sim().RunUntil(t0 + Millis(30));
    const auto completed = static_cast<double>(client.total_completed() - completed_before);
    HC_CHECK_GT(completed, 0.0);
    allocs_per_req = static_cast<double>(g_alloc_calls - calls_before) / completed;
    alloc_bytes_per_req = static_cast<double>(g_alloc_bytes - bytes_before) / completed;
  }
  state.counters["allocs_per_req"] = allocs_per_req;
  state.counters["alloc_bytes_per_req"] = alloc_bytes_per_req;
}
BENCHMARK(BM_AllocsPerRequest)->Unit(benchmark::kMillisecond)->Iterations(1);

// Heap one Figure 7 client holds (docs/performance.md "Trial set-up"): the
// cluster and client of BM_AllocsPerRequest, the client measuring its whole
// 1/3 s of load, so it records about 10^5 latencies. Counters:
//   construct_bytes  bytes the ClientHost constructor requests: a trial
//                    builds 8 clients, and a client that never records
//                    needs none;
//   latencies        the latencies it recorded;
//   held_bytes       usable bytes its destructor frees once the load has
//                    drained: the latency histogram's buckets, and the
//                    request tables' bucket arrays.
// Both byte counts are a deterministic function of the code and the pinned
// seeds; run the case alone. CI gates construct_bytes and held_bytes.
void BM_ClientHostBytes(benchmark::State& state) {
  double construct_bytes = 0;
  double latencies = 0;
  double held_bytes = 0;
  for (auto _ : state) {
    ClusterConfig config;
    config.mode = ClusterMode::kHovercRaft;
    config.nodes = 3;
    config.seed = 7;
    config.app_factory = []() { return std::make_unique<SyntheticService>(); };
    Cluster cluster(config);
    HC_CHECK_NE(cluster.WaitForLeader(), kInvalidNode);
    SyntheticWorkloadConfig wc;
    wc.request_bytes = 24;
    wc.reply_bytes = 8;
    wc.service_time = std::make_shared<FixedDistribution>(Micros(1));
    auto workload = std::make_unique<SyntheticWorkload>(wc);
    std::optional<ClientHost> client;  // not on the heap: only what it allocates counts
    const uint64_t bytes_before = g_alloc_bytes;
    client.emplace(&cluster.sim(), cluster.config().costs,
                   [&cluster]() { return cluster.ClientTarget(); }, std::move(workload), 300'000,
                   11);
    construct_bytes = static_cast<double>(g_alloc_bytes - bytes_before);
    cluster.network().Attach(&*client);
    const TimeNs t0 = cluster.sim().Now();
    const TimeNs stop = t0 + Seconds(1) / 3;
    client->SetMeasureWindow(t0, stop);
    client->StartLoad(t0, stop);
    cluster.sim().RunUntil(stop + Millis(10));
    HC_CHECK_EQ(client->total_completed(), client->total_sent());
    latencies = static_cast<double>(client->latencies().count());
    const uint64_t live_before = g_live_bytes;
    client.reset();
    held_bytes = static_cast<double>(live_before - g_live_bytes);
  }
  state.counters["construct_bytes"] = construct_bytes;
  state.counters["latencies"] = latencies;
  state.counters["held_bytes"] = held_bytes;
}
BENCHMARK(BM_ClientHostBytes)->Unit(benchmark::kMillisecond)->Iterations(1);

// The largest Raft log on any node of a fig7-shaped cluster (HovercRaft, 3
// nodes, 24-byte writes, the leader replying, no TX batching) offered
// 1,050 kRPS by 8 open-loop clients for 40 ms: perfbench's failing top
// ladder rung, where the log grows fastest. Every node's log length is read
// every 10 us of virtual time until the load ends. A node compacts once the
// prefix it may drop reaches log_retention_entries, so max_log_entries stays
// within twice the retention plus the node's unapplied tail; with the 20 ms
// compaction timer alone it reached about 25,000. Deterministic. CI gates
// max_log_entries (docs/performance.md section 16).
class LogLengthSampler final : public EventHandler {
 public:
  LogLengthSampler(Cluster* cluster, TimeNs period, TimeNs stop)
      : cluster_(cluster), period_(period), stop_(stop) {
    cluster_->sim().After(period_, this);
  }
  void OnEvent() override {
    for (NodeId n = 0; n < cluster_->node_count(); ++n) {
      max_entries_ = std::max(max_entries_, cluster_->server(n).raft()->log().size());
    }
    if (cluster_->sim().Now() + period_ <= stop_) {
      cluster_->sim().After(period_, this);
    }
  }
  size_t max_entries() const { return max_entries_; }

 private:
  Cluster* cluster_;
  TimeNs period_;
  TimeNs stop_;
  size_t max_entries_ = 0;
};

void BM_MaxLogEntries(benchmark::State& state) {
  constexpr int kClients = 8;
  size_t max_entries = 0;
  LogIndex retention = 0;
  for (auto _ : state) {
    ClusterConfig config;
    config.mode = ClusterMode::kHovercRaft;
    config.nodes = 3;
    config.seed = 1;
    config.app_factory = []() { return std::make_unique<SyntheticService>(); };
    Cluster cluster(config);
    HC_CHECK_NE(cluster.WaitForLeader(), kInvalidNode);
    retention = config.raft.log_retention_entries;
    SyntheticWorkloadConfig wc;
    wc.request_bytes = 24;
    wc.reply_bytes = 8;
    wc.service_time = std::make_shared<FixedDistribution>(Micros(1));
    const TimeNs t0 = cluster.sim().Now();
    std::vector<std::unique_ptr<ClientHost>> clients;
    for (int c = 0; c < kClients; ++c) {
      clients.push_back(std::make_unique<ClientHost>(
          &cluster.sim(), cluster.config().costs, [&cluster]() { return cluster.ClientTarget(); },
          std::make_unique<SyntheticWorkload>(wc), 1'050'000.0 / kClients, 100 + c));
      cluster.network().Attach(clients.back().get());
      clients.back()->StartLoad(t0, t0 + Millis(40));
    }
    LogLengthSampler sampler(&cluster, Micros(10), t0 + Millis(40));
    cluster.sim().RunUntil(t0 + Millis(40));
    max_entries = sampler.max_entries();
  }
  state.counters["max_log_entries"] = static_cast<double>(max_entries);
  state.counters["log_retention_entries"] = static_cast<double>(retention);
}
BENCHMARK(BM_MaxLogEntries)->Unit(benchmark::kMillisecond)->Iterations(1);

}  // namespace
}  // namespace hovercraft

BENCHMARK_MAIN();
