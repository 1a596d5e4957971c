// Heap a replica retains per log entry between two compactions
// (google-benchmark). Its own binary because the counting allocator replaces
// operator new/delete for the whole program; the timing cases in
// micro_raft_log keep the plain allocator.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "bench/counting_allocator.h"
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
// seq of each client. Counters:
//   log_bytes_per_entry  RaftLog: the entries, their requests, the rid index;
//   wal_bytes_per_entry  StableStorage and SimDisk: the segments' buffers and
//                        any per-entry bookkeeping;
//   bytes_per_entry      the sum.
// Live bytes are a deterministic function of the code (run each case alone
// with --benchmark_filter; after other cases, reused heap chunks shift them by
// a few bytes). CI gates bytes_per_entry (docs/performance.md section 10).
void BM_RetainedBytesPerEntry(benchmark::State& state) {
  constexpr uint64_t kEntries = 25'000;
  constexpr HostId kClients = 8;
  const auto stride = static_cast<uint64_t>(state.range(0));
  double log_bytes = 0;
  double wal_bytes = 0;
  for (auto _ : state) {
    Simulator sim;
    SimDisk disk(&sim, 1, /*sync_latency=*/0);
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
      e.request = std::make_shared<RpcRequest>(e.rid, R2p2Policy::kReplicatedReq,
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
BENCHMARK(BM_RetainedBytesPerEntry)->Arg(1)->Arg(4)->Unit(benchmark::kMillisecond)->Iterations(1);

}  // namespace
}  // namespace hovercraft

BENCHMARK_MAIN();
