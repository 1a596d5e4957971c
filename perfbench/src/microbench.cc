#include "microbench.h"

#include <algorithm>
#include <memory>
#include <vector>

#include "probes.h"
#include "src/common/check.h"
#include "src/core/session_table.h"
#include "src/raft/log.h"
#include "src/sim/simulator.h"
#include "src/storage/sim_disk.h"
#include "src/storage/stable_storage.h"

namespace hovercraft::perfbench {
namespace {

constexpr int kReps = 5;
constexpr uint64_t kOps = 100'000;

// Runs `op(k)` kOps times per repetition; returns the median ns/op.
template <typename Op>
double MedianNsPerOp(Op&& op) {
  std::vector<double> per_rep;
  uint64_t k = 0;
  for (int rep = 0; rep < kReps; ++rep) {
    const int64_t start = WallNs();
    for (uint64_t i = 0; i < kOps; ++i) {
      op(k++);
    }
    per_rep.push_back(static_cast<double>(WallNs() - start) / static_cast<double>(kOps));
  }
  std::sort(per_rep.begin(), per_rep.end());
  return per_rep[per_rep.size() / 2];
}

}  // namespace

double RaftLogNsPerOp(size_t log_entries, int32_t clients) {
  log_entries = std::max<size_t>(log_entries, 1);
  const auto request = std::make_shared<const RpcRequest>(RequestId{0, 0},
                                                          R2p2Policy::kReplicatedReq, Body());
  std::vector<uint64_t> next_seq(static_cast<size_t>(clients), 1);
  auto entry_for = [&](uint64_t k) {
    LogEntry e;
    e.term = 1;
    const auto c = static_cast<HostId>(k % static_cast<uint64_t>(clients));
    e.rid = RequestId{c, next_seq[static_cast<size_t>(c)]++};
    e.request = request;
    return e;
  };
  RaftLog log;
  for (size_t i = 0; i < log_entries; ++i) {
    log.Append(entry_for(i));
  }
  uint64_t found = 0;
  const double ns = MedianNsPerOp([&](uint64_t k) {
    LogEntry e = entry_for(k);
    found += log.FindRequest(e.rid) != kNoLogIndex ? 1 : 0;
    log.Append(std::move(e));
    log.CompactPrefix(log.first_index());
  });
  HC_CHECK_EQ(found, 0u);  // every id is new: a hit means a broken log
  return ns;
}

double StorageAppendNsPerRecord(size_t payload_bytes) {
  Simulator sim;
  SimDisk disk(&sim, 1, /*sync_latency=*/0);
  StableStorage storage(&disk, FsyncPolicy::kGroupCommit);
  const std::vector<uint8_t> payload(payload_bytes, 0xAB);
  LogIndex idx = 0;
  return MedianNsPerOp([&](uint64_t /*k*/) {
    storage.AppendEntry(++idx, 1, 0, payload);
    if (idx % 4096 == 0) {
      // Compaction drops whole segments, as it does during a run, so the
      // simulated disk does not grow without bound.
      storage.AppendCompact(idx, 1);
    }
  });
}

double SessionNsPerOp(int32_t clients) {
  constexpr uint64_t kAckLag = 4;
  SessionTable table;
  const Body reply = MakeBody(std::vector<uint8_t>(8, 0));
  std::vector<uint64_t> next_seq(static_cast<size_t>(clients), 1);
  return MedianNsPerOp([&](uint64_t k) {
    const auto c = static_cast<HostId>(k % static_cast<uint64_t>(clients));
    const uint64_t seq = next_seq[static_cast<size_t>(c)]++;
    const RequestId rid{c, seq};
    if (!table.Executed(rid)) {
      table.Record(rid, reply);
    }
    if (seq > kAckLag) {
      table.Acknowledge(c, seq - kAckLag);
    }
  });
}

}  // namespace hovercraft::perfbench
