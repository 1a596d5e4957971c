// Wall-clock cost of single layers, timed outside a simulation at the sizes a
// run reached: these explain sim_kreq_per_s layer by layer. Each returns the
// median ns/op over a few repetitions.
#ifndef PERFBENCH_SRC_MICROBENCH_H_
#define PERFBENCH_SRC_MICROBENCH_H_

#include <cstddef>
#include <cstdint>

namespace hovercraft::perfbench {

// Fixed fields of a WAL entry payload (src/raft/wal_codec.cc) besides the
// request body: flags, rid, body hash, ack watermark, policy, attempt,
// request watermark, shard slot and the body length.
constexpr size_t kWalEntryFixedBytes = 54;

// RaftLog: duplicate check of a new request id, Append, and a one-entry
// prefix compaction that holds the log at `log_entries`, with request ids
// spread over `clients` clients.
double RaftLogNsPerOp(size_t log_entries, int32_t clients);

// StableStorage::AppendEntry on a zero-latency SimDisk, `payload_bytes` of
// entry payload per record.
double StorageAppendNsPerRecord(size_t payload_bytes);

// SessionTable: Executed, Record and Acknowledge for one applied write, over
// `clients` clients whose ack watermark trails by a few requests.
double SessionNsPerOp(int32_t clients);

}  // namespace hovercraft::perfbench

#endif  // PERFBENCH_SRC_MICROBENCH_H_
