// The benchmark's workloads and one trial of a workload: build a fresh
// cluster from a seed, drive it open loop, drain, check it, and report the
// simulated outcome next to what it cost to simulate.
#ifndef PERFBENCH_SRC_TRIAL_H_
#define PERFBENCH_SRC_TRIAL_H_

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "probes.h"
#include "src/common/types.h"
#include "src/obs/critical_path.h"

namespace hovercraft::perfbench {

// The paper's SLO: p99 within 500 us.
constexpr TimeNs kSlo = Micros(500);
// Latency recorded for a request that was NACKed, lost or abandoned: it
// misses every limit.
constexpr TimeNs kFailedLatency = std::numeric_limits<TimeNs>::max();
constexpr int32_t kClients = 8;
constexpr int32_t kNodes = 3;

struct WorkloadSpec {
  const char* name;
  const char* why;
  ClusterMode mode = ClusterMode::kHovercRaft;
  ReplierPolicy policy = ReplierPolicy::kLeaderOnly;
  int64_t bounded_queue = 128;
  int64_t fc_threshold = 0;
  bool tx_batching = false;
  bool retries = false;
  bool ycsb = false;
  double read_only_fraction = 0.0;
  bool bimodal_service = false;  // Fig. 11 mix: 10 us mean, 10% at 10x
  double rate_rps = 0;
  // Virtual-time phases of a trial: warm-up, the measured window, the
  // stretch after the leader is killed at the window's end (0 = no kill) and
  // the drain.
  TimeNs warmup = 0;
  TimeNs window = 0;
  TimeNs after_kill = 0;
  TimeNs drain = 0;
  // Trials per 10 s of --seconds: sized so the load phases of one run take
  // about --seconds of wall time on a 4-core VM.
  int32_t trials_per_10s = 1;
  // SLO ladder rungs (offered kRPS, ascending) and the measured window of
  // one rung; rungs never kill the leader.
  std::vector<double> ladder_krps;
  TimeNs ladder_window = Millis(40);
  // How far the critical-path rows (a mean over a narrow rank window) may
  // sit from the exact p50/p99. Tight where the service time is fixed and
  // the latency distribution is flat around those ranks; looser on steep,
  // multi-modal tails.
  double blame_tolerance = 0.05;
};

const std::vector<WorkloadSpec>& Workloads();
const WorkloadSpec* FindWorkload(const std::string& name);

// Deterministic per-trial seed: stream 0 = main trials, 1 = ladder rungs.
uint64_t TrialSeed(uint64_t seed, uint64_t stream, uint64_t index);

struct TrialPlan {
  uint64_t seed = 1;
  double rate_rps = 0;
  TimeNs warmup = 0;
  TimeNs window = 0;
  TimeNs after_kill = 0;  // 0 = no kill
  TimeNs drain = 0;
};
TrialPlan MainPlan(const WorkloadSpec& spec, uint64_t seed);
TrialPlan LadderPlan(const WorkloadSpec& spec, uint64_t seed, double rate_rps);

// What a traced pass attaches. Null members are left off.
struct TraceProbes {
  SpanLog* spans = nullptr;
  CallTimer* app = nullptr;
  CallTimer* loadgen = nullptr;
  obs::CriticalPath* critical_path = nullptr;
  uint64_t client_offset = 0;  // see TrialBlameSink
};

// Counts over the load phase (first arrival to end of drain), summed over
// every host and node.
struct LayerCounts {
  uint64_t requests = 0;   // requests the clients sent
  uint64_t completed = 0;  // requests the clients saw complete
  uint64_t events = 0;
  uint64_t cancels = 0;
  uint64_t msgs = 0;        // logical messages transmitted
  uint64_t frames = 0;      // physical frames transmitted
  uint64_t wire_bytes = 0;  // physical bytes transmitted
  uint64_t ae_sent = 0;
  uint64_t elections = 0;
  // Entries appended and AppendEntries received by nodes that were never
  // leader during the load: entries per AppendEntries on the follower side.
  uint64_t follower_entries = 0;
  uint64_t follower_ae_received = 0;
  uint64_t storage_records = 0;
  uint64_t disk_bytes = 0;  // WAL records and local snapshots
  uint64_t request_body_bytes = 0;
  uint64_t syncs = 0;
  uint64_t execs = 0;
  uint64_t feedback = 0;
  uint64_t agg_commits = 0;
  uint64_t dedup_hits = 0;
  uint64_t allocs = 0;
  uint64_t alloc_bytes = 0;
  uint64_t retransmits = 0;
  uint64_t recovered = 0;
  uint64_t abandoned = 0;
  uint64_t fc_nacks = 0;

  void Add(const LayerCounts& other);
};

struct TrialResult {
  // --- simulated (virtual time; repeats exactly for a seed) ---
  // Latency of every request sent in the measured window (before the kill on
  // fault workloads), kFailedLatency for failures.
  std::vector<TimeNs> window_latency;
  // Requests sent after warm-up, and how many of them failed.
  uint64_t attempted = 0;
  uint64_t failed = 0;
  double achieved_rps = 0;  // window completions / window
  // Longest stretch with no completion after the disturbance (the kill, or
  // the start of the window), and the end of the first 10 ms of requests
  // after it whose p99 met the SLO, both relative to the disturbance.
  TimeNs unavail_ns = 0;
  TimeNs recovery_ns = 0;
  bool recovered = false;
  // Backlog signals for the SLO ladder.
  TimeNs last_quarter_p99_ns = 0;
  uint64_t outstanding_at_window_end = 0;
  LayerCounts layers;
  int64_t fc_outstanding_end = 0;
  size_t leader_log_entries = 0;  // at the end of the window
  uint64_t fingerprint = 0;       // hash of every request record and count
  // --- wall clock ---
  double setup_s = 0;
  double load_s = 0;
  // --- checks ---
  std::vector<std::string> failures;
};

TrialResult RunTrial(const WorkloadSpec& spec, const TrialPlan& plan, const TraceProbes* trace);

// Exact nearest-rank percentile of `sorted` (ascending); q in (0, 1).
TimeNs Percentile(const std::vector<TimeNs>& sorted, double q);
// Samples strictly above the nearest-rank position of q.
size_t SamplesBeyond(size_t n, double q);

}  // namespace hovercraft::perfbench

#endif  // PERFBENCH_SRC_TRIAL_H_
