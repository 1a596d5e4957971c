// hc_perfbench: the repository benchmark. One workload per invocation:
//
//   hc_perfbench --workload fig7-write --seed 1 --seconds 10 --trace 0
//
// --trace 0 runs the end-to-end measurement: several trials of the workload,
// each a fresh cluster built from a seed derived from --seed, plus the SLO
// ladder. --trace 1 runs the per-layer attribution: every trial twice, once
// plain and once with the critical-path analyzer, the timing decorators and
// the span log attached. Both print a table and, as the last line, one JSON
// object {"correct", "attempted", "failed", "metrics"}. The exit code is 1
// when a correctness check failed and 2 on a usage error.
#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "microbench.h"
#include "probes.h"
#include "trial.h"

namespace hovercraft::perfbench {
namespace {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  int trace = 0;
  std::string out_dir;
};

struct Metric {
  std::string name;
  double value;
  const char* unit;
  std::string note;
};

double Median(std::vector<double> v) {
  if (v.empty()) {
    return 0;
  }
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double Us(double ns) { return ns / 1e3; }

double PerReq(uint64_t count, uint64_t requests) {
  return requests == 0 ? 0 : static_cast<double>(count) / static_cast<double>(requests);
}

int TrialCount(const WorkloadSpec& spec, int seconds) {
  const int n = static_cast<int>(std::lround(spec.trials_per_10s * seconds / 10.0));
  return std::max(3, n);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

void Print(const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("  %-30s %16.6f %-12s %s\n", m.name.c_str(), m.value, m.unit, m.note.c_str());
  }
}

// The machine-readable result: one JSON object, the last line of stdout.
void PrintResultJson(bool correct, uint64_t attempted, uint64_t failed,
                     const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
              ", \"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                metrics[i].name.c_str(), v, metrics[i].unit);
  }
  std::printf("}}\n");
}

void Collect(std::vector<std::string>* failures, const std::string& where,
             const TrialResult& r) {
  for (const std::string& f : r.failures) {
    failures->push_back(where + ": " + f);
  }
}

void ReportFailures(const std::vector<std::string>& failures) {
  for (const std::string& f : failures) {
    std::printf("CHECK FAILED: %s\n", f.c_str());
  }
}

// Exact nearest-rank percentile of the pooled window latencies (sorted). It
// is only reported with at least 10 samples beyond it, and never when it
// lands on a failed request, which has no latency.
bool ExactPercentile(const std::vector<TimeNs>& sorted, double q, double* out,
                     std::vector<std::string>* failures) {
  char label[32];
  std::snprintf(label, sizeof(label), "p%g", q * 100);
  if (SamplesBeyond(sorted.size(), q) < 10) {
    failures->push_back("only " + std::to_string(sorted.size()) + " samples: too few for " +
                        label);
    return false;
  }
  const TimeNs v = Percentile(sorted, q);
  if (v == kFailedLatency) {
    failures->push_back(std::string(label) + " lands on a failed request");
    return false;
  }
  *out = static_cast<double>(v);
  return true;
}

int RunEndToEnd(const WorkloadSpec& spec, const Args& args) {
  const int trials = TrialCount(spec, args.seconds);
  std::printf("workload %s: %d trials, seed %" PRIu64 "\n  %s\n", spec.name, trials, args.seed,
              spec.why);
  std::vector<std::string> failures;
  std::vector<TimeNs> latencies;
  std::vector<double> setup_s, kreq_per_s, unavail_ms, recovery_ms;
  uint64_t attempted = 0, failed = 0, fingerprint = 0;
  bool all_recovered = true;
  for (int i = 0; i < trials; ++i) {
    const TrialResult r =
        RunTrial(spec, MainPlan(spec, TrialSeed(args.seed, 0, static_cast<uint64_t>(i))), nullptr);
    Collect(&failures, "trial " + std::to_string(i), r);
    latencies.insert(latencies.end(), r.window_latency.begin(), r.window_latency.end());
    setup_s.push_back(r.setup_s);
    kreq_per_s.push_back(static_cast<double>(r.layers.completed) / r.load_s / 1e3);
    std::printf("  trial %d: setup %.6f s, load %.3f s, %" PRIu64 " completed, %.3f kreq/s, "
                "unavail %.3f ms, recovery %.3f ms\n",
                i, r.setup_s, r.load_s, r.layers.completed, kreq_per_s.back(),
                static_cast<double>(r.unavail_ns) / 1e6, static_cast<double>(r.recovery_ns) / 1e6);
    unavail_ms.push_back(static_cast<double>(r.unavail_ns) / 1e6);
    recovery_ms.push_back(static_cast<double>(r.recovery_ns) / 1e6);
    all_recovered = all_recovered && r.recovered;
    attempted += r.attempted;
    failed += r.failed;
    fingerprint = fingerprint * 0x100000001B3ull ^ r.fingerprint;
  }
  if (spec.after_kill == 0 && failed != 0) {
    failures.push_back(std::to_string(failed) + " requests failed on a fault-free workload");
  }
  std::sort(latencies.begin(), latencies.end());
  double p50 = 0, p99 = 0, p999 = 0;
  ExactPercentile(latencies, 0.5, &p50, &failures);
  ExactPercentile(latencies, 0.99, &p99, &failures);
  ExactPercentile(latencies, 0.999, &p999, &failures);

  // SLO ladder: rungs in ascending order until the first one that misses the
  // SLO or shows a growing backlog.
  std::printf("  slo ladder (p99 <= %.0f us, no failures, no growing backlog):\n",
              Us(static_cast<double>(kSlo)));
  double slo_krps = 0;
  for (size_t k = 0; k < spec.ladder_krps.size(); ++k) {
    const double rate = spec.ladder_krps[k] * 1e3;
    TrialResult r = RunTrial(spec, LadderPlan(spec, TrialSeed(args.seed, 1, k), rate), nullptr);
    Collect(&failures, "ladder " + std::to_string(k), r);
    std::sort(r.window_latency.begin(), r.window_latency.end());
    const TimeNs rung_p99 = Percentile(r.window_latency, 0.99);
    const double backlog_limit = rate * static_cast<double>(kSlo) / 1e9;
    const bool pass = rung_p99 <= kSlo && r.failed == 0 && r.last_quarter_p99_ns <= kSlo &&
                      static_cast<double>(r.outstanding_at_window_end) <= backlog_limit;
    std::printf("    %7.0f kRPS offered: achieved %9.3f kRPS  p99 %10.3f us  last-quarter p99 "
                "%10.3f us  in flight at end %6" PRIu64 "  %s\n",
                spec.ladder_krps[k], r.achieved_rps / 1e3,
                rung_p99 == kFailedLatency ? -1.0 : Us(static_cast<double>(rung_p99)),
                r.last_quarter_p99_ns == kFailedLatency
                    ? -1.0
                    : Us(static_cast<double>(r.last_quarter_p99_ns)),
                r.outstanding_at_window_end, pass ? "pass" : "FAIL");
    if (!pass) {
      break;
    }
    slo_krps = r.achieved_rps / 1e3;
  }
  if (slo_krps == 0) {
    failures.push_back("the first SLO ladder rung already misses the SLO");
  }

  const std::string n_note = "n=" + std::to_string(latencies.size());
  std::vector<Metric> metrics = {
      {"p50_us", Us(p50), "us", n_note},
      {"p99_us", Us(p99), "us", n_note},
      {"p999_us", Us(p999), "us", n_note},
      {"slo_krps", slo_krps, "kRPS", "achieved at the highest passing rung"},
      {"served_ppm", 1e6 - 1e6 * PerReq(failed, attempted), "ppm",
       std::to_string(failed) + " of " + std::to_string(attempted) + " failed"},
      {"unavail_ms", Median(unavail_ms), "ms", "median of trials"},
      {"recovery_ms", Median(recovery_ms), "ms",
       all_recovered ? "median of trials" : "median of trials; some never recovered"},
      {"setup_s", Median(setup_s), "s", "median of trials"},
      {"peak_rss_mb", PeakRssMb(), "MB", ""},
  };
  std::printf("  failed_ppm %.3f (NACKed, lost or abandoned per million sent)\n",
              1e6 * PerReq(failed, attempted));
  // Too noisy on a shared machine for a regression bound: reported here and,
  // as sim.kreq_per_s, by the traced run.
  std::printf("  sim_kreq_per_s %.3f (best of trials, load phase only)\n",
              *std::max_element(kreq_per_s.begin(), kreq_per_s.end()));
  std::printf("  fingerprint %016" PRIx64 "\n", fingerprint);
  Print(metrics);
  ReportFailures(failures);
  PrintResultJson(failures.empty(), attempted, failed, metrics);
  return failures.empty() ? 0 : 1;
}

int RunTraced(const WorkloadSpec& spec, const Args& args) {
  const int trials = std::max(2, TrialCount(spec, args.seconds) / 2);
  std::printf("workload %s (traced): %d trials, each run plain then traced, seed %" PRIu64 "\n",
              spec.name, trials, args.seed);
  std::vector<std::string> failures;
  obs::CriticalPath critical_path;
  SpanLog spans;
  CallTimer app, loadgen;
  LayerCounts sum;
  std::vector<TimeNs> latencies;
  std::vector<double> ns_per_event, plain_rate, traced_rate;
  double log_entries = 0;
  int64_t fc_outstanding_end = 0;
  uint64_t attempted = 0, failed = 0;
  for (int i = 0; i < trials; ++i) {
    const TrialPlan plan = MainPlan(spec, TrialSeed(args.seed, 0, static_cast<uint64_t>(i)));
    const TrialResult plain = RunTrial(spec, plan, nullptr);
    const TraceProbes probes{&spans, &app, &loadgen, &critical_path,
                             1000u * static_cast<uint64_t>(i + 1)};
    const TrialResult traced = RunTrial(spec, plan, &probes);
    Collect(&failures, "trial " + std::to_string(i), plain);
    Collect(&failures, "traced trial " + std::to_string(i), traced);
    if (plain.fingerprint != traced.fingerprint) {
      failures.push_back("trial " + std::to_string(i) + ": tracing changed the simulated run");
    }
    sum.Add(plain.layers);
    latencies.insert(latencies.end(), plain.window_latency.begin(), plain.window_latency.end());
    ns_per_event.push_back(plain.load_s * 1e9 / static_cast<double>(plain.layers.events));
    plain_rate.push_back(static_cast<double>(plain.layers.completed) / plain.load_s);
    traced_rate.push_back(static_cast<double>(traced.layers.completed) / traced.load_s);
    log_entries += static_cast<double>(plain.leader_log_entries) / trials;
    fc_outstanding_end = std::max(fc_outstanding_end, plain.fc_outstanding_end);
    attempted += plain.attempted;
    failed += plain.failed;
  }

  // Stage blame over the p50 and p99 populations. The stages telescope: their
  // blame sums to the population's end-to-end latency.
  using obs::Stage;
  obs::CriticalPath::Row row50{}, row99{};
  for (const obs::CriticalPath::Row& row : critical_path.Attribution()) {
    if (std::strcmp(row.population, "p50") == 0) {
      row50 = row;
    } else if (std::strcmp(row.population, "p99") == 0) {
      row99 = row;
    }
  }
  auto blame = [&row99](std::initializer_list<Stage> stages) {
    double ns = 0;
    for (Stage s : stages) {
      ns += row99.blame_ns[static_cast<size_t>(s)];
    }
    return ns;
  };
  const double net_blame = blame({Stage::kReplicaRx, Stage::kReplySent, Stage::kComplete});
  const double order_blame = blame({Stage::kOrdered});
  const double commit_blame = blame({Stage::kCommitted});
  const double apply_queue_blame =
      blame({Stage::kDispatched, Stage::kReadGranted, Stage::kApplyStart});
  const double exec_blame = blame({Stage::kApplyEnd});
  // Client retry backoff has no layer metric; it only closes the sum.
  const double blamed = net_blame + order_blame + commit_blame + apply_queue_blame + exec_blame +
                        blame({Stage::kRetransmit});
  std::printf("%s", critical_path.AttributionTable(spec.name).c_str());
  if (row99.count == 0 || std::fabs(blamed - row99.e2e_ns) > 1e-6 * row99.e2e_ns) {
    failures.push_back("stage blame does not cover the p99 population's latency");
  }
  std::sort(latencies.begin(), latencies.end());
  double p50 = 0, p99 = 0;
  if (row50.count > 0 && row99.count > 0 && ExactPercentile(latencies, 0.5, &p50, &failures) &&
      ExactPercentile(latencies, 0.99, &p99, &failures) &&
      (latencies.empty() || latencies.back() != kFailedLatency)) {
    // With no failed request in the window the analyzer sees the same
    // requests as the exact percentiles, so its rows must match them.
    for (const auto& [row, exact] : {std::pair{&row50, p50}, std::pair{&row99, p99}}) {
      const double err = std::fabs(row->e2e_ns - exact) / exact;
      std::printf("  blame %s: %.3f us vs exact %.3f us (%.3f%% apart)\n", row->population,
                  Us(row->e2e_ns), Us(exact), 100 * err);
      if (err > spec.blame_tolerance) {
        failures.push_back(std::string("blame of the ") + row->population +
                           " population is too far from the exact percentile");
      }
    }
  }

  const uint64_t req = sum.requests;
  const double per_trial = 1.0 / trials;
  const size_t payload_bytes =
      kWalEntryFixedBytes + static_cast<size_t>(std::lround(PerReq(sum.request_body_bytes, req)));
  const double plain_best = *std::max_element(plain_rate.begin(), plain_rate.end());
  const double traced_best = *std::max_element(traced_rate.begin(), traced_rate.end());
  std::vector<Metric> metrics = {
      {"sim.kreq_per_s", plain_best / 1e3, "kreq/s", "best of the plain passes, load phase"},
      {"sim.events_per_req", PerReq(sum.events, req), "events/req", ""},
      {"sim.cancels_per_req", PerReq(sum.cancels, req), "events/req", ""},
      {"sim.ns_per_event", *std::min_element(ns_per_event.begin(), ns_per_event.end()), "ns",
       "wall, load phase, best of trials"},
      {"sim.allocs_per_req", PerReq(sum.allocs, req), "allocs/req", "load phase"},
      {"sim.alloc_bytes_per_req", PerReq(sum.alloc_bytes, req), "B/req", "load phase"},
      {"net.msgs_per_req", PerReq(sum.msgs, req), "msgs/req", "logical"},
      {"net.frames_per_req", PerReq(sum.frames, req), "frames/req", "physical"},
      {"net.msgs_per_frame", PerReq(sum.msgs, sum.frames), "msgs/frame", "base: physical frames"},
      {"net.wire_bytes_per_req", PerReq(sum.wire_bytes, req), "B/req", ""},
      {"net.blame_p99_us", Us(net_blame), "us", "client->replica, apply end->reply->client"},
      {"raft.ae_per_req", PerReq(sum.ae_sent, req), "msgs/req", ""},
      {"raft.entries_per_ae", PerReq(sum.follower_entries, sum.follower_ae_received),
       "entries/msg", "follower side"},
      {"raft.elections", static_cast<double>(sum.elections) * per_trial, "count",
       "per trial, load phase"},
      {"raft.order_blame_p99_us", Us(order_blame), "us", "rx->ordered"},
      {"raft.commit_blame_p99_us", Us(commit_blame), "us", "ordered->committed"},
      {"raft.log_ns_per_op", RaftLogNsPerOp(static_cast<size_t>(log_entries), kClients), "ns",
       "append + rid lookup at " + std::to_string(static_cast<size_t>(log_entries)) +
           " entries"},
      {"storage.records_per_req", PerReq(sum.storage_records, req), "records/req", ""},
      {"storage.disk_bytes_per_req", PerReq(sum.disk_bytes, req), "B/req",
       "WAL records and local snapshots"},
      {"storage.syncs_per_req", PerReq(sum.syncs, req), "syncs/req", ""},
      {"storage.append_ns_per_record", StorageAppendNsPerRecord(payload_bytes), "ns",
       "AppendEntry, " + std::to_string(payload_bytes) + " B payload"},
      {"core.execs_per_req", PerReq(sum.execs, req), "execs/req", "of N=3"},
      {"core.feedback_per_req", PerReq(sum.feedback, req), "msgs/req", ""},
      {"core.agg_commits_per_req", PerReq(sum.agg_commits, req), "msgs/req", ""},
      {"core.fc_nacks", static_cast<double>(sum.fc_nacks) * per_trial, "count", "per trial"},
      {"core.fc_outstanding_end", static_cast<double>(fc_outstanding_end), "count", "max"},
      {"core.dedup_hits", static_cast<double>(sum.dedup_hits) * per_trial, "count", "per trial"},
      {"core.apply_queue_blame_p99_us", Us(apply_queue_blame), "us", "committed->apply start"},
      {"core.session_ns_per_op", SessionNsPerOp(kClients), "ns", "Record+Executed+Acknowledge"},
      {"app.exec_ns_per_op", app.calls == 0 ? 0 : static_cast<double>(app.ns) / app.calls, "ns",
       "wall, StateMachine::Execute"},
      {"app.exec_blame_p99_pct", row99.e2e_ns > 0 ? 100 * exec_blame / row99.e2e_ns : 0, "%",
       "share of the p99 population's latency"},
      {"loadgen.next_ns_per_op",
       loadgen.calls == 0 ? 0 : static_cast<double>(loadgen.ns) / loadgen.calls, "ns",
       "wall, Workload::Next"},
      {"loadgen.retransmits", static_cast<double>(sum.retransmits) * per_trial, "count",
       "per trial"},
      {"loadgen.recovered", static_cast<double>(sum.recovered) * per_trial, "count", "per trial"},
      {"loadgen.abandoned", static_cast<double>(sum.abandoned) * per_trial, "count", "per trial"},
      {"obs.trace_overhead_pct", 100 * (plain_best / traced_best - 1), "%",
       "plain vs traced sim rate, best of trials"},
  };
  std::printf("  loadgen.late_ns 0 (arrivals are events in virtual time: never late)\n");
  std::printf("  spans (%zu recorded):\n%s", spans.size(), spans.SelfTimeTable().c_str());
  if (!args.out_dir.empty()) {
    const std::string path = args.out_dir + "/spans-" + spec.name + "-seed" +
                             std::to_string(args.seed) + ".json";
    std::ofstream out(path);
    spans.WriteChromeJson(out);
    std::printf("  spans written to %s\n", path.c_str());
  }
  Print(metrics);
  ReportFailures(failures);
  PrintResultJson(failures.empty(), attempted, failed, metrics);
  return failures.empty() ? 0 : 1;
}

int Usage(const char* msg) {
  std::fprintf(stderr,
               "%s\nusage: hc_perfbench --workload NAME --seed N --seconds S --trace 0|1 "
               "[--out-dir DIR]\nworkloads:",
               msg);
  for (const WorkloadSpec& spec : Workloads()) {
    std::fprintf(stderr, " %s", spec.name);
  }
  std::fprintf(stderr, "\n");
  return 2;
}

}  // namespace
}  // namespace hovercraft::perfbench

int main(int argc, char** argv) {
  using namespace hovercraft::perfbench;
  Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::atoi(value.c_str());
    } else if (flag == "--trace") {
      args.trace = std::atoi(value.c_str());
    } else if (flag == "--out-dir") {
      args.out_dir = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (argc % 2 != 1) {
    return Usage("flags take one value each");
  }
  const WorkloadSpec* spec = FindWorkload(args.workload);
  if (spec == nullptr) {
    return Usage(("unknown workload '" + args.workload + "'").c_str());
  }
  if (args.seconds < 1 || (args.trace != 0 && args.trace != 1)) {
    return Usage("--seconds must be >= 1 and --trace 0 or 1");
  }
  return args.trace == 1 ? RunTraced(*spec, args) : RunEndToEnd(*spec, args);
}
