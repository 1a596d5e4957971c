// chaos_runner — replay one chaos schedule from the command line.
//
// Runs exactly what tests/chaos_test.cc runs for a single (schedule, seed,
// mode) triple and prints the verdict plus the nemesis event log, so a seed
// that failed in CI can be replayed and inspected deterministically:
//
//   chaos_runner --schedule=partition-leader --seed=42 --mode=hovercraft
//   chaos_runner --schedule=random --seed=7 --mode=hovercraft++ --duration-ms=300
//   chaos_runner --list-schedules
//
// With --trace-out the run's flight recorder is deep enough to keep every
// event, and its export — Chrome trace-event JSON, load it in Perfetto /
// chrome://tracing — is written at the end together with the critical-path
// tail attribution; --metrics-out dumps the metrics registry (counters +
// sampled queue depths) as JSON. Both outputs are byte-identical across
// reruns of the same seed.
//
//   chaos_runner --schedule=flap --seed=3 --trace-out=trace.json --metrics-out=metrics.json
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "src/chaos/nemesis.h"
#include "src/chaos/runner.h"
#include "src/common/flags.h"
#include "src/common/logging.h"
#include "src/obs/critical_path.h"
#include "src/obs/flight_recorder.h"
#include "src/obs/observability.h"

namespace hovercraft {
namespace {

struct CliOptions {
  std::string mode = "hovercraft";
  std::string schedule = "random";
  uint64_t seed = 1;
  int32_t nodes = 3;
  int32_t spares = 0;
  int32_t clients = 2;
  double rate = 4'000;
  int32_t keys = 8;
  TimeNs duration = Millis(150);
  TimeNs settle = Millis(100);
  int64_t flow_control = 0;
  uint64_t max_states = 4'000'000;
  bool retries = false;
  bool no_dedup = false;
  // Adversarial-hardening toggles (docs/hardening.md). The defenses default
  // on, matching RaftOptions; the --no-* flags re-open the attack surface so
  // a control run can demonstrate what each defense prevents.
  bool no_prevote = false;
  bool no_check_quorum = false;
  bool read_index = false;
  TimeNs read_lease_timeout = 0;  // 0 = election_timeout_min (strict lease)
  // Durability knobs (docs/durability.md). persist_latency < 0 means "pick a
  // default": 500us for the disk-* schedules (so an unsynced window exists to
  // lose), 0 otherwise.
  TimeNs persist_latency = -1;
  std::string fsync_policy = "group-commit";
  bool no_recovery = false;
  TimeNs retry_backoff = Micros(500);
  uint32_t retry_max_attempts = 0;
  bool list_schedules = false;
  bool verbose = false;
  std::string trace_out;    // recorder export path written after the run ("" = none)
  std::string metrics_out;  // metrics registry JSON path ("" = no dump)
  // Flight recorder + watchdog (docs/observability.md). Both default on;
  // --no-watchdog keeps recording but stops invariant checking, and
  // --flight-recorder-depth=0 turns the recorder (and watchdog) off entirely.
  // -1 = unset: 512, or kTraceDepth with --trace-out.
  int64_t flight_recorder_depth = -1;
  bool no_watchdog = false;
  std::string dump_out;           // flight-recorder dump path on failure
  std::string inject_violation;   // watchdog mutation test code
  // Scripted membership events, parsed from --add-server-at-us /
  // --remove-server-at-us ("TIME_US:NODE[,TIME_US:NODE...]").
  std::vector<MembershipEvent> add_server_at;
  std::vector<MembershipEvent> remove_server_at;
  TimeNs sample_interval = Micros(100);
};

// Default ring depth under --trace-out: deep enough that a default-sized run
// rotates nothing out, so the export is the whole run.
constexpr size_t kTraceDepth = size_t{1} << 16;

// Every flag, declared once; the usage text is generated from this table.
void DeclareFlags(Flags& flags, CliOptions& opts) {
  flags.Add("--schedule=NAME", &opts.schedule,
            "fault schedule (default random); see --list-schedules");
  flags.Add("--attack=NAME", &opts.schedule,
            "alias for --schedule, reads better for the adversarial\n"
            "schedules (rejoin-storm, forged-vote, timer-skew,\n"
            "stale-read-probe)");
  flags.Add("--seed=S", &opts.seed, "replay seed (default 1)");
  flags.Add("--mode=vanilla|hovercraft|hovercraft++", &opts.mode, "(default hovercraft)");
  flags.Add("--nodes=N", &opts.nodes, "cluster size (default 3)");
  flags.Add("--spares=N", &opts.spares,
            "extra servers outside the initial config (default 0);\n"
            "the churn-* schedules and --add-server-at-us draw on them");
  flags.AddList("--add-server-at-us=T:N", &opts.add_server_at, ParseMembershipEvent,
                "propose AddServer(node N) T microseconds into the load\n"
                "window (repeatable; also takes a comma-separated list)");
  flags.AddList("--remove-server-at-us=T:N", &opts.remove_server_at, ParseMembershipEvent,
                "same for RemoveServer; deterministic under --seed");
  flags.Add("--clients=N", &opts.clients, "load generators (default 2)");
  flags.Add("--rate=RPS", &opts.rate, "per-client offered load (default 4000)");
  flags.Add("--keys=K", &opts.keys, "hot keyspace size (default 8)");
  flags.AddDuration("--duration-ms=M", &opts.duration, Millis(1),
                    "fault + load window (default 150)");
  flags.AddDuration("--settle-ms=M", &opts.settle, Millis(1),
                    "quiet period before checks (default 100)");
  flags.Add("--flow-control=N", &opts.flow_control, "middlebox in-flight cap (0 = off)");
  flags.Add("--max-states=N", &opts.max_states,
            "linearizability search budget (default 4000000)");
  flags.Add("--retries", &opts.retries, "enable client retransmission with backoff");
  flags.AddDuration("--retry-backoff-us=N", &opts.retry_backoff, Micros(1),
                    "initial retry backoff in microseconds (default 500)");
  flags.Add("--retry-max-attempts=N", &opts.retry_max_attempts,
            "abandon after N transmissions (0 = give-up timer only)");
  flags.Add("--no-dedup", &opts.no_dedup,
            "disable the server session table (demonstrates\n"
            "the double-apply anomaly under --retries)");
  flags.Add("--no-prevote", &opts.no_prevote,
            "disable the PreVote phase (control runs: rejoin-storm\n"
            "and timer-skew then depose the leader)");
  flags.Add("--no-check-quorum", &opts.no_check_quorum,
            "disable CheckQuorum + leader stickiness (control runs:\n"
            "forged-vote then deposes the leader)");
  flags.Add("--read-index", &opts.read_index,
            "serve read-only ops through ReadIndex leases instead\n"
            "of the replicated log");
  flags.AddDuration("--read-lease-timeout-us=N", &opts.read_lease_timeout, Micros(1),
                    "override the lease window (0 = election_timeout_min);\n"
                    "large values model clock skew and yield stale reads");
  flags.Add("--disk-fault=NAME", &opts.schedule,
            "alias for --schedule, reads better for the disk-fault\n"
            "schedules (disk-power-fail, disk-torn-write,\n"
            "disk-corrupt-entry, disk-fsync-stall)");
  flags.AddDuration("--persist-latency-us=N", &opts.persist_latency, Micros(1),
                    "fsync cost per durability barrier (default 500 for the\n"
                    "disk-* schedules, 0 otherwise)");
  flags.Add("--fsync-policy=NAME", &opts.fsync_policy,
            "group-commit (default) | sync-per-append |\n"
            "ack-before-sync (control: acks outrun the disk, so a\n"
            "power fail loses acknowledged writes)");
  flags.Add("--no-recovery", &opts.no_recovery,
            "disable protocol-aware WAL recovery (control: damage\n"
            "below the durable frontier is silently truncated\n"
            "instead of quarantined + re-fetched from the leader)");
  flags.Add("--flight-recorder-depth=N", &opts.flight_recorder_depth,
            "per-node black-box ring size (default 512, 65536\n"
            "with --trace-out; 0 turns the recorder and the\n"
            "watchdog off)");
  flags.Add("--no-watchdog", &opts.no_watchdog,
            "keep recording but skip online invariant checking");
  flags.Add("--dump-out=PATH", &opts.dump_out,
            "write the flight-recorder dump (Chrome trace JSON) on\n"
            "the first violation / failed verdict (default stderr\n"
            "summary only)");
  flags.Add("--inject-violation=CODE", &opts.inject_violation,
            "watchdog mutation test: mid-run, inject a synthetic\n"
            "event stream violating one invariant; the run must\n"
            "FAIL with that code. Codes: dual-leader,\n"
            "commit-regression, lease-overlap, double-apply,\n"
            "flow-leak");
  flags.Add("--trace-out=PATH", &opts.trace_out,
            "after the run, write the flight-recorder export\n"
            "(Chrome trace JSON, Perfetto-loadable) and print the\n"
            "tail attribution");
  flags.Add("--metrics-out=PATH", &opts.metrics_out, "write the metrics registry as JSON");
  flags.AddDuration("--sample-interval-us=N", &opts.sample_interval, Micros(1),
                    "queue-depth sampling period (default 100)");
  flags.Add("--list-schedules", &opts.list_schedules, "print schedule names and exit");
  flags.Add("--verbose", &opts.verbose, "protocol-level log while the run executes");
}

int Run(const CliOptions& opts, const std::string& repro) {
  if (opts.verbose) {
    SetLogLevel(LogLevel::kInfo);
  }
  ChaosRunConfig config;
  if (!ParseClusterMode(opts.mode, &config.mode) ||
      config.mode == ClusterMode::kUnreplicated) {
    std::fprintf(stderr, "bad --mode=%s (chaos needs a replicated mode)\n", opts.mode.c_str());
    return 2;
  }
  if (!Nemesis::IsValidSchedule(opts.schedule)) {
    std::fprintf(stderr, "bad --schedule=%s; try --list-schedules\n", opts.schedule.c_str());
    return 2;
  }
  config.schedule = opts.schedule;
  config.seed = opts.seed;
  config.nodes = opts.nodes;
  config.spare_nodes = opts.spares;
  config.add_server_at = opts.add_server_at;
  config.remove_server_at = opts.remove_server_at;
  config.clients = opts.clients;
  config.rate_rps_per_client = opts.rate;
  config.keys = opts.keys;
  config.duration = opts.duration;
  config.settle = opts.settle;
  config.flow_control_threshold = opts.flow_control;
  config.checker_max_states = opts.max_states;
  config.retry_enabled = opts.retries;
  config.retry_initial_backoff = opts.retry_backoff;
  config.retry_max_attempts = opts.retry_max_attempts;
  config.dedup_enabled = !opts.no_dedup;
  config.pre_vote = !opts.no_prevote;
  config.check_quorum = !opts.no_check_quorum;
  config.read_index = opts.read_index;
  config.read_lease_timeout = opts.read_lease_timeout;
  if (!ParseFsyncPolicy(opts.fsync_policy, &config.fsync_policy)) {
    std::fprintf(stderr,
                 "bad --fsync-policy=%s (want group-commit | sync-per-append | "
                 "ack-before-sync)\n",
                 opts.fsync_policy.c_str());
    return 2;
  }
  config.wal_recovery = !opts.no_recovery;
  const bool tracing = !opts.trace_out.empty();
  config.flight_recorder_depth =
      opts.flight_recorder_depth >= 0 ? static_cast<size_t>(opts.flight_recorder_depth)
                                      : (tracing ? kTraceDepth : 512);
  if (tracing && config.flight_recorder_depth == 0) {
    std::fprintf(stderr, "--trace-out needs the flight recorder on\n");
    return 2;
  }
  config.watchdog = !opts.no_watchdog;
  config.dump_path = opts.dump_out;
  config.repro = repro;
  if (!opts.inject_violation.empty()) {
    const char* kCodes[] = {"dual-leader", "commit-regression", "lease-overlap",
                            "double-apply", "flow-leak"};
    bool known = false;
    for (const char* code : kCodes) {
      known = known || opts.inject_violation == code;
    }
    if (!known) {
      std::fprintf(stderr,
                   "bad --inject-violation=%s (want dual-leader | commit-regression | "
                   "lease-overlap | double-apply | flow-leak)\n",
                   opts.inject_violation.c_str());
      return 2;
    }
    if (config.flight_recorder_depth == 0) {
      std::fprintf(stderr, "--inject-violation needs the flight recorder on\n");
      return 2;
    }
    config.inject_violation = opts.inject_violation;
  }
  // The disk-* schedules need a nonzero fsync window or there is nothing to
  // lose; elsewhere the default stays at the paper's persist_latency=0.
  const bool disk_schedule = opts.schedule.rfind("disk-", 0) == 0;
  config.persist_latency =
      opts.persist_latency >= 0 ? opts.persist_latency : (disk_schedule ? Micros(500) : 0);

  std::printf(
      "chaos_runner: mode=%s schedule=%s seed=%llu nodes=%d duration=%lldms retries=%d dedup=%d "
      "prevote=%d check_quorum=%d read_index=%d persist_us=%lld fsync=%s recovery=%d "
      "fr_depth=%zu watchdog=%d\n",
      opts.mode.c_str(), opts.schedule.c_str(), static_cast<unsigned long long>(opts.seed),
      opts.nodes, static_cast<long long>(opts.duration / 1'000'000), opts.retries ? 1 : 0,
      opts.no_dedup ? 0 : 1, opts.no_prevote ? 0 : 1, opts.no_check_quorum ? 0 : 1,
      opts.read_index ? 1 : 0,
      static_cast<long long>(config.persist_latency / 1'000),
      FsyncPolicyName(config.fsync_policy), config.wal_recovery ? 1 : 0,
      config.flight_recorder_depth, config.watchdog ? 1 : 0);
  std::unique_ptr<obs::Observability> observability;
  if (!opts.metrics_out.empty()) {
    obs::Observability::Options oo;
    oo.sampling = true;
    oo.sample_interval = opts.sample_interval;
    observability = std::make_unique<obs::Observability>(oo);
    config.obs = observability.get();
  }
  // --trace-out: the runner records into this recorder, so it outlives the
  // run for the export, with the critical-path analyzer attached.
  obs::CriticalPath critical_path;
  std::unique_ptr<obs::FlightRecorder> recorder;
  if (tracing) {
    recorder = std::make_unique<obs::FlightRecorder>(config.flight_recorder_depth);
    recorder->AddSink(&critical_path);
    config.flight_recorder = recorder.get();
  }

  const ChaosRunResult result = RunChaosSchedule(config);
  std::printf("%s", result.Describe().c_str());

  if (recorder != nullptr) {
    std::ofstream out(opts.trace_out, std::ios::binary);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", opts.trace_out.c_str());
      return 2;
    }
    recorder->WriteDump(out);
    std::printf("trace: %llu events recorded (ring depth %zu) -> %s\n",
                static_cast<unsigned long long>(recorder->recorded()), recorder->depth(),
                opts.trace_out.c_str());
    std::printf("%s", critical_path.AttributionTable("").c_str());
  }
  if (observability != nullptr) {
    std::ofstream out(opts.metrics_out, std::ios::binary);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", opts.metrics_out.c_str());
      return 2;
    }
    observability->metrics().DumpJson(out);
    std::printf("metrics: %zu entries -> %s\n", observability->metrics().size(),
                opts.metrics_out.c_str());
  }

  std::printf("verdict: %s\n", result.ok() ? "OK" : "FAIL");
  return result.ok() ? 0 : 1;
}

}  // namespace
}  // namespace hovercraft

int main(int argc, char** argv) {
  hovercraft::CliOptions opts;
  hovercraft::Flags flags("chaos_runner");
  hovercraft::DeclareFlags(flags, opts);
  flags.ParseOrExit(argc, argv);
  if (opts.list_schedules) {
    for (const std::string& name : hovercraft::Nemesis::ScheduleNames()) {
      std::printf("%s\n", name.c_str());
    }
    return 0;
  }
  // The exact invocation, printed with every flight-recorder dump so a
  // failure is replayable straight from the artifact.
  std::string repro = "chaos_runner";
  for (int i = 1; i < argc; ++i) {
    repro += " ";
    repro += argv[i];
  }
  return hovercraft::Run(opts, repro);
}
