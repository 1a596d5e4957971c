// chaos_runner — replay one chaos schedule from the command line.
//
// Runs exactly what the chaos tests run for a single (schedule, seed, mode)
// triple and prints the verdict plus the nemesis event log, so a seed that
// failed in CI can be replayed and inspected deterministically:
//
//   chaos_runner --schedule=partition-leader --seed=42 --mode=hovercraft
//   chaos_runner --schedule=random --seed=7 --mode=hovercraft++ --duration-ms=300
//   chaos_runner --list-schedules
//
// With --groups=N (N > 1) the run is sharded instead (docs/sharding.md): N
// groups on one fabric, live shard moves under open-loop load, no nemesis,
// and the sharded defaults (4 clients x 20 kRPS, 16 keys, 120 ms window):
//
//   chaos_runner --groups=2 --seed=5 --kill-leader-mid-move
//   chaos_runner --groups=4 --seed=9 --duration-ms=80
//       --move-at-us=20000:0:7:1,40000:0:7:2,60000:0:7:0   (one command line)
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
#include <sstream>
#include <string>
#include <utility>
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

// Tool-only knobs, and the settings parsed from a name or defaulted after
// parsing. Every other flag writes its ChaosRunConfig field directly.
struct CliOptions {
  std::string mode = "hovercraft";
  std::string fsync_policy = "group-commit";
  // -1 = unset: 500us for the disk-* schedules (so an unsynced window exists
  // to lose), 0 otherwise.
  TimeNs persist_latency = -1;
  // -1 = unset: 512, or kTraceDepth with --trace-out. 0 turns the recorder
  // (and the watchdog) off.
  int64_t flight_recorder_depth = -1;
  std::string trace_out;    // recorder export path written after the run ("" = none)
  std::string metrics_out;  // metrics registry JSON path ("" = no dump)
  TimeNs sample_interval = Micros(100);
  bool list_schedules = false;
  bool verbose = false;
};

// Default ring depth under --trace-out: deep enough that a default-sized run
// rotates nothing out, so the export is the whole run.
constexpr size_t kTraceDepth = size_t{1} << 16;

// Every flag, declared once; the usage text is generated from this table.
void DeclareFlags(Flags& flags, CliOptions& opts, ChaosRunConfig& config) {
  flags.Add("--schedule=NAME", &config.schedule,
            "fault schedule (default random; none with --groups);\n"
            "see --list-schedules");
  flags.Add("--attack=NAME", &config.schedule,
            "alias for --schedule, reads better for the adversarial\n"
            "schedules (rejoin-storm, forged-vote, timer-skew,\n"
            "stale-read-probe)");
  flags.Add("--seed=S", &config.cluster.seed, "replay seed (default 1)");
  flags.Add("--mode=vanilla|hovercraft|hovercraft++", &opts.mode, "(default hovercraft)");
  flags.Add("--groups=N", &config.groups,
            "consensus groups; above 1 the run is sharded: groups\n"
            "share one fabric and slot ranges move between them\n"
            "(default 1)");
  flags.Add("--nodes=N", &config.cluster.nodes, "cluster size, per group (default 3)");
  flags.Add("--spares=N", &config.cluster.spare_nodes,
            "extra servers outside the initial config (default 0);\n"
            "the churn-* schedules and --add-server-at-us draw on them");
  flags.AddList("--add-server-at-us=T:N", &config.add_server_at, ParseMembershipEvent,
                "propose AddServer(node N) T microseconds into the load\n"
                "window (repeatable; also takes a comma-separated list)");
  flags.AddList("--remove-server-at-us=T:N", &config.remove_server_at, ParseMembershipEvent,
                "same for RemoveServer; deterministic under --seed");
  flags.Add("--clients=N", &config.clients, "load generators (default 2; 4 with --groups)");
  flags.Add("--rate=RPS", &config.rate_rps_per_client,
            "per-client offered load (default 4000; 20000 with\n"
            "--groups)");
  flags.Add("--keys=K", &config.keys, "hot keyspace size (default 8; 16 with --groups)");
  flags.AddDuration("--duration-ms=M", &config.duration, Millis(1),
                    "fault + load window (default 150; 120 with --groups)");
  flags.AddDuration("--settle-ms=M", &config.settle, Millis(1),
                    "quiet period before checks (default 100; 80 with\n"
                    "--groups)");
  flags.AddList("--move-at-us=T:LO:HI:D", &config.moves, ParseShardMove,
                "sharded runs: move slots [LO,HI] to group D, T\n"
                "microseconds into the load window (comma-separated\n"
                "list; default: group 0's range to group 1 and back)");
  flags.Add("--kill-leader-mid-move", &config.kill_leader_mid_move,
            "sharded runs: crash the source group's leader 1 ms\n"
            "into the first move, restart it 20 ms later");
  flags.Add("--flow-control=N", &config.cluster.flow_control_threshold,
            "middlebox in-flight cap (0 = off)");
  flags.Add("--max-states=N", &config.checker_max_states,
            "linearizability search budget (default 4000000)");
  flags.Add("--retries", &config.retry_enabled,
            "enable client retransmission with backoff (sharded\n"
            "runs always retry)");
  flags.AddDuration("--retry-backoff-us=N", &config.retry_initial_backoff, Micros(1),
                    "initial retry backoff in microseconds (default 500)");
  flags.Add("--retry-max-attempts=N", &config.retry_max_attempts,
            "abandon after N transmissions (0 = give-up timer only)");
  // The --no-* switches turn off what defaults on: the session table, the
  // hardening defenses (docs/hardening.md; the control runs re-open the
  // attack surface with them), WAL recovery and the watchdog.
  flags.AddNegated("--no-dedup", &config.cluster.server_template.dedup_enabled,
                   "disable the server session table (demonstrates\n"
                   "the double-apply anomaly under --retries)");
  flags.AddNegated("--no-prevote", &config.cluster.raft.pre_vote,
                   "disable the PreVote phase (control runs: rejoin-storm\n"
                   "and timer-skew then depose the leader)");
  flags.AddNegated("--no-check-quorum", &config.cluster.raft.check_quorum,
                   "disable CheckQuorum + leader stickiness (control runs:\n"
                   "forged-vote then deposes the leader)");
  flags.Add("--read-index", &config.cluster.raft.read_index,
            "serve read-only ops through ReadIndex leases instead\n"
            "of the replicated log");
  flags.AddDuration("--read-lease-timeout-us=N", &config.cluster.raft.read_lease_timeout,
                    Micros(1),
                    "override the lease window (0 = election_timeout_min);\n"
                    "large values model clock skew and yield stale reads");
  flags.Add("--disk-fault=NAME", &config.schedule,
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
  flags.AddNegated("--no-recovery", &config.cluster.server_template.wal_recovery,
                   "disable protocol-aware WAL recovery (control: damage\n"
                   "below the durable frontier is silently truncated\n"
                   "instead of quarantined + re-fetched from the leader)");
  flags.Add("--flight-recorder-depth=N", &opts.flight_recorder_depth,
            "per-node black-box ring size (default 512, 65536\n"
            "with --trace-out; 0 turns the recorder and the\n"
            "watchdog off)");
  flags.AddNegated("--no-watchdog", &config.watchdog,
                   "keep recording but skip online invariant checking");
  flags.Add("--dump-out=PATH", &config.dump_path,
            "write the flight-recorder dump (Chrome trace JSON) on\n"
            "the first violation / failed verdict (default stderr\n"
            "summary only)");
  flags.Add("--inject-violation=CODE", &config.inject_violation,
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

int Run(const CliOptions& opts, ChaosRunConfig config) {
  if (opts.verbose) {
    SetLogLevel(LogLevel::kInfo);
  }
  if (!ParseClusterMode(opts.mode, &config.cluster.mode) ||
      config.cluster.mode == ClusterMode::kUnreplicated) {
    std::fprintf(stderr, "bad --mode=%s (chaos needs a replicated mode)\n", opts.mode.c_str());
    return 2;
  }
  if (!ParseFsyncPolicy(opts.fsync_policy, &config.cluster.server_template.fsync_policy)) {
    std::fprintf(stderr,
                 "bad --fsync-policy=%s (want group-commit | sync-per-append | "
                 "ack-before-sync)\n",
                 opts.fsync_policy.c_str());
    return 2;
  }
  const bool tracing = !opts.trace_out.empty();
  config.fabric.flight_recorder_depth =
      opts.flight_recorder_depth >= 0 ? static_cast<size_t>(opts.flight_recorder_depth)
                                      : (tracing ? kTraceDepth : 512);
  if (tracing && config.fabric.flight_recorder_depth == 0) {
    std::fprintf(stderr, "--trace-out needs the flight recorder on\n");
    return 2;
  }
  // The disk-* schedules need a nonzero fsync window or there is nothing to
  // lose; elsewhere the default stays at the paper's persist_latency=0.
  const bool disk_schedule = config.schedule.rfind("disk-", 0) == 0;
  config.cluster.raft.persist_latency =
      opts.persist_latency >= 0 ? opts.persist_latency : (disk_schedule ? Micros(500) : 0);

  // --trace-out: the critical-path analyzer rides along, and the recorder's
  // export is taken at the end of the run, before the deployment goes away.
  obs::CriticalPath critical_path;
  std::string trace;
  uint64_t trace_events = 0;
  size_t trace_depth = 0;
  if (tracing) {
    config.cluster.critical_path = &critical_path;
    config.inspect_recorder = [&](const obs::FlightRecorder& recorder) {
      std::ostringstream out;
      recorder.WriteDump(out);
      trace = out.str();
      trace_events = recorder.recorded();
      trace_depth = recorder.depth();
    };
  }
  if (const std::string invalid = config.Check(); !invalid.empty()) {
    std::fprintf(stderr, "bad flags: %s\n", invalid.c_str());
    return 2;
  }

  const bool sharded = config.groups > 1;
  const ClusterConfig& cc = config.cluster;
  std::printf(
      "chaos_runner: mode=%s schedule=%s seed=%llu nodes=%d duration=%lldms retries=%d dedup=%d "
      "prevote=%d check_quorum=%d read_index=%d persist_us=%lld fsync=%s recovery=%d "
      "fr_depth=%zu watchdog=%d",
      opts.mode.c_str(), config.schedule.c_str(), static_cast<unsigned long long>(cc.seed),
      cc.nodes, static_cast<long long>(config.duration / 1'000'000),
      config.retry_enabled || sharded ? 1 : 0, cc.server_template.dedup_enabled ? 1 : 0,
      cc.raft.pre_vote ? 1 : 0, cc.raft.check_quorum ? 1 : 0, cc.raft.read_index ? 1 : 0,
      static_cast<long long>(cc.raft.persist_latency / 1'000),
      FsyncPolicyName(cc.server_template.fsync_policy), cc.server_template.wal_recovery ? 1 : 0,
      config.fabric.flight_recorder_depth, config.watchdog ? 1 : 0);
  if (sharded) {
    std::printf(" groups=%d clients=%d rate=%.0f keys=%d moves=%zu kill_leader=%d",
                config.groups, config.clients, config.rate_rps_per_client, config.keys,
                config.moves.size(), config.kill_leader_mid_move ? 1 : 0);
  }
  std::printf("\n");
  std::unique_ptr<obs::Observability> observability;
  if (!opts.metrics_out.empty()) {
    obs::Observability::Options oo;
    oo.sampling = true;
    oo.sample_interval = opts.sample_interval;
    observability = std::make_unique<obs::Observability>(oo);
    config.fabric.obs = observability.get();
  }
  const ChaosRunResult result = RunChaosSchedule(config);
  std::printf("%s", result.Describe().c_str());

  if (tracing) {
    std::ofstream out(opts.trace_out, std::ios::binary);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", opts.trace_out.c_str());
      return 2;
    }
    out << trace;
    std::printf("trace: %llu events recorded (ring depth %zu) -> %s\n",
                static_cast<unsigned long long>(trace_events), trace_depth,
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
  hovercraft::ChaosRunConfig config;
  auto parse = [&](const hovercraft::ChaosRunConfig& defaults) {
    opts = {};
    config = defaults;
    hovercraft::Flags flags("chaos_runner");
    hovercraft::DeclareFlags(flags, opts, config);
    flags.ParseOrExit(argc, argv);
  };
  parse(hovercraft::ChaosRunConfig{});
  // A sharded run starts from the sharded defaults: parse again over them.
  if (config.groups > 1) {
    parse(hovercraft::ChaosRunConfig::Sharded(config.groups));
  }
  if (opts.list_schedules) {
    for (const std::string& name : hovercraft::Nemesis::ScheduleNames()) {
      std::printf("%s\n", name.c_str());
    }
    return 0;
  }
  // The exact invocation, printed with every flight-recorder dump so a
  // failure is replayable straight from the artifact.
  config.repro = "chaos_runner";
  for (int i = 1; i < argc; ++i) {
    config.repro += " ";
    config.repro += argv[i];
  }
  return hovercraft::Run(opts, std::move(config));
}
