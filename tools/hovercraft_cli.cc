// hovercraft_cli — run a HovercRaft deployment from the command line.
//
// Builds a cluster in any of the four modes, drives it with the synthetic or
// YCSB-E workload at a fixed rate (or searches for the max throughput under
// an SLO), and prints the measured latency distribution. Every run is
// deterministic in --seed.
//
// Examples:
//   hovercraft_cli --mode=hovercraft++ --nodes=5 --rate=500000
//   hovercraft_cli --mode=vanilla --nodes=3 --request-bytes=512 --rate=300000
//   hovercraft_cli --mode=hovercraft++ --nodes=3 --workload=ycsbe --slo-search
//   hovercraft_cli --mode=unrep --rate=800000 --service-us=1
#include <cstdio>
#include <memory>
#include <string>
#include <utility>

#include "src/app/kvstore/service.h"
#include "src/app/ycsb.h"
#include "src/common/flags.h"
#include "src/loadgen/experiment.h"
#include "src/loadgen/workload.h"

namespace hovercraft {
namespace {

// The workload's knobs, and the settings parsed from a name or written to two
// fields. Every other flag writes its ExperimentConfig field directly.
struct CliOptions {
  std::string mode = "hovercraft++";
  std::string workload = "synthetic";
  double rate = 100e3;
  bool slo_search = false;
  TimeNs slo = Micros(500);
  int32_t request_bytes = 24;
  int32_t reply_bytes = 8;
  TimeNs service = Micros(1);
  double read_only = 0.0;
  double bimodal_ratio = 0.0;  // >1 enables the bimodal distribution
  std::string policy = "jbsq";
};

// Every flag, declared once; the usage text is generated from this table.
void DeclareFlags(Flags& flags, CliOptions& opts, ExperimentConfig& config) {
  flags.Add("--mode=unrep|vanilla|hovercraft|hovercraft++", &opts.mode, "(default hovercraft++)");
  flags.Add("--nodes=N", &config.cluster.nodes, "cluster size (default 3)");
  flags.Add("--spares=N", &config.cluster.spare_nodes,
            "extra servers outside the initial config (default 0)");
  flags.AddList("--add-server-at-us=T:N", &config.add_server_at, ParseMembershipEvent,
                "propose AddServer(node N) T microseconds after load\n"
                "start (repeatable / comma-separated list)");
  flags.AddList("--remove-server-at-us=T:N", &config.remove_server_at, ParseMembershipEvent,
                "same for RemoveServer");
  flags.Add("--workload=synthetic|ycsbe", &opts.workload, "(default synthetic)");
  flags.Add("--rate=RPS", &opts.rate, "offered load (default 100000)");
  flags.Add("--slo-search", &opts.slo_search, "find max throughput under --slo-us instead");
  flags.AddDuration("--slo-us=U", &opts.slo, Micros(1),
                    "tail SLO for the search (default 500)");
  flags.Add("--request-bytes=B", &opts.request_bytes, "synthetic request size (default 24)");
  flags.Add("--reply-bytes=B", &opts.reply_bytes, "synthetic reply size (default 8)");
  flags.AddDuration("--service-us=U", &opts.service, Micros(1),
                    "synthetic service time (default 1)");
  flags.Add("--bimodal-ratio=R", &opts.bimodal_ratio,
            "10% of requests take R x the base time");
  flags.Add("--read-only=F", &opts.read_only, "read-only fraction 0..1 (default 0)");
  flags.Add("--policy=jbsq|random|leader", &opts.policy, "(default jbsq)");
  flags.Add("--bounded-queue=B", &config.cluster.bounded_queue_depth,
            "replier queue bound (default 128)");
  flags.Add("--flow-control=N", &config.cluster.flow_control_threshold,
            "middlebox in-flight cap (0 = off)");
  flags.AddDuration("--warmup-ms=M", &config.warmup, Millis(1), "warmup window (default 100)");
  flags.AddDuration("--measure-ms=M", &config.measure, Millis(1),
                    "measurement window (default 300)");
  flags.Add("--clients=N", &config.client_count, "load generators (default 8)");
  flags.Add("--seed=S", &config.cluster.seed, "cluster and workload seed (default 42)");
  // Adversarial hardening (docs/hardening.md); the defenses default on.
  flags.AddNegated("--no-prevote", &config.cluster.raft.pre_vote, "disable the PreVote phase");
  flags.AddNegated("--no-check-quorum", &config.cluster.raft.check_quorum,
                   "disable CheckQuorum + leader stickiness");
  flags.Add("--read-index", &config.cluster.raft.read_index,
            "serve the --read-only fraction through ReadIndex\n"
            "leases instead of the replicated log");
}

int Run(const CliOptions& opts, ExperimentConfig config) {
  if (!ParseClusterMode(opts.mode, &config.cluster.mode)) {
    std::fprintf(stderr, "bad --mode=%s\n", opts.mode.c_str());
    return 2;
  }

  ReplierPolicy& policy = config.cluster.replier_policy;
  if (opts.policy == "jbsq") {
    policy = ReplierPolicy::kJbsq;
  } else if (opts.policy == "random") {
    policy = ReplierPolicy::kRandom;
  } else if (opts.policy == "leader") {
    policy = ReplierPolicy::kLeaderOnly;
  } else {
    std::fprintf(stderr, "bad --policy=%s\n", opts.policy.c_str());
    return 2;
  }
  if (opts.workload == "synthetic") {
    config.cluster.app_factory = []() { return std::make_unique<SyntheticService>(); };
    SyntheticWorkloadConfig wc;
    wc.request_bytes = opts.request_bytes;
    wc.reply_bytes = opts.reply_bytes;
    wc.read_only_fraction = opts.read_only;
    if (opts.bimodal_ratio > 1.0) {
      wc.service_time =
          std::make_shared<BimodalDistribution>(opts.service, 0.1, opts.bimodal_ratio);
    } else {
      wc.service_time = std::make_shared<FixedDistribution>(opts.service);
    }
    config.workload_factory = [wc]() { return std::make_unique<SyntheticWorkload>(wc); };
  } else if (opts.workload == "ycsbe") {
    YcsbEConfig ycsb;
    config.cluster.app_factory = [ycsb]() {
      auto svc = std::make_unique<KvService>();
      Rng rng(0xFEED5EED);
      YcsbEGenerator gen(ycsb);
      for (const KvCommand& cmd : gen.PreloadCommands(rng)) {
        svc->Apply(cmd);
      }
      return svc;
    };
    config.workload_factory = [ycsb]() { return std::make_unique<YcsbEWorkload>(ycsb); };
  } else {
    std::fprintf(stderr, "bad --workload=%s\n", opts.workload.c_str());
    return 2;
  }

  std::printf("# mode=%s nodes=%d workload=%s policy=%s seed=%llu prevote=%d check_quorum=%d"
              " read_index=%d\n",
              opts.mode.c_str(), config.cluster.nodes, opts.workload.c_str(), opts.policy.c_str(),
              static_cast<unsigned long long>(config.cluster.seed),
              config.cluster.raft.pre_vote ? 1 : 0, config.cluster.raft.check_quorum ? 1 : 0,
              config.cluster.raft.read_index ? 1 : 0);

  if (opts.slo_search) {
    const SloResult r =
        FindMaxThroughputUnderSlo(config, opts.slo, 0.05 * opts.rate, 2.0 * opts.rate);
    std::printf("max throughput under %.0fus p99 SLO: %.0f rps (p99=%.1fus at offered %.0f)\n",
                static_cast<double>(opts.slo) / 1e3, r.max_rps_under_slo,
                static_cast<double>(r.p99_at_max) / 1e3, r.offered_at_max);
    return 0;
  }

  const LoadMetrics m = RunLoadPoint(config, opts.rate);
  std::printf("offered:   %10.0f rps\n", m.offered_rps);
  std::printf("achieved:  %10.0f rps\n", m.achieved_rps);
  std::printf("latency:   p50=%.1fus  p99=%.1fus  mean=%.1fus\n",
              static_cast<double>(m.p50_ns) / 1e3, static_cast<double>(m.p99_ns) / 1e3,
              m.mean_ns / 1e3);
  std::printf("counters:  sent=%llu completed=%llu nacked=%llu lost=%llu\n",
              static_cast<unsigned long long>(m.sent), static_cast<unsigned long long>(m.completed),
              static_cast<unsigned long long>(m.nacked), static_cast<unsigned long long>(m.lost));
  return 0;
}

}  // namespace
}  // namespace hovercraft

int main(int argc, char** argv) {
  hovercraft::CliOptions opts;
  hovercraft::ExperimentConfig config;
  // The CLI's own windows and seed; every other default is ExperimentConfig's.
  config.cluster.seed = 42;
  config.warmup = hovercraft::Millis(100);
  config.measure = hovercraft::Millis(300);
  hovercraft::Flags flags("hovercraft_cli");
  hovercraft::DeclareFlags(flags, opts, config);
  flags.ParseOrExit(argc, argv);
  return hovercraft::Run(opts, std::move(config));
}
