// shard_chaos_runner — replay one sharded-chaos run from the command line.
//
// Runs exactly what tests/shard_chaos_test.cc runs for a single seed and
// prints the verdict (docs/sharding.md): live shard moves under open-loop
// load, client history checked for linearizability across the moves. A seed
// that failed in CI replays deterministically:
//
//   shard_chaos_runner --seed=3
//   shard_chaos_runner --seed=5 --kill-leader-mid-move
//   shard_chaos_runner --groups=4 --duration-ms=80
//       --move-at-us=20000:0:7:1,40000:0:7:2,60000:0:7:0   (one command line)
#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/flags.h"
#include "src/common/logging.h"
#include "src/shard/shard_chaos.h"

namespace hovercraft {
namespace {

struct CliOptions {
  uint64_t seed = 1;
  int32_t groups = 2;
  int32_t nodes_per_group = 3;
  int32_t clients = 4;
  double rate = 20'000;
  int32_t keys = 16;
  TimeNs duration = Millis(120);
  TimeNs settle = Millis(80);
  int64_t flow_control = 0;
  uint64_t max_states = 4'000'000;
  bool kill_leader_mid_move = false;
  std::vector<ShardChaosConfig::MoveEvent> moves;
  std::string dump_out;
  bool verbose = false;
};

// "20000:0:7:1" — microsecond-offset:lo:hi:dest, one --move-at-us item.
bool ParseMove(std::string_view item, ShardChaosConfig::MoveEvent* ev) {
  std::string_view fields[4];
  int64_t at_us = 0;
  if (!SplitFields(item, ':', fields) || !ParseNumber(fields[0], &at_us) ||
      !ParseNumber(fields[1], &ev->lo) || !ParseNumber(fields[2], &ev->hi) ||
      !ParseNumber(fields[3], &ev->dest)) {
    return false;
  }
  ev->at = Micros(at_us);
  return true;
}

// Every flag, declared once; the usage text is generated from this table.
void DeclareFlags(Flags& flags, CliOptions& opts) {
  flags.Add("--seed=S", &opts.seed, "replay seed (default 1)");
  flags.Add("--groups=N", &opts.groups, "consensus groups on the shared fabric (default 2)");
  flags.Add("--nodes-per-group=N", &opts.nodes_per_group, "replicas per group (default 3)");
  flags.Add("--clients=N", &opts.clients, "load generators (default 4)");
  flags.Add("--rate=RPS", &opts.rate, "per-client offered load (default 20000)");
  flags.Add("--keys=K", &opts.keys, "hot keyspace size (default 16)");
  flags.AddDuration("--duration-ms=M", &opts.duration, Millis(1),
                    "load + move window (default 120)");
  flags.AddDuration("--settle-ms=M", &opts.settle, Millis(1),
                    "quiet period before checks (default 80)");
  flags.Add("--flow-control=N", &opts.flow_control, "per-group admission cap (0 = off)");
  flags.Add("--max-states=N", &opts.max_states,
            "linearizability search budget (default 4000000)");
  flags.Add("--kill-leader-mid-move", &opts.kill_leader_mid_move,
            "crash the source group's leader 1 ms into the\n"
            "first move, restart it 20 ms later");
  flags.AddList("--move-at-us=T:LO:HI:D", &opts.moves, ParseMove,
                "move slots [LO,HI] to group D, T microseconds\n"
                "into the load window (comma-separated list;\n"
                "default: group 0's range to group 1 and back)");
  flags.Add("--dump-out=PATH", &opts.dump_out,
            "flight-recorder dump (Chrome trace JSON) on a\n"
            "failed verdict");
  flags.Add("--verbose", &opts.verbose, "protocol-level log while the run executes");
}

}  // namespace
}  // namespace hovercraft

int main(int argc, char** argv) {
  hovercraft::CliOptions opts;
  hovercraft::Flags flags("shard_chaos_runner");
  hovercraft::DeclareFlags(flags, opts);
  flags.ParseOrExit(argc, argv);
  if (opts.verbose) {
    hovercraft::SetLogLevel(hovercraft::LogLevel::kInfo);
  }

  hovercraft::ShardChaosConfig config;
  config.seed = opts.seed;
  config.groups = opts.groups;
  config.nodes_per_group = opts.nodes_per_group;
  config.clients = opts.clients;
  config.rate_rps_per_client = opts.rate;
  config.keys = opts.keys;
  config.duration = opts.duration;
  config.settle = opts.settle;
  config.flow_control_threshold = opts.flow_control;
  config.checker_max_states = opts.max_states;
  config.kill_leader_mid_move = opts.kill_leader_mid_move;
  config.moves = opts.moves;
  config.dump_path = opts.dump_out;
  // The exact invocation, printed with every flight-recorder dump so a
  // failure is replayable straight from the artifact.
  config.repro = "shard_chaos_runner";
  for (int i = 1; i < argc; ++i) {
    config.repro += " ";
    config.repro += argv[i];
  }

  std::printf(
      "shard_chaos_runner: seed=%llu groups=%d nodes_per_group=%d clients=%d rate=%.0f "
      "keys=%d duration=%lldms kill_leader=%d moves=%zu\n",
      static_cast<unsigned long long>(opts.seed), opts.groups, opts.nodes_per_group,
      opts.clients, opts.rate, opts.keys, static_cast<long long>(opts.duration / 1'000'000),
      opts.kill_leader_mid_move ? 1 : 0, opts.moves.size());

  const hovercraft::ShardChaosResult result = hovercraft::RunShardChaos(config);
  std::printf("%s", result.Describe().c_str());
  std::printf("verdict: %s\n", result.ok() ? "OK" : "FAIL");
  return result.ok() ? 0 : 1;
}
