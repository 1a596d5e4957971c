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
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

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
  bool help = false;
};

void PrintUsage() {
  std::printf(
      "usage: shard_chaos_runner [flags]\n"
      "  --seed=S                 replay seed (default 1)\n"
      "  --groups=N               consensus groups on the shared fabric (default 2)\n"
      "  --nodes-per-group=N      replicas per group (default 3)\n"
      "  --clients=N              load generators (default 4)\n"
      "  --rate=RPS               per-client offered load (default 20000)\n"
      "  --keys=K                 hot keyspace size (default 16)\n"
      "  --duration-ms=M          load + move window (default 120)\n"
      "  --settle-ms=M            quiet period before checks (default 80)\n"
      "  --flow-control=N         per-group admission cap (0 = off)\n"
      "  --max-states=N           linearizability search budget (default 4000000)\n"
      "  --kill-leader-mid-move   crash the source group's leader 1 ms into the\n"
      "                           first move, restart it 20 ms later\n"
      "  --move-at-us=T:LO:HI:D   move slots [LO,HI] to group D, T microseconds\n"
      "                           into the load window (comma-separated list;\n"
      "                           default: group 0's range to group 1 and back)\n"
      "  --dump-out=PATH          flight-recorder dump (Chrome trace JSON) on a\n"
      "                           failed verdict\n"
      "  --verbose                protocol-level log while the run executes\n");
}

bool ParseFlag(const char* arg, const char* name, std::string& out) {
  const size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) == 0 && arg[len] == '=') {
    out = arg + len + 1;
    return true;
  }
  return false;
}

// "20000:0:7:1,40000:0:7:2" — microsecond-offset:lo:hi:dest tuples.
bool ParseMoves(const std::string& value, std::vector<ShardChaosConfig::MoveEvent>& out) {
  size_t pos = 0;
  while (pos < value.size()) {
    const size_t comma = value.find(',', pos);
    const std::string item =
        value.substr(pos, comma == std::string::npos ? std::string::npos : comma - pos);
    ShardChaosConfig::MoveEvent ev;
    if (std::sscanf(item.c_str(), "%lld:%u:%u:%d", reinterpret_cast<long long*>(&ev.at), &ev.lo,
                    &ev.hi, &ev.dest) != 4) {
      return false;
    }
    ev.at = Micros(ev.at);
    out.push_back(ev);
    pos = comma == std::string::npos ? value.size() : comma + 1;
  }
  return true;
}

bool ParseOptions(int argc, char** argv, CliOptions& opts) {
  for (int i = 1; i < argc; ++i) {
    std::string v;
    const char* a = argv[i];
    if (std::strcmp(a, "--help") == 0 || std::strcmp(a, "-h") == 0) {
      opts.help = true;
    } else if (std::strcmp(a, "--verbose") == 0) {
      opts.verbose = true;
    } else if (std::strcmp(a, "--kill-leader-mid-move") == 0) {
      opts.kill_leader_mid_move = true;
    } else if (ParseFlag(a, "--seed", v)) {
      opts.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (ParseFlag(a, "--groups", v)) {
      opts.groups = std::atoi(v.c_str());
    } else if (ParseFlag(a, "--nodes-per-group", v)) {
      opts.nodes_per_group = std::atoi(v.c_str());
    } else if (ParseFlag(a, "--clients", v)) {
      opts.clients = std::atoi(v.c_str());
    } else if (ParseFlag(a, "--rate", v)) {
      opts.rate = std::atof(v.c_str());
    } else if (ParseFlag(a, "--keys", v)) {
      opts.keys = std::atoi(v.c_str());
    } else if (ParseFlag(a, "--duration-ms", v)) {
      opts.duration = Millis(std::atoll(v.c_str()));
    } else if (ParseFlag(a, "--settle-ms", v)) {
      opts.settle = Millis(std::atoll(v.c_str()));
    } else if (ParseFlag(a, "--flow-control", v)) {
      opts.flow_control = std::atoll(v.c_str());
    } else if (ParseFlag(a, "--max-states", v)) {
      opts.max_states = std::strtoull(v.c_str(), nullptr, 10);
    } else if (ParseFlag(a, "--move-at-us", v)) {
      if (!ParseMoves(v, opts.moves)) {
        std::fprintf(stderr, "bad --move-at-us=%s (want TIME_US:LO:HI:DEST[,...])\n", v.c_str());
        return false;
      }
    } else if (ParseFlag(a, "--dump-out", v)) {
      opts.dump_out = v;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", a);
      return false;
    }
  }
  return true;
}

}  // namespace
}  // namespace hovercraft

int main(int argc, char** argv) {
  hovercraft::CliOptions opts;
  if (!hovercraft::ParseOptions(argc, argv, opts)) {
    hovercraft::PrintUsage();
    return 2;
  }
  if (opts.help) {
    hovercraft::PrintUsage();
    return 0;
  }
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
