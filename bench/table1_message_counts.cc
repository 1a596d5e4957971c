// Table 1: leader Rx/Tx messages per client request for Raft, HovercRaft and
// HovercRaft++ in the non-failure case. The analytical values (N nodes):
//
//            Raft          HovercRaft      HovercRaft++
//   Rx       1+(N-1)       1+(N-1)         1+1
//   Tx       (N-1)+1       (N-1)+1/N       1+1/N
//
// The bench measures actual per-request counts at the leader in the
// simulator (with batching, control traffic and FEEDBACK included) and
// prints them next to the analytical model. Doubles as the aggregation
// ablation: the ++ column is flat in N.
//
// A second table splits logical messages from physical frames (ISSUE 9):
// per-request frames and wire bytes at the leader, with eRPC-style transport
// coalescing off and on. Logical counts are invariant under coalescing — the
// protocol doesn't change — but the frame column collapses when small
// messages share frames.
#include <cstdio>
#include <utility>
#include <vector>

#include "bench/bench_common.h"
#include "src/loadgen/client.h"

namespace hovercraft {
namespace {

struct Counts {
  double rx = 0;
  double tx = 0;
  double rx_frames = 0;
  double tx_frames = 0;
  double rx_wire_bytes = 0;
  double tx_wire_bytes = 0;
};

Counts MeasureLeader(benchutil::BenchIo& io, const std::string& scope, ClusterMode mode,
                     int32_t nodes, bool tx_batching) {
  SyntheticWorkloadConfig workload;
  workload.service_time = std::make_shared<FixedDistribution>(Micros(1));
  ReplierPolicy policy =
      (mode == ClusterMode::kVanillaRaft) ? ReplierPolicy::kLeaderOnly : ReplierPolicy::kJbsq;
  ExperimentConfig config =
      benchutil::MakeSyntheticExperiment(mode, nodes, workload, policy, 128, 42);
  config.cluster.costs.tx_batching = tx_batching;
  config.cluster.costs.tx_batch_delay_ns = Micros(20);
  io.Attach(&config, scope);

  Fabric fabric(config.cluster.seed, config.fabric);
  Cluster cluster(fabric, config.cluster);
  if (cluster.WaitForLeader() == kInvalidNode) {
    return Counts{};
  }
  auto client = std::make_unique<ClientHost>(
      &cluster.sim(), config.cluster.costs, [&cluster]() { return cluster.ClientTarget(); },
      config.workload_factory(), 200'000, 7);
  cluster.network().Attach(client.get());

  cluster.sim().RunUntil(cluster.sim().Now() + Millis(10));
  const NodeId leader = cluster.LeaderId();
  const NetCounters before = cluster.server(leader).counters();
  const uint64_t completed_before = client->total_completed();
  const TimeNs t0 = cluster.sim().Now();
  client->StartLoad(t0, t0 + Millis(100));
  cluster.sim().RunUntil(t0 + Millis(200));
  const NetCounters& after = cluster.server(leader).counters();
  if (io.obs() != nullptr) {
    cluster.ExportMetrics(&io.obs()->metrics());
  }
  const uint64_t requests = client->total_completed() - completed_before;
  if (requests == 0) {
    return Counts{};
  }
  Counts c;
  c.rx = static_cast<double>(after.rx_msgs - before.rx_msgs) / requests;
  c.tx = static_cast<double>(after.tx_msgs - before.tx_msgs) / requests;
  c.rx_frames = static_cast<double>(after.rx_physical_frames - before.rx_physical_frames) / requests;
  c.tx_frames = static_cast<double>(after.tx_physical_frames - before.tx_physical_frames) / requests;
  c.rx_wire_bytes = static_cast<double>(after.rx_wire_bytes - before.rx_wire_bytes) / requests;
  c.tx_wire_bytes = static_cast<double>(after.tx_wire_bytes - before.tx_wire_bytes) / requests;
  return c;
}

void Run(benchutil::BenchIo& io) {
  benchutil::PrintHeader("Table 1: leader Rx/Tx messages per request (measured vs analytic)",
                         "Kogias & Bugnion, HovercRaft (EuroSys'20), Table 1");

  struct System {
    const char* name;
    ClusterMode mode;
  };
  const System systems[] = {
      {"Raft", ClusterMode::kVanillaRaft},
      {"HovercRaft", ClusterMode::kHovercRaft},
      {"HovercRaft++", ClusterMode::kHovercRaftPP},
  };

  std::printf("%-14s %4s | %9s %9s | %9s %9s\n", "system", "N", "Rx meas", "Rx model",
              "Tx meas", "Tx model");
  struct Row {
    const System* system;
    int32_t n;
    Counts plain;
  };
  std::vector<Row> rows;
  for (const System& system : systems) {
    for (int32_t n : {3, 5, 7, 9}) {
      const std::string scope =
          std::string(system.name) + "/N" + std::to_string(n) + "/";
      const Counts c = MeasureLeader(io, scope, system.mode, n, /*tx_batching=*/false);
      rows.push_back(Row{&system, n, c});
      double rx_model = 0;
      double tx_model = 0;
      switch (system.mode) {
        case ClusterMode::kVanillaRaft:
          rx_model = 1.0 + (n - 1);
          tx_model = (n - 1) + 1.0;
          break;
        case ClusterMode::kHovercRaft:
          rx_model = 1.0 + (n - 1);
          tx_model = (n - 1) + 1.0 / n;
          break;
        case ClusterMode::kHovercRaftPP:
          rx_model = 1.0 + 1.0;
          tx_model = 1.0 + 1.0 / n;
          break;
        default:
          break;
      }
      std::printf("%-14s %4d | %9.2f %9.2f | %9.2f %9.2f\n", system.name, n, c.rx, rx_model,
                  c.tx, tx_model);
      // Milli-messages-per-request: keeps the fractional counts in the
      // integer-valued registry without losing the two printed decimals.
      io.RecordGauge(scope + "leader.rx_per_req_milli", std::llround(c.rx * 1000));
      io.RecordGauge(scope + "leader.tx_per_req_milli", std::llround(c.tx * 1000));
      std::fflush(stdout);
    }
    std::printf("\n");
  }
  std::printf(
      "note: measured counts include batching (several log entries per\n"
      "append_entries lower the per-request message cost below the model)\n"
      "plus FEEDBACK flow-control traffic in the HovercRaft modes.\n\n");

  // Physical layer: logical messages stay fixed while eRPC-style transport
  // coalescing packs them into fewer frames. "coalesced" re-runs the same
  // pinned-seed experiment with tx_batching on (20us doorbell).
  std::printf("physical layer at the leader, per request:\n");
  std::printf("%-14s %4s | %7s %7s | %7s %7s | %9s | %9s\n", "system", "N", "frames", "frames",
              "wire B", "wire B", "msgs/frm", "msgs/frm");
  std::printf("%-14s %4s | %7s %7s | %7s %7s | %9s | %9s\n", "", "", "plain", "coal.", "plain",
              "coal.", "plain", "coal.");
  for (const Row& row : rows) {
    const std::string scope =
        std::string(row.system->name) + "/N" + std::to_string(row.n) + "/coalesced/";
    const Counts coal = MeasureLeader(io, scope, row.system->mode, row.n, /*tx_batching=*/true);
    const double frames_plain = row.plain.rx_frames + row.plain.tx_frames;
    const double frames_coal = coal.rx_frames + coal.tx_frames;
    const double msgs_plain = row.plain.rx + row.plain.tx;
    const double msgs_coal = coal.rx + coal.tx;
    std::printf("%-14s %4d | %7.2f %7.2f | %7.0f %7.0f | %9.2f | %9.2f\n", row.system->name,
                row.n, frames_plain, frames_coal, row.plain.rx_wire_bytes + row.plain.tx_wire_bytes,
                coal.rx_wire_bytes + coal.tx_wire_bytes,
                frames_plain == 0 ? 0 : msgs_plain / frames_plain,
                frames_coal == 0 ? 0 : msgs_coal / frames_coal);
    const std::string plain_scope =
        std::string(row.system->name) + "/N" + std::to_string(row.n) + "/";
    io.RecordGauge(plain_scope + "leader.frames_per_req_milli",
                   std::llround(frames_plain * 1000));
    io.RecordGauge(scope + "leader.frames_per_req_milli", std::llround(frames_coal * 1000));
    io.RecordGauge(plain_scope + "leader.wire_bytes_per_req",
                   std::llround(row.plain.rx_wire_bytes + row.plain.tx_wire_bytes));
    io.RecordGauge(scope + "leader.wire_bytes_per_req",
                   std::llround(coal.rx_wire_bytes + coal.tx_wire_bytes));
    std::fflush(stdout);
  }
  std::printf(
      "\nnote: coalesced wire bytes include 4B per-message batch framing; the\n"
      "per-type split is exported as net.bytes_on_wire.{tx,rx}.<type>.\n");
}

}  // namespace
}  // namespace hovercraft

int main(int argc, char** argv) {
  hovercraft::benchutil::BenchIo io(argc, argv);
  hovercraft::Run(io);
  return io.Finish();
}
