// Ablation: append_entries batching and pipelining (DESIGN.md design choice).
// Sweeps max_entries_per_ae x max_outstanding_ae for a 3-node HovercRaft++
// cluster at the Figure 7 workload and reports max throughput under the SLO
// and unloaded p99. Batching amortizes per-message costs; pipelining keeps
// the replication stream full when round-trips inflate under load — the
// batch*depth product caps entries in flight per RTT.
//
// A second section ablates the *transport* layer (ISSUE 9): eRPC-style frame
// coalescing below the protocol. AE batching reduces logical messages;
// transport coalescing leaves logical messages untouched and packs them into
// fewer physical frames — the table reports both so the two levers are
// visibly orthogonal.
#include <cstdio>
#include <memory>
#include <string>

#include "bench/bench_common.h"
#include "src/loadgen/client.h"

namespace hovercraft {
namespace {

void RunAeSweep(benchutil::BenchIo& io) {
  SyntheticWorkloadConfig workload;
  workload.service_time = std::make_shared<FixedDistribution>(Micros(1));

  std::printf("%8s %8s %18s %16s\n", "batch", "depth", "max kRPS (SLO)", "p99 @ 100kRPS");
  for (uint32_t batch : {8u, 64u}) {
    for (uint32_t depth : {1u, 2u, 4u}) {
      ExperimentConfig config = benchutil::MakeSyntheticExperiment(
          ClusterMode::kHovercRaftPP, 3, workload, ReplierPolicy::kLeaderOnly, 128, 42);
      config.cluster.raft.max_entries_per_ae = batch;
      config.cluster.raft.max_outstanding_ae = depth;
      const std::string scope =
          "ae/b" + std::to_string(batch) + "/d" + std::to_string(depth) + "/";
      io.Attach(&config, scope);
      const LoadMetrics unloaded = RunLoadPoint(config, 100e3);
      const SloResult r = FindMaxThroughputUnderSlo(config, benchutil::kSlo, 50e3, 1'050e3, 5);
      std::printf("%8u %8u %15.0fk %13.1fus\n", batch, depth, r.max_rps_under_slo / 1e3,
                  static_cast<double>(unloaded.p99_ns) / 1e3);
      io.RecordGauge(scope + "max_rps_under_slo", static_cast<int64_t>(r.max_rps_under_slo));
      io.RecordGauge(scope + "p99_ns_at_100k", unloaded.p99_ns);
      std::fflush(stdout);
    }
  }
}

struct WireRow {
  double msgs_per_req = 0;        // cluster-wide logical messages sent
  double frames_per_req = 0;      // cluster-wide physical frames sent
  double wire_bytes_per_req = 0;  // cluster-wide bytes on the wire (tx)
  double events_per_req = 0;      // simulator events executed (det. CPU proxy)
};

WireRow MeasureTransport(benchutil::BenchIo& io, const std::string& scope, bool batching,
                         TimeNs delay) {
  SyntheticWorkloadConfig workload;
  workload.service_time = std::make_shared<FixedDistribution>(Micros(1));
  ExperimentConfig config = benchutil::MakeSyntheticExperiment(
      ClusterMode::kHovercRaftPP, 3, workload, ReplierPolicy::kLeaderOnly, 128, 42);
  config.cluster.costs.tx_batching = batching;
  config.cluster.costs.tx_batch_delay_ns = delay;
  io.Attach(&config, scope);

  Fabric fabric(config.cluster.seed, config.fabric);
  Cluster cluster(fabric, config.cluster);
  if (cluster.WaitForLeader() == kInvalidNode) {
    return WireRow{};
  }
  auto client = std::make_unique<ClientHost>(
      &cluster.sim(), config.cluster.costs, [&cluster]() { return cluster.ClientTarget(); },
      config.workload_factory(), 200'000, 7);
  cluster.network().Attach(client.get());

  cluster.sim().RunUntil(cluster.sim().Now() + Millis(10));
  uint64_t msgs0 = 0, frames0 = 0, bytes0 = 0;
  for (NodeId n = 0; n < cluster.total_node_count(); ++n) {
    const NetCounters& c = cluster.server(n).counters();
    msgs0 += c.tx_msgs;
    frames0 += c.tx_physical_frames;
    bytes0 += c.tx_wire_bytes;
  }
  const uint64_t events0 = cluster.sim().executed_events();
  const uint64_t completed0 = client->total_completed();
  const TimeNs t0 = cluster.sim().Now();
  client->StartLoad(t0, t0 + Millis(100));
  cluster.sim().RunUntil(t0 + Millis(200));
  uint64_t msgs1 = 0, frames1 = 0, bytes1 = 0;
  for (NodeId n = 0; n < cluster.total_node_count(); ++n) {
    const NetCounters& c = cluster.server(n).counters();
    msgs1 += c.tx_msgs;
    frames1 += c.tx_physical_frames;
    bytes1 += c.tx_wire_bytes;
  }
  if (io.obs() != nullptr) {
    cluster.ExportMetrics(&io.obs()->metrics());
  }
  const uint64_t requests = client->total_completed() - completed0;
  if (requests == 0) {
    return WireRow{};
  }
  WireRow row;
  row.msgs_per_req = static_cast<double>(msgs1 - msgs0) / requests;
  row.frames_per_req = static_cast<double>(frames1 - frames0) / requests;
  row.wire_bytes_per_req = static_cast<double>(bytes1 - bytes0) / requests;
  row.events_per_req =
      static_cast<double>(cluster.sim().executed_events() - events0) / requests;
  return row;
}

void RunTransportSweep(benchutil::BenchIo& io) {
  std::printf(
      "\ntransport coalescing (frame batching below the protocol), "
      "HovercRaft++ N=3 @200kRPS:\n");
  std::printf("%-16s %10s %11s %10s %11s %11s\n", "config", "msgs/req", "frames/req",
              "msgs/frm", "wire B/req", "events/req");
  struct Config {
    const char* name;
    bool batching;
    TimeNs delay;
  };
  const Config configs[] = {
      {"off", false, 0},
      {"doorbell=0us", true, 0},
      {"doorbell=2us", true, Micros(2)},
      {"doorbell=20us", true, Micros(20)},
  };
  for (const Config& c : configs) {
    const std::string scope = std::string("transport/") + c.name + "/";
    const WireRow row = MeasureTransport(io, scope, c.batching, c.delay);
    std::printf("%-16s %10.2f %11.2f %10.2f %11.0f %11.1f\n", c.name, row.msgs_per_req,
                row.frames_per_req,
                row.frames_per_req == 0 ? 0 : row.msgs_per_req / row.frames_per_req,
                row.wire_bytes_per_req, row.events_per_req);
    io.RecordGauge(scope + "msgs_per_req_milli", std::llround(row.msgs_per_req * 1000));
    io.RecordGauge(scope + "frames_per_req_milli", std::llround(row.frames_per_req * 1000));
    io.RecordGauge(scope + "wire_bytes_per_req", std::llround(row.wire_bytes_per_req));
    io.RecordGauge(scope + "events_per_req_milli", std::llround(row.events_per_req * 1000));
    std::fflush(stdout);
  }
  std::printf(
      "note: the protocol is unchanged under coalescing — frames/req and\n"
      "events/req collapse as the doorbell delay admits more same-destination\n"
      "messages per frame (msgs/req moves only via second-order timing: a\n"
      "longer doorbell lets append_entries aggregate more entries). Per-type\n"
      "wire bytes (incl. 4B/message batch framing) export as\n"
      "net.bytes_on_wire.{tx,rx}.*.\n");
}

void Run(benchutil::BenchIo& io) {
  benchutil::PrintHeader(
      "Ablation: append_entries batch size x pipelining depth, HovercRaft++ N=3",
      "implementation design choice (paper section 6.2 operates likewise)");
  RunAeSweep(io);
  RunTransportSweep(io);
}

}  // namespace
}  // namespace hovercraft

int main(int argc, char** argv) {
  hovercraft::benchutil::BenchIo io(argc, argv);
  hovercraft::Run(io);
  return io.Finish();
}
