// Figure 13: YCSB-E (95% SCAN / 5% INSERT, 1KB records, scan limit 10) on
// the kvstore (the paper's Redis + user-defined-module stand-in), comparing
// the unreplicated store against HovercRaft++ with 3/5/7 nodes. SCANs are
// read-only and load-balance across replicas; INSERTs execute everywhere.
// The paper reports 4x over unreplicated at 7 nodes, the Amdahl bound given
// the INSERT/SCAN cost ratio.
#include <cstdio>
#include <memory>
#include <utility>
#include <vector>

#include "bench/bench_common.h"
#include "src/app/kvstore/service.h"
#include "src/app/ycsb.h"

namespace hovercraft {
namespace {

YcsbEConfig YcsbConfig(double zipf_theta) {
  YcsbEConfig config;
  config.conversation_count = 2000;
  config.preload_per_conversation = 10;
  config.zipf_theta = zipf_theta;
  return config;
}

void Run(benchutil::BenchIo& io, double zipf_theta) {
  benchutil::PrintHeader(
      "Figure 13: YCSB-E (95% SCAN / 5% INSERT) on the kvstore, reply+RO LB on",
      "Kogias & Bugnion, HovercRaft (EuroSys'20), Figure 13");
  std::printf("zipfian key skew: theta=%.2f%s\n\n", zipf_theta,
              zipf_theta >= 0.99 ? " (YCSB default)" : "");

  struct Setup {
    const char* name;
    ClusterMode mode;
    int32_t nodes;
  };
  const Setup setups[] = {
      {"UnRep", ClusterMode::kUnreplicated, 1},
      {"N=3", ClusterMode::kHovercRaftPP, 3},
      {"N=5", ClusterMode::kHovercRaftPP, 5},
      {"N=7", ClusterMode::kHovercRaftPP, 7},
  };

  const YcsbEConfig ycsb = YcsbConfig(zipf_theta);
  for (const Setup& setup : setups) {
    ExperimentConfig config;
    config.cluster =
        benchutil::MakeClusterConfig(setup.mode, setup.nodes, ReplierPolicy::kJbsq, 64, 42);
    config.cluster.app_factory = [ycsb]() {
      auto svc = std::make_unique<KvService>();
      // Deterministic identical preload on every replica (the paper loads
      // the dataset before measuring).
      Rng rng(0xFEED5EED);
      YcsbEGenerator gen(ycsb);
      for (const KvCommand& cmd : gen.PreloadCommands(rng)) {
        svc->Apply(cmd);
      }
      return svc;
    };
    config.workload_factory = [ycsb]() { return std::make_unique<YcsbEWorkload>(ycsb); };
    config.client_count = 8;

    const std::vector<double> rates = {10e3, 20e3, 30e3,  40e3,  60e3,
                                       80e3, 100e3, 120e3, 140e3, 160e3};
    for (double rate : rates) {
      const LoadMetrics m = io.RunCurvePoint(setup.name, config, rate);
      if (m.p99_ns > benchutil::kSlo * 4) {
        break;
      }
    }
    std::printf("\n");
  }
}

}  // namespace
}  // namespace hovercraft

int main(int argc, char** argv) {
  double zipf_theta = 0.99;
  hovercraft::Flags flags("fig13_ycsb_kvstore");
  flags.Add("--zipf-theta=X", &zipf_theta, "key skew (default 0.99, YCSB's)");
  hovercraft::benchutil::BenchIo io(argc, argv, std::move(flags));
  hovercraft::Run(io, zipf_theta);
  return io.Finish();
}
