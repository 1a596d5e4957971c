// The shared substrate of a simulated deployment: one virtual clock, one
// switched network, the always-on flight recorder, the optional
// observability bundle and the index of image parts the replicas share.
//
// Every Cluster runs on exactly one Fabric: a standalone Cluster builds its
// own, while a ShardedCluster's groups and a chaos run's cluster share one.
// The Fabric wires the recorder and the bundle into its simulator and is the
// one place recorder sinks are attached and detached, so the lifetime order
// (recorder before hosts, sinks detached before they die) lives here once.
#ifndef SRC_CORE_FABRIC_H_
#define SRC_CORE_FABRIC_H_

#include <cstdint>
#include <memory>

#include "src/common/image.h"
#include "src/net/network.h"
#include "src/obs/flight_recorder.h"
#include "src/sim/simulator.h"

namespace hovercraft {

namespace obs {
class Observability;
}  // namespace obs

struct FabricConfig {
  // Always-on flight recorder: slots per node ring. 0 disables recording
  // entirely (the one-branch hot-path check still runs, but finds no
  // recorder), and with it every sink.
  size_t flight_recorder_depth = obs::FlightRecorder::kDefaultDepth;
  // Observability bundle (metrics + samplers). Non-owning and must outlive
  // the fabric; null leaves every metric hook disabled. Clusters on this
  // fabric register their queue-depth samplers on it.
  obs::Observability* obs = nullptr;
};

class Fabric {
 public:
  // The network's loss/fault RNG is seeded `seed ^ 0xFEEDFACE12345678`.
  explicit Fabric(uint64_t seed, const FabricConfig& config = {});
  ~Fabric();
  Fabric(const Fabric&) = delete;
  Fabric& operator=(const Fabric&) = delete;

  Simulator& sim() { return sim_; }
  Network& network() { return net_; }
  // Null when flight_recorder_depth is 0.
  obs::FlightRecorder* recorder() { return recorder_.get(); }
  obs::Observability* obs() const { return obs_; }
  // The image parts the deployment's replicas have published: replicas hold
  // the same state, so each unchanged key is held once per deployment, not
  // once per replica. Cluster builds every app inside an
  // ImagePartIndex::Scope over it, so an app binds it from construction on.
  // It dies with the fabric, so no two deployments (sweep -j runs one per
  // thread) share it.
  ImagePartIndex& image_parts() { return image_parts_; }

  // Subscribes a passive sink to the recorder until DetachSink. Both are
  // no-ops without a recorder or with a null sink.
  void AttachSink(obs::FlightRecorder::Sink* sink);
  void DetachSink(obs::FlightRecorder::Sink* sink);

 private:
  Simulator sim_;
  // Declared before the network so it outlives every host that records.
  std::unique_ptr<obs::FlightRecorder> recorder_;
  Network net_;
  obs::Observability* obs_;
  ImagePartIndex image_parts_;
};

}  // namespace hovercraft

#endif  // SRC_CORE_FABRIC_H_
