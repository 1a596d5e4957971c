// The observability bundle: the MetricsRegistry plus its periodic samplers,
// attached to a Simulator so every component that holds a Simulator* can
// reach them without constructor plumbing. Events live in the flight
// recorder (src/obs/flight_recorder.h), not here.
//
// Sampling is OFF by default and the bundle is absent from the simulator
// unless explicitly installed; the disabled hot path is a single pointer load
// and branch, with no allocation (the zero-overhead-when-disabled contract
// the CI smoke job asserts).
#ifndef SRC_OBS_OBSERVABILITY_H_
#define SRC_OBS_OBSERVABILITY_H_

#include <functional>
#include <string>
#include <vector>

#include "src/common/types.h"
#include "src/obs/flight_recorder.h"
#include "src/obs/metrics.h"
#include "src/sim/simulator.h"

namespace hovercraft {
namespace obs {

class Observability {
 public:
  struct Options {
    bool sampling = false;  // run the periodic queue-depth samplers
    TimeNs sample_interval = Micros(100);
  };

  explicit Observability(const Options& options);

  MetricsRegistry& metrics() { return metrics_; }
  const Options& options() const { return options_; }

  // --- periodic samplers -------------------------------------------------
  // A sampler reads one gauge (a queue depth, a lag) and is polled every
  // sample_interval; each poll appends to the named timeseries and updates
  // the gauge of the same name. Samplers are registered by the topology
  // owner (Cluster) and must be removed before the sampled objects die.
  void AddSampler(std::string name, std::function<int64_t()> fn);
  void ClearSamplers();

  // Arms the periodic sampling loop on `sim` until virtual time `until`.
  // No-op unless options.sampling is set and samplers are registered.
  void StartSampling(Simulator* sim, TimeNs until);

  // Runs every sampler once at time `now` (also called by the loop).
  void SampleAll(TimeNs now);

 private:
  void ArmSampleTick(Simulator* sim, TimeNs until);

  Options options_;
  MetricsRegistry metrics_;
  struct Sampler {
    std::string name;
    std::function<int64_t()> fn;
  };
  std::vector<Sampler> samplers_;
};

// Hot-path accessor: one pointer load + branch when observability is absent.
inline Observability* ObsOf(const Simulator* sim) { return sim->observability(); }

}  // namespace obs
}  // namespace hovercraft

#endif  // SRC_OBS_OBSERVABILITY_H_
