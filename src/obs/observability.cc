#include "src/obs/observability.h"

#include <utility>

namespace hovercraft {
namespace obs {

Observability::Observability(const Options& options) : options_(options) {}

void Observability::AddSampler(std::string name, std::function<int64_t()> fn) {
  samplers_.push_back(Sampler{std::move(name), std::move(fn)});
}

void Observability::ClearSamplers() { samplers_.clear(); }

void Observability::SampleAll(TimeNs now) {
  for (const Sampler& sampler : samplers_) {
    const int64_t value = sampler.fn();
    metrics_.Sample(sampler.name, now, value);
    metrics_.SetGauge(sampler.name, value);
  }
}

void Observability::StartSampling(Simulator* sim, TimeNs until) {
  if (!options_.sampling || samplers_.empty()) {
    return;
  }
  // Recurring tick. Samplers only read state, so interleaving these events
  // with protocol events cannot change the simulation outcome.
  SampleAll(sim->Now());
  ArmSampleTick(sim, until);
}

void Observability::ArmSampleTick(Simulator* sim, TimeNs until) {
  const TimeNs next = sim->Now() + options_.sample_interval;
  if (next > until) {
    return;
  }
  sim->At(next, [this, sim, until]() {
    SampleAll(sim->Now());
    ArmSampleTick(sim, until);
  });
}

}  // namespace obs
}  // namespace hovercraft
