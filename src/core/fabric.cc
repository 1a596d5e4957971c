#include "src/core/fabric.h"

namespace hovercraft {

Fabric::Fabric(uint64_t seed, const FabricConfig& config)
    : recorder_(config.flight_recorder_depth > 0
                    ? std::make_unique<obs::FlightRecorder>(config.flight_recorder_depth)
                    : nullptr),
      net_(&sim_, seed ^ 0xFEEDFACE12345678ull),
      obs_(config.obs) {
  sim_.set_observability(obs_);
  // Attached before any host exists, so the very first role transition is
  // already on record.
  sim_.set_flight_recorder(recorder_.get());
}

Fabric::~Fabric() {
  sim_.set_flight_recorder(nullptr);
  sim_.set_observability(nullptr);
}

void Fabric::AttachSink(obs::FlightRecorder::Sink* sink) {
  if (recorder_ != nullptr && sink != nullptr) {
    recorder_->AddSink(sink);
  }
}

void Fabric::DetachSink(obs::FlightRecorder::Sink* sink) {
  if (recorder_ != nullptr && sink != nullptr) {
    recorder_->RemoveSink(sink);
  }
}

}  // namespace hovercraft
