// Critical-path analyzer: per-request tail-latency attribution.
//
// Subscribes to the flight-recorder stage-mark stream, and for every request
// that completes, walks its stage marks in time order to extract the blocking
// chain (client -> NIC -> multicast -> ordering -> commit -> JBSQ dispatch ->
// apply -> reply). Each consecutive delta is *blamed* on the stage it ended
// at; a stage the request skipped (e.g. kDispatched under kLeaderOnly)
// contributes nothing and its time folds into the next stage present. By
// construction the per-stage blame of one request telescopes exactly to its
// end-to-end latency.
//
// Attribution() then aggregates blame over the p50 / p99 / p99.9 populations
// (a small rank window around each percentile of the end-to-end latency
// distribution), producing the `tail_attribution` table the benches emit per
// load point. Because blame is exact per request and the aggregate is a mean
// over the window, each row's per-stage blame sums to that row's end-to-end
// latency to floating-point precision — "p99 is 3.1x p50 because of JBSQ
// queueing" becomes a machine-checked output (the benches gate the sum
// within 1%).
#ifndef SRC_OBS_CRITICAL_PATH_H_
#define SRC_OBS_CRITICAL_PATH_H_

#include <array>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/common/types.h"
#include "src/obs/flight_recorder.h"
#include "src/r2p2/request_id.h"

namespace hovercraft {
namespace obs {

class CriticalPath : public FlightRecorder::Sink {
 public:
  struct Row {
    const char* population;       // "p50", "p99", "p99.9"
    uint64_t count = 0;           // requests in the rank window
    double e2e_ns = 0;            // mean end-to-end latency over the window
    int64_t percentile_ns = 0;    // the exact nearest-rank percentile
    std::array<double, kStageCount> blame_ns{};  // sums to e2e_ns
  };

  void OnFrEvent(const FrEvent& event) override;

  // Requests finalized so far (completed with both endpoints marked).
  size_t completed() const { return done_.size(); }

  // One row per percentile population; empty when no request completed.
  std::vector<Row> Attribution() const;

  // Printable table, e.g. AttributionTable("HovercRaft/r800000").
  std::string AttributionTable(const std::string& label) const;

  // Largest relative |sum(blame) - e2e| across the rows — the acceptance
  // check (must stay under 0.01). Zero when no request completed.
  double MaxSumError() const;

  // Forget everything; the benches reuse one analyzer across load points.
  void Clear();

 private:
  struct Pending {
    std::array<TimeNs, kStageCount> marks;  // first occurrence, -1 = unseen
  };
  struct Done {
    TimeNs e2e = 0;
    std::array<TimeNs, kStageCount> blame{};  // per-stage, sums to e2e
  };

  void Finalize(const RequestId& rid, Pending& pending);

  std::unordered_map<RequestId, Pending, RequestIdHash> pending_;
  std::vector<Done> done_;
};

}  // namespace obs
}  // namespace hovercraft

#endif  // SRC_OBS_CRITICAL_PATH_H_
