// Cluster-wide metrics registry: named counters, gauges, latency histograms
// (src/stats) and sampled timeseries, with per-node scoping by name prefix
// ("node3/raft.commit_lag"). Dumped as one JSON snapshot whose bytes are a
// deterministic function of the recorded values (keys are sorted, floats are
// printed with fixed precision).
#ifndef SRC_OBS_METRICS_H_
#define SRC_OBS_METRICS_H_

#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "src/common/types.h"
#include "src/stats/histogram.h"

namespace hovercraft {
namespace obs {

// "node3/" — canonical per-node metric scope prefix.
std::string NodeScope(NodeId node);

class MetricsRegistry {
 public:
  // Counters: monotonic uint64 totals (message counts, drops, dedup hits...).
  void AddCounter(const std::string& name, uint64_t delta);
  void SetCounter(const std::string& name, uint64_t value);
  uint64_t CounterValue(const std::string& name) const;

  // Gauges: point-in-time int64 values (queue depth, window occupancy...).
  void SetGauge(const std::string& name, int64_t value);

  // Histograms: latency-style distributions, created on first use.
  Histogram& GetHistogram(const std::string& name);

  // Timeseries: appends one (t, value) sample; used by the periodic queue
  // depth samplers. Samples must be appended in non-decreasing t per series.
  void Sample(const std::string& name, TimeNs t, int64_t value);

  // One JSON object: {"counters":{...},"gauges":{...},"histograms":{...},
  // "timeseries":{...}}. Byte-deterministic for identical contents.
  void DumpJson(std::ostream& out) const;

  bool empty() const {
    return counters_.empty() && gauges_.empty() && histograms_.empty() && series_.empty();
  }
  size_t size() const {
    return counters_.size() + gauges_.size() + histograms_.size() + series_.size();
  }
  void Clear();

 private:
  std::map<std::string, uint64_t> counters_;
  std::map<std::string, int64_t> gauges_;
  std::map<std::string, Histogram> histograms_;
  std::map<std::string, std::vector<std::pair<TimeNs, int64_t>>> series_;
};

}  // namespace obs
}  // namespace hovercraft

#endif  // SRC_OBS_METRICS_H_
