// Fixed-interval timeseries: samples are binned by virtual time so benches
// can report per-second throughput/latency traces (paper Figure 12).
#ifndef SRC_STATS_TIMESERIES_H_
#define SRC_STATS_TIMESERIES_H_

#include <cstdint>
#include <vector>

#include "src/common/check.h"
#include "src/common/types.h"
#include "src/stats/histogram.h"

namespace hovercraft {

class Timeseries {
 public:
  explicit Timeseries(TimeNs bin_width) : bin_width_(bin_width) { HC_CHECK_GT(bin_width, 0); }

  void Record(TimeNs when, int64_t value) {
    Bin& bin = BinFor(when);
    bin.histogram.Record(value);
  }

  // Counts an event without a latency value (e.g. a dropped request).
  void Count(TimeNs when, uint64_t n = 1) {
    Bin& bin = BinFor(when);
    bin.events += n;
  }

  struct Point {
    TimeNs start;
    uint64_t samples;     // latency samples recorded in the bin
    uint64_t events;      // extra counted events
    double mean;
    int64_t p50;
    int64_t p99;
  };

  std::vector<Point> Points() const {
    std::vector<Point> out;
    out.reserve(bins_.size());
    for (size_t i = 0; i < bins_.size(); ++i) {
      const Bin& b = bins_[i];
      out.push_back(Point{static_cast<TimeNs>(i) * bin_width_, b.histogram.count(), b.events,
                          b.histogram.Mean(), b.histogram.Percentile(50), b.histogram.Percentile(99)});
    }
    return out;
  }

  TimeNs bin_width() const { return bin_width_; }

 private:
  struct Bin {
    Histogram histogram;
    uint64_t events = 0;
  };

  Bin& BinFor(TimeNs when) {
    HC_CHECK_GE(when, 0);
    const size_t idx = static_cast<size_t>(when / bin_width_);
    while (bins_.size() <= idx) {
      bins_.emplace_back();
    }
    return bins_[idx];
  }

  TimeNs bin_width_;
  std::vector<Bin> bins_;
};

}  // namespace hovercraft

#endif  // SRC_STATS_TIMESERIES_H_
