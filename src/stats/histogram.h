// Log-linear latency histogram (HDR-histogram style): values are bucketed
// with bounded relative error so tail percentiles stay accurate across the
// nanosecond-to-second range without storing every sample.
#ifndef SRC_STATS_HISTOGRAM_H_
#define SRC_STATS_HISTOGRAM_H_

#include <cstdint>
#include <vector>

#include "src/common/check.h"

namespace hovercraft {

class Histogram {
 public:
  // sub_bucket_bits controls relative precision: 2^bits linear sub-buckets per
  // power-of-two range, i.e. worst-case relative error 2^-bits. The default
  // (7 bits -> <0.8% error) matches what latency tooling like HdrHistogram
  // commonly uses.
  explicit Histogram(int sub_bucket_bits = 7);

  void Record(int64_t value);
  void RecordN(int64_t value, uint64_t count);

  uint64_t count() const { return count_; }
  int64_t min() const { return count_ == 0 ? 0 : min_; }
  int64_t max() const { return count_ == 0 ? 0 : max_; }
  double Mean() const;
  // quantile in [0, 1]; returns the upper bound of the bucket holding it.
  int64_t ValueAtQuantile(double quantile) const;
  int64_t Percentile(double p) const { return ValueAtQuantile(p / 100.0); }

  void Clear();
  // Adds all samples of `other` into this histogram (must share precision).
  void Merge(const Histogram& other);

 private:
  size_t BucketFor(int64_t value) const;
  int64_t BucketUpperBound(size_t bucket) const;

  int sub_bucket_bits_;
  int64_t sub_bucket_count_;    // 2^sub_bucket_bits
  // Counts of buckets 0 .. the highest one a sample or a merge reached; it
  // starts empty and grows zero-filled, so a histogram costs no heap until
  // it records and then about as much as its largest value needs.
  std::vector<uint64_t> buckets_;
  uint64_t count_ = 0;
  int64_t min_ = 0;
  int64_t max_ = 0;
  double sum_ = 0.0;
};

}  // namespace hovercraft

#endif  // SRC_STATS_HISTOGRAM_H_
