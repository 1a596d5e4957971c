#include "src/stats/histogram.h"

#include <algorithm>
#include <bit>
#include <limits>

namespace hovercraft {

Histogram::Histogram(int sub_bucket_bits) : sub_bucket_bits_(sub_bucket_bits) {
  HC_CHECK(sub_bucket_bits >= 1 && sub_bucket_bits <= 16);
  sub_bucket_count_ = int64_t{1} << sub_bucket_bits_;
}

size_t Histogram::BucketFor(int64_t value) const {
  if (value < 0) {
    value = 0;
  }
  const uint64_t v = static_cast<uint64_t>(value);
  if (v < static_cast<uint64_t>(sub_bucket_count_)) {
    // Values below 2^bits are exact: one value per bucket.
    return static_cast<size_t>(v);
  }
  // Values in [2^(bits+k-1), 2^(bits+k)) map to `half` linear sub-buckets of
  // width 2^k each, laid out contiguously after the exact region.
  const int msb = 63 - std::countl_zero(v);
  const int shift = msb - sub_bucket_bits_ + 1;  // k, >= 1
  const uint64_t half = static_cast<uint64_t>(sub_bucket_count_) / 2;
  const uint64_t sub_top = (v >> shift) - half;  // in [0, half)
  return static_cast<size_t>(sub_bucket_count_) +
         static_cast<size_t>(shift - 1) * static_cast<size_t>(half) +
         static_cast<size_t>(sub_top);
}

int64_t Histogram::BucketUpperBound(size_t bucket) const {
  const uint64_t half = static_cast<uint64_t>(sub_bucket_count_) / 2;
  if (bucket < static_cast<size_t>(sub_bucket_count_)) {
    return static_cast<int64_t>(bucket);
  }
  const uint64_t past = static_cast<uint64_t>(bucket) - static_cast<uint64_t>(sub_bucket_count_);
  const int shift = static_cast<int>(past / half) + 1;
  const uint64_t sub_top = past % half;
  const uint64_t top = sub_top + half + 1;
  // The last bucket BucketFor returns (the top of [2^62, 2^63)) bounds at
  // 2^63 - 1: saturate there instead of shifting into bit 63. An index past
  // it would shift by 63 or more, which is undefined; it saturates too.
  if (shift >= 63 || (top >> (63 - shift)) != 0) {
    return std::numeric_limits<int64_t>::max();
  }
  return static_cast<int64_t>((top << shift) - 1);
}

void Histogram::Record(int64_t value) { RecordN(value, 1); }

void Histogram::RecordN(int64_t value, uint64_t n) {
  if (n == 0) {
    return;
  }
  if (value < 0) {
    value = 0;
  }
  const size_t bucket = BucketFor(value);
  if (bucket >= buckets_.size()) {
    HC_CHECK_LE(bucket, BucketFor(std::numeric_limits<int64_t>::max()));
    buckets_.resize(bucket + 1);
  }
  buckets_[bucket] += n;
  if (count_ == 0) {
    min_ = value;
    max_ = value;
  } else {
    min_ = std::min(min_, value);
    max_ = std::max(max_, value);
  }
  count_ += n;
  sum_ += static_cast<double>(value) * static_cast<double>(n);
}

double Histogram::Mean() const {
  if (count_ == 0) {
    return 0.0;
  }
  return sum_ / static_cast<double>(count_);
}

int64_t Histogram::ValueAtQuantile(double quantile) const {
  if (count_ == 0) {
    return 0;  // no samples: matches min()/max()
  }
  if (quantile <= 0.0) {
    return min();  // the 0th percentile is the minimum, not a bucket bound
  }
  quantile = std::min(quantile, 1.0);
  // Rank of the sample holding the quantile, clamped to [1, count]: floating
  // error must not round the target down to 0 (which would match the first
  // non-empty bucket regardless of quantile) or up past the population
  // (which would never match and always report max).
  const uint64_t target = std::clamp<uint64_t>(
      static_cast<uint64_t>(quantile * static_cast<double>(count_) + 0.5), 1, count_);
  uint64_t running = 0;
  for (size_t i = 0; i < buckets_.size(); ++i) {
    running += buckets_[i];
    if (running >= target && buckets_[i] > 0) {
      // The bucket bound brackets the true value; clamping to the observed
      // range makes single-sample and extreme-quantile answers exact.
      return std::clamp(BucketUpperBound(i), min_, max_);
    }
  }
  return max_;
}

void Histogram::Clear() {
  std::fill(buckets_.begin(), buckets_.end(), 0);
  count_ = 0;
  min_ = 0;
  max_ = 0;
  sum_ = 0.0;
}

void Histogram::Merge(const Histogram& other) {
  HC_CHECK_EQ(sub_bucket_bits_, other.sub_bucket_bits_);
  if (buckets_.size() < other.buckets_.size()) {
    buckets_.resize(other.buckets_.size());
  }
  for (size_t i = 0; i < other.buckets_.size(); ++i) {
    buckets_[i] += other.buckets_[i];
  }
  if (other.count_ > 0) {
    if (count_ == 0) {
      min_ = other.min_;
      max_ = other.max_;
    } else {
      min_ = std::min(min_, other.min_);
      max_ = std::max(max_, other.max_);
    }
    count_ += other.count_;
    sum_ += other.sum_;
  }
}

}  // namespace hovercraft
