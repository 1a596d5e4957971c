#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <vector>

#include "src/common/random.h"
#include "src/stats/histogram.h"
#include "src/stats/summary.h"
#include "src/stats/timeseries.h"

namespace hovercraft {
namespace {

// ---------------------------------------------------------------------------
// Histogram
// ---------------------------------------------------------------------------

TEST(HistogramTest, EmptyHistogram) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.min(), 0);
  EXPECT_EQ(h.max(), 0);
  EXPECT_EQ(h.Mean(), 0.0);
  EXPECT_EQ(h.Percentile(99), 0);
}

TEST(HistogramTest, SingleValue) {
  Histogram h;
  h.Record(1234);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.min(), 1234);
  EXPECT_EQ(h.max(), 1234);
  EXPECT_EQ(h.Percentile(50), 1234);
  EXPECT_EQ(h.Percentile(99), 1234);
}

TEST(HistogramTest, SmallValuesAreExact) {
  Histogram h(7);
  for (int64_t v = 0; v < 128; ++v) {
    h.Record(v);
  }
  // Values below 2^7 land in exact buckets; either median of 0..127 is fine.
  EXPECT_GE(h.ValueAtQuantile(0.5), 63);
  EXPECT_LE(h.ValueAtQuantile(0.5), 64);
  EXPECT_EQ(h.min(), 0);
  EXPECT_EQ(h.max(), 127);
}

TEST(HistogramTest, RelativeErrorBounded) {
  Histogram h(7);
  Rng rng(17);
  std::vector<int64_t> values;
  for (int i = 0; i < 100000; ++i) {
    const int64_t v = static_cast<int64_t>(rng.NextBelow(100'000'000)) + 1;
    values.push_back(v);
    h.Record(v);
  }
  std::sort(values.begin(), values.end());
  for (double q : {0.5, 0.9, 0.99, 0.999}) {
    const int64_t exact = values[static_cast<size_t>(q * (values.size() - 1))];
    const int64_t approx = h.ValueAtQuantile(q);
    const double rel_err =
        std::abs(static_cast<double>(approx - exact)) / static_cast<double>(exact);
    EXPECT_LT(rel_err, 0.02) << "q=" << q << " exact=" << exact << " approx=" << approx;
  }
}

TEST(HistogramTest, NegativeClampsToZero) {
  Histogram h;
  h.Record(-5);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.min(), 0);
}

TEST(HistogramTest, MeanMatches) {
  Histogram h;
  for (int64_t v : {10, 20, 30, 40}) {
    h.Record(v);
  }
  EXPECT_DOUBLE_EQ(h.Mean(), 25.0);
}

TEST(HistogramTest, RecordNWeightsCount) {
  Histogram h;
  h.RecordN(100, 99);
  h.RecordN(1'000'000, 1);
  EXPECT_EQ(h.count(), 100u);
  EXPECT_LE(h.Percentile(50), 101);
  EXPECT_GE(h.Percentile(99.5), 990'000);
}

TEST(HistogramTest, MergeCombines) {
  Histogram a;
  Histogram b;
  a.Record(10);
  b.Record(1000);
  a.Merge(b);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_EQ(a.min(), 10);
  EXPECT_GE(a.max(), 1000);
}

TEST(HistogramTest, ClearResets) {
  Histogram h;
  h.Record(5);
  h.Clear();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.Percentile(99), 0);
}

TEST(HistogramTest, LargeValuesDoNotOverflow) {
  Histogram h;
  h.Record(int64_t{1} << 60);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_GE(h.max(), int64_t{1} << 60);
  EXPECT_GE(h.Percentile(50), (int64_t{1} << 60) - ((int64_t{1} << 60) >> 6));
}

// The 0th percentile is the observed minimum, not the bound of whatever
// bucket the minimum landed in.
TEST(HistogramTest, ZerothQuantileIsMin) {
  Histogram h;
  h.Record(1000);  // bucketed: upper bound 1007 at 7 sub-bucket bits
  h.Record(2000);
  h.Record(4000);
  EXPECT_EQ(h.ValueAtQuantile(0.0), 1000);
  EXPECT_EQ(h.ValueAtQuantile(-0.5), 1000);  // out-of-range clamps, not UB
}

TEST(HistogramTest, FullQuantileIsMax) {
  Histogram h;
  for (int64_t v : {1000, 2000, 3000}) {  // count=3: q*count is inexact
    h.Record(v);
  }
  EXPECT_EQ(h.ValueAtQuantile(1.0), 3000);
  EXPECT_EQ(h.ValueAtQuantile(1.5), 3000);
}

// A tiny-but-positive quantile must not round its target rank down to zero;
// it resolves to the first non-empty bucket, clamped to the observed range.
TEST(HistogramTest, TinyQuantileTargetsFirstSample) {
  Histogram h;
  h.Record(1000);
  h.Record(500'000);
  const int64_t v = h.ValueAtQuantile(1e-12);
  EXPECT_GE(v, 1000);
  EXPECT_LE(v, 1007);  // within the min's bucket, never the 500k sample
}

// Samples in the top power-of-two range saturate cleanly instead of
// overflowing the bucket bound into a negative value.
TEST(HistogramTest, OverflowBucketSaturates) {
  Histogram h;
  h.Record(std::numeric_limits<int64_t>::max());
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.Percentile(50), std::numeric_limits<int64_t>::max());
  EXPECT_EQ(h.Percentile(99.99), std::numeric_limits<int64_t>::max());
  h.Record((int64_t{1} << 62) + 12345);
  EXPECT_GT(h.Percentile(1), 0);  // never negative
}

// Merging shards and then asking for quantiles must agree exactly with one
// histogram that recorded every sample directly (same bucket layout), the
// property RunLoadPoint relies on when it merges per-client latencies.
TEST(HistogramTest, MergeThenQuantileMatchesDirect) {
  Histogram direct;
  Histogram shards[4];
  Histogram merged;
  Rng rng(91);
  for (int i = 0; i < 40000; ++i) {
    const int64_t v = static_cast<int64_t>(rng.NextExponential(80'000)) + 1;
    direct.Record(v);
    shards[i % 4].Record(v);
  }
  for (Histogram& shard : shards) {
    merged.Merge(shard);
  }
  EXPECT_EQ(merged.count(), direct.count());
  EXPECT_EQ(merged.min(), direct.min());
  EXPECT_EQ(merged.max(), direct.max());
  EXPECT_DOUBLE_EQ(merged.Mean(), direct.Mean());
  for (double q : {0.0, 0.01, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0}) {
    EXPECT_EQ(merged.ValueAtQuantile(q), direct.ValueAtQuantile(q)) << "q=" << q;
  }
}

TEST(HistogramTest, MergeWithEmptyIsIdentity) {
  Histogram populated;
  populated.Record(42);
  Histogram empty;
  populated.Merge(empty);
  EXPECT_EQ(populated.count(), 1u);
  EXPECT_EQ(populated.Percentile(50), 42);
  empty.Merge(populated);
  EXPECT_EQ(empty.count(), 1u);
  EXPECT_EQ(empty.min(), 42);
  EXPECT_EQ(empty.Percentile(99), 42);
}

// Two histograms agree sample for sample: the property every on-demand
// bucket test below checks against a histogram that recorded directly.
void ExpectSameSamples(const Histogram& got, const Histogram& want) {
  EXPECT_EQ(got.count(), want.count());
  EXPECT_EQ(got.min(), want.min());
  EXPECT_EQ(got.max(), want.max());
  EXPECT_DOUBLE_EQ(got.Mean(), want.Mean());
  for (double q : {0.0, 0.001, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999, 1.0}) {
    EXPECT_EQ(got.ValueAtQuantile(q), want.ValueAtQuantile(q)) << "q=" << q;
  }
}

// Buckets are held only up to the highest one recorded, so a merge joins
// histograms of different sizes: higher ranges into lower ones and the
// reverse must both equal recording every sample in one histogram.
TEST(HistogramTest, MergeAcrossHeldRangesMatchesDirect) {
  Histogram low;
  Histogram high;
  Histogram direct;
  for (int64_t v = 1; v <= 5000; v += 7) {
    low.Record(v);
    direct.Record(v);
  }
  for (int64_t v = 1'000'000; v <= 4'000'000'000; v += 99'999'989) {
    high.Record(v);
    direct.Record(v);
  }
  Histogram low_then_high = low;
  low_then_high.Merge(high);
  ExpectSameSamples(low_then_high, direct);
  Histogram high_then_low = high;
  high_then_low.Merge(low);
  ExpectSameSamples(high_then_low, direct);
}

// Clear keeps what it holds, zeroed; values past it then grow it further.
TEST(HistogramTest, ClearThenLargerValuesMatchesFresh) {
  Histogram h;
  for (int64_t v = 0; v < 1000; ++v) {
    h.Record(v);
  }
  h.Clear();
  Histogram fresh;
  for (int64_t v : {int64_t{5}, int64_t{1} << 30, (int64_t{1} << 40) + 3,
                    std::numeric_limits<int64_t>::max()}) {
    h.Record(v);
    fresh.Record(v);
  }
  ExpectSameSamples(h, fresh);
}

// Bucket bounds at the edges of power-of-two ranges: 2^k - 1 closes its
// range exactly, 2^k opens the next one, and INT64_MAX sits in the last
// bucket. A 0 sample below them keeps the clamp to [min, max] from hiding
// the bounds, which do not depend on how many buckets a histogram holds.
TEST(HistogramTest, QuantilesAtPowerOfTwoEdgesArePinned) {
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  struct Edge {
    int k;
    int64_t below;  // the quantile landing on 2^k - 1
    int64_t at;     // the quantile landing on 2^k
  };
  for (const Edge& e : {Edge{7, 127, 129}, Edge{8, 255, 259}, Edge{20, 1'048'575, 1'064'959},
                        Edge{40, 1'099'511'627'775, 1'116'691'496'959},
                        Edge{62, 4'611'686'018'427'387'903, 4'683'743'612'465'315'839}}) {
    Histogram h;
    const int64_t p = int64_t{1} << e.k;
    for (int64_t v : {int64_t{0}, p - 1, p, kMax}) {
      h.Record(v);
    }
    EXPECT_EQ(h.ValueAtQuantile(0.5), e.below) << "k=" << e.k;
    EXPECT_EQ(h.ValueAtQuantile(0.75), e.at) << "k=" << e.k;
    EXPECT_EQ(h.ValueAtQuantile(1.0), kMax) << "k=" << e.k;
  }
}

// Quantiles are monotone in q.
TEST(HistogramTest, QuantilesMonotone) {
  Histogram h;
  Rng rng(23);
  for (int i = 0; i < 10000; ++i) {
    h.Record(static_cast<int64_t>(rng.NextExponential(50'000)));
  }
  int64_t prev = 0;
  for (double q = 0.0; q <= 1.0; q += 0.05) {
    const int64_t v = h.ValueAtQuantile(q);
    EXPECT_GE(v, prev);
    prev = v;
  }
}

// ---------------------------------------------------------------------------
// Summary
// ---------------------------------------------------------------------------

TEST(SummaryTest, Empty) {
  Summary s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.StdDev(), 0.0);
}

TEST(SummaryTest, MeanAndVariance) {
  Summary s;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) {
    s.Record(v);
  }
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.Variance(), 32.0 / 7.0, 1e-9);
  EXPECT_EQ(s.min(), 2.0);
  EXPECT_EQ(s.max(), 9.0);
}

// ---------------------------------------------------------------------------
// Timeseries
// ---------------------------------------------------------------------------

TEST(TimeseriesTest, BinsByTime) {
  Timeseries ts(Seconds(1));
  ts.Record(Millis(100), 10);
  ts.Record(Millis(900), 20);
  ts.Record(Seconds(1) + Millis(1), 30);
  const auto points = ts.Points();
  ASSERT_EQ(points.size(), 2u);
  EXPECT_EQ(points[0].samples, 2u);
  EXPECT_EQ(points[1].samples, 1u);
  EXPECT_EQ(points[0].start, 0);
  EXPECT_EQ(points[1].start, Seconds(1));
}

TEST(TimeseriesTest, CountsEvents) {
  Timeseries ts(Millis(100));
  ts.Count(Millis(50));
  ts.Count(Millis(60), 4);
  const auto points = ts.Points();
  ASSERT_EQ(points.size(), 1u);
  EXPECT_EQ(points[0].events, 5u);
  EXPECT_EQ(points[0].samples, 0u);
}

TEST(TimeseriesTest, PercentilesPerBin) {
  Timeseries ts(Millis(10));
  for (int i = 0; i < 100; ++i) {
    ts.Record(Millis(5), i < 99 ? 100 : 10'000);
  }
  const auto points = ts.Points();
  ASSERT_EQ(points.size(), 1u);
  EXPECT_LE(points[0].p50, 101);
  EXPECT_GE(points[0].p99, 100);
}

}  // namespace
}  // namespace hovercraft
