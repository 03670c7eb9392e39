// Tests for the benchmark's own statistics (stats.hpp).
#include "stats.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace legion::bench {
namespace {

TEST(MedianTest, OddEvenAndEmpty) {
  EXPECT_DOUBLE_EQ(Median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(Median({4.0, 1.0, 3.0, 2.0}), 2.5);
  EXPECT_DOUBLE_EQ(Median({7.5}), 7.5);
  EXPECT_DOUBLE_EQ(Median({}), 0.0);
}

TEST(QuartilesTest, MatchesPythonStatisticsQuantiles) {
  // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
  const Quartiles q = ExclusiveQuartiles(
      {10.0, 9.0, 8.0, 7.0, 6.0, 5.0, 4.0, 3.0, 2.0, 1.0});
  EXPECT_DOUBLE_EQ(q.q1, 2.75);
  EXPECT_DOUBLE_EQ(q.q2, 5.5);
  EXPECT_DOUBLE_EQ(q.q3, 8.25);
  // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]: the exclusive
  // method extrapolates past the ends of a short sample.
  const Quartiles two = ExclusiveQuartiles({2.0, 1.0});
  EXPECT_DOUBLE_EQ(two.q1, 0.75);
  EXPECT_DOUBLE_EQ(two.q2, 1.5);
  EXPECT_DOUBLE_EQ(two.q3, 2.25);
  // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
  const Quartiles five = ExclusiveQuartiles({5.0, 4.0, 3.0, 2.0, 1.0});
  EXPECT_DOUBLE_EQ(five.q1, 1.5);
  EXPECT_DOUBLE_EQ(five.q2, 3.0);
  EXPECT_DOUBLE_EQ(five.q3, 4.5);
}

TEST(PercentileRuleTest, HighestPercentileWithTenSamplesBeyond) {
  EXPECT_EQ(SamplesBeyond(1000, 99'000), 10u);
  EXPECT_EQ(SamplesBeyond(999, 99'000), 9u);
  EXPECT_EQ(HighestSupportedPercentile(1000), 99'000u);
  EXPECT_EQ(HighestSupportedPercentile(999), 90'000u);
  EXPECT_EQ(HighestSupportedPercentile(100), 90'000u);
  EXPECT_EQ(HighestSupportedPercentile(99), 50'000u);
  EXPECT_EQ(HighestSupportedPercentile(20), 50'000u);
  EXPECT_EQ(HighestSupportedPercentile(19), 0u);
  EXPECT_EQ(HighestSupportedPercentile(10'000), 99'900u);
  EXPECT_EQ(HighestSupportedPercentile(1'000'000), 99'999u);
}

TEST(LatencyHistogramTest, BucketEdgesAreConsistent) {
  for (std::uint64_t v : {0ull, 1ull, 127ull, 128ull, 129ull, 255ull, 256ull,
                          1000ull, 45'000ull, 1'000'000'007ull}) {
    const std::size_t b = LatencyHistogram::BucketOf(v);
    EXPECT_LE(LatencyHistogram::Floor(b), v) << v;
    EXPECT_GT(LatencyHistogram::Floor(b + 1), v) << v;
  }
}

TEST(LatencyHistogramTest, PercentilesWithinBucketResolution) {
  LatencyHistogram h;
  for (std::uint64_t v = 1; v <= 100'000; ++v) h.record(v * 10);
  EXPECT_EQ(h.count(), 100'000u);
  EXPECT_NEAR(h.percentile(0.50), 500'000.0, 500'000.0 * 0.016);
  EXPECT_NEAR(h.percentile(0.99), 990'000.0, 990'000.0 * 0.016);
  EXPECT_DOUBLE_EQ(LatencyHistogram{}.percentile(0.5), 0.0);

  LatencyHistogram a;
  LatencyHistogram b;
  a.record(100);
  b.record(300);
  b.record(300);
  a.merge(b);
  EXPECT_EQ(a.count(), 3u);
  EXPECT_NEAR(a.percentile(0.5), 300.0, 5.0);

  // Values past the range land in the last bucket instead of overflowing.
  LatencyHistogram big;
  big.record(~0ull);
  EXPECT_EQ(big.count(), 1u);
  EXPECT_GE(big.percentile(1.0),
            static_cast<double>(1ull << LatencyHistogram::kMaxBits));
}

TEST(Log2BucketPercentileTest, InterpolatesInsideTheBucket) {
  std::array<std::uint64_t, 40> buckets{};
  buckets[3] = 4;  // values in [4, 7]
  EXPECT_DOUBLE_EQ(Log2BucketPercentile(buckets, 0.5), 6.0);
  EXPECT_DOUBLE_EQ(Log2BucketPercentile(buckets, 1.0), 8.0);
  buckets[0] = 4;  // four zeros below them
  EXPECT_DOUBLE_EQ(Log2BucketPercentile(buckets, 0.5), 0.0);
  EXPECT_DOUBLE_EQ(Log2BucketPercentile(std::array<std::uint64_t, 40>{}, 0.5),
                   0.0);
}

TEST(RatioTest, PerOpBasesAndHitRatio) {
  // msg.invokes delta over the ops of the same phase.
  EXPECT_DOUBLE_EQ(PerOp(20'000.0, 10'000), 2.0);
  EXPECT_DOUBLE_EQ(PerOp(5.0, 0), 0.0);
  EXPECT_DOUBLE_EQ(HitRatio(9, 91), 0.09);
  EXPECT_DOUBLE_EQ(HitRatio(0, 0), 0.0);
}

TEST(ClosureTest, SumOfLayerMediansOverEndToEndMedian) {
  // resolve + invoke + await medians against the untraced p50.
  EXPECT_DOUBLE_EQ(LayerClosure({0.5, 4.0, 40.5}, 50.0), 0.9);
  EXPECT_DOUBLE_EQ(LayerClosure({}, 50.0), 0.0);
  EXPECT_DOUBLE_EQ(LayerClosure({1.0}, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(OverheadPct(40'000.0, 38'000.0), 5.0);
  EXPECT_DOUBLE_EQ(OverheadPct(0.0, 1.0), 0.0);
}

}  // namespace
}  // namespace legion::bench
