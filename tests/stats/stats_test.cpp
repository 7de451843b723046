#include <gtest/gtest.h>

#include "../test_util.hpp"
#include "stats/fct.hpp"
#include "stats/percentile.hpp"
#include "stats/timeseries.hpp"

namespace fncc {
namespace {

TEST(PercentileTest, EmptyAndSingle) {
  EXPECT_DOUBLE_EQ(Percentile({}, 50), 0.0);
  EXPECT_DOUBLE_EQ(Percentile({3.0}, 99), 3.0);
}

TEST(PercentileTest, MedianOfOddAndEven) {
  EXPECT_DOUBLE_EQ(Percentile({3, 1, 2}, 50), 2.0);
  EXPECT_DOUBLE_EQ(Percentile({1, 2, 3, 4}, 50), 2.5);
}

TEST(PercentileTest, ExtremesAndInterpolation) {
  std::vector<double> v{10, 20, 30, 40, 50};
  EXPECT_DOUBLE_EQ(Percentile(v, 0), 10.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 100), 50.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 25), 20.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 12.5), 15.0);
}

TEST(PercentileTest, UnsortedInputHandled) {
  EXPECT_DOUBLE_EQ(Percentile({9, 1, 5, 7, 3}, 50), 5.0);
}

TEST(JainTest, PerfectFairnessIsOne) {
  EXPECT_DOUBLE_EQ(JainFairnessIndex({5, 5, 5, 5}), 1.0);
}

TEST(JainTest, TotalUnfairnessIsOneOverN) {
  EXPECT_NEAR(JainFairnessIndex({10, 0, 0, 0}), 0.25, 1e-12);
}

TEST(TimeSeriesTest, Reductions) {
  TimeSeries ts;
  ts.Add(10, 1.0);
  ts.Add(20, 5.0);
  ts.Add(30, 3.0);
  EXPECT_DOUBLE_EQ(ts.Max(), 5.0);
  EXPECT_DOUBLE_EQ(ts.MeanOver(15, 35), 4.0);
}

TEST(TimeSeriesTest, FirstCrossingQueries) {
  TimeSeries ts;
  ts.Add(10, 100.0);
  ts.Add(20, 50.0);
  ts.Add(30, 10.0);
  EXPECT_EQ(ts.FirstTimeBelow(60.0, 0), 20);
  EXPECT_EQ(ts.FirstTimeBelow(60.0, 25), 30);
  EXPECT_EQ(ts.FirstTimeBelow(5.0, 0), kTimeInfinity);
}

TEST(PeriodicSamplerTest, SamplesAtInterval) {
  Simulator sim;
  TimeSeries out;
  double value = 0.0;
  PeriodicSampler sampler(&sim, Microseconds(10), [&] { return value; },
                          &out);
  sim.Schedule(Microseconds(25), test::Fn([&] { value = 7.0; }));
  sim.RunUntil(Microseconds(55));
  ASSERT_EQ(out.size(), 5u);
  EXPECT_DOUBLE_EQ(out.samples()[1].value, 0.0);  // t = 20 us
  EXPECT_DOUBLE_EQ(out.samples()[2].value, 7.0);  // t = 30 us
}

TEST(RateMeterTest, ComputesGbps) {
  RateMeter meter;
  EXPECT_DOUBLE_EQ(meter.SampleGbps(0, 0), 0.0);  // bootstrap
  // 12500 bytes in 1 us = 100 Gbps.
  EXPECT_NEAR(meter.SampleGbps(Microseconds(1), 12'500), 100.0, 1e-9);
  EXPECT_NEAR(meter.SampleGbps(Microseconds(2), 12'500), 0.0, 1e-9);
}

TEST(FctRecorderTest, SlowdownComputedAgainstIdeal) {
  FctRecorder rec;
  FlowSpec spec;
  spec.size_bytes = 1000;
  spec.ideal_fct = Microseconds(10);
  rec.Record(spec, Microseconds(25));
  ASSERT_EQ(rec.count(), 1u);
  EXPECT_DOUBLE_EQ(rec.results()[0].slowdown, 2.5);
}

TEST(FctRecorderTest, BucketsBySizeEdge) {
  FctRecorder rec;
  auto add = [&rec](std::uint64_t size, double slowdown) {
    FlowSpec spec;
    spec.size_bytes = size;
    spec.ideal_fct = 100;
    rec.Record(spec, static_cast<Time>(100 * slowdown));
  };
  add(5'000, 2.0);
  add(9'000, 4.0);
  add(15'000, 8.0);
  add(1'000'000'000, 16.0);  // beyond last edge: lands in last bucket
  const auto buckets = rec.Bucketed({10'000, 20'000, 30'000});
  ASSERT_EQ(buckets.size(), 3u);
  EXPECT_EQ(buckets[0].count, 2u);
  EXPECT_NEAR(buckets[0].avg, 3.0, 1e-9);
  EXPECT_EQ(buckets[1].count, 1u);
  EXPECT_EQ(buckets[2].count, 1u);
  EXPECT_NEAR(buckets[2].p99, 16.0, 1e-9);
}

TEST(FctRecorderTest, OverRangeFiltersBySize) {
  FctRecorder rec;
  for (std::uint64_t s : {500u, 1500u, 2500u, 3500u}) {
    FlowSpec spec;
    spec.size_bytes = s;
    spec.ideal_fct = 100;
    rec.Record(spec, 200);
  }
  EXPECT_EQ(rec.OverRange(1000, 3000).count, 2u);
  EXPECT_EQ(rec.OverRange(0, 10'000).count, 4u);
}

TEST(FctRecorderTest, PaperBucketEdges) {
  EXPECT_EQ(WebSearchBucketEdges().size(), 11u);
  EXPECT_EQ(WebSearchBucketEdges().front(), 10'000u);
  EXPECT_EQ(WebSearchBucketEdges().back(), 30'000'000u);
  EXPECT_EQ(HadoopBucketEdges().size(), 13u);
  EXPECT_EQ(HadoopBucketEdges().front(), 75u);
  EXPECT_EQ(HadoopBucketEdges().back(), 1'000'000u);
}

}  // namespace
}  // namespace fncc
