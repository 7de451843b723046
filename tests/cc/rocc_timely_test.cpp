#include <gtest/gtest.h>

#include "../test_util.hpp"
#include "cc/rocc.hpp"
#include "cc/timely.hpp"

namespace fncc {
namespace {

CcConfig Config(CcMode mode) {
  CcConfig c;
  c.mode = mode;
  c.line_rate_gbps = 100.0;
  c.base_rtt = Microseconds(12);
  return ResolveCcConfig(c);
}

const CcConfig kRoccConfig = Config(CcMode::kRocc);
const CcConfig kTimelyConfig = Config(CcMode::kTimely);

PacketPtr RoccAck(double fair_gbps) {
  PacketPtr ack = test::MakeAck(1, 0);
  ack->rocc_rate_gbps = fair_gbps;
  return ack;
}

TEST(RoccTest, AdoptsAdvertisedFairRate) {
  Simulator sim;
  RoccAlgorithm cc(kRoccConfig, &sim);
  EXPECT_DOUBLE_EQ(cc.rate_gbps(), 100.0);
  cc.OnAck(*RoccAck(37.5), 0);
  EXPECT_DOUBLE_EQ(cc.rate_gbps(), 37.5);
}

TEST(RoccTest, FeedbackCappedAtLineRate) {
  Simulator sim;
  RoccAlgorithm cc(kRoccConfig, &sim);
  cc.OnAck(*RoccAck(500.0), 0);
  EXPECT_DOUBLE_EQ(cc.rate_gbps(), 100.0);
}

TEST(RoccTest, ProbesUpwardAfterFeedbackSilence) {
  Simulator sim;
  RoccAlgorithm cc(kRoccConfig, &sim);
  cc.OnAck(*RoccAck(20.0), 0);
  ASSERT_DOUBLE_EQ(cc.rate_gbps(), 20.0);
  // ACKs with no feedback inside the hold window: rate must not move.
  sim.RunUntil(Microseconds(50));
  cc.OnAck(*test::MakeAck(1, 0), 0);
  EXPECT_DOUBLE_EQ(cc.rate_gbps(), 20.0);
  // Past the hold window: additive probing.
  sim.RunUntil(Microseconds(200));
  cc.OnAck(*test::MakeAck(1, 0), 0);
  EXPECT_GT(cc.rate_gbps(), 20.0);
}

PacketPtr TimelyAck(Time t_sent) {
  PacketPtr ack = test::MakeAck(1, 0);
  ack->t_sent = t_sent;
  return ack;
}

TEST(TimelyTest, AutoScalesThresholdsFromBaseRtt) {
  Simulator sim;
  TimelyAlgorithm cc(kTimelyConfig, &sim);
  EXPECT_EQ(cc.config().timely.min_rtt, Microseconds(12));
  EXPECT_EQ(cc.config().timely.t_low, Microseconds(18));
  EXPECT_EQ(cc.config().timely.t_high, Microseconds(60));
}

TEST(TimelyTest, LowRttIncreasesRate) {
  Simulator sim;
  TimelyAlgorithm cc(kTimelyConfig, &sim);
  // Walk the clock; each ACK shows RTT = 13 us (< t_low).
  for (int i = 1; i <= 5; ++i) {
    sim.RunUntil(Microseconds(20 * i));
    cc.OnAck(*TimelyAck(sim.Now() - Microseconds(13)), 0);
  }
  EXPECT_DOUBLE_EQ(cc.rate_gbps(), 100.0);  // capped at line
}

TEST(TimelyTest, HighRttCutsMultiplicatively) {
  Simulator sim;
  TimelyAlgorithm cc(kTimelyConfig, &sim);
  sim.RunUntil(Microseconds(100));
  cc.OnAck(*TimelyAck(sim.Now() - Microseconds(13)), 0);  // bootstrap prev
  sim.RunUntil(Microseconds(200));
  cc.OnAck(*TimelyAck(sim.Now() - Microseconds(120)), 0);  // >> t_high
  EXPECT_LT(cc.rate_gbps(), 100.0);
}

TEST(TimelyTest, PositiveGradientDecreases) {
  Simulator sim;
  TimelyAlgorithm cc(kTimelyConfig, &sim);
  // RTTs rising within [t_low, t_high]: gradient > 0 -> decrease.
  Time rtt = Microseconds(20);
  for (int i = 1; i <= 8; ++i) {
    sim.RunUntil(Microseconds(100 * i));
    cc.OnAck(*TimelyAck(sim.Now() - rtt), 0);
    rtt += Microseconds(4);
  }
  EXPECT_LT(cc.rate_gbps(), 100.0);
  EXPECT_GT(cc.normalized_gradient(), 0.0);
}

TEST(TimelyTest, RateNeverBelowFloor) {
  Simulator sim;
  TimelyAlgorithm cc(kTimelyConfig, &sim);
  for (int i = 1; i <= 100; ++i) {
    sim.RunUntil(Microseconds(100 * i));
    cc.OnAck(*TimelyAck(sim.Now() - Microseconds(300)), 0);
  }
  EXPECT_GE(cc.rate_gbps(), cc.config().timely.min_rate_gbps - 1e-12);
}

}  // namespace
}  // namespace fncc
