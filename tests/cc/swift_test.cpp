#include "cc/swift.hpp"

#include <gtest/gtest.h>

#include "../test_util.hpp"

namespace fncc {
namespace {

CcConfig Config() {
  CcConfig c;
  c.mode = CcMode::kSwift;
  c.line_rate_gbps = 100.0;
  c.base_rtt = Microseconds(12);
  return ResolveCcConfig(c);
}

const CcConfig kConfig = Config();

PacketPtr AckWithDelay(Simulator& sim, Time delay) {
  PacketPtr ack = test::MakeAck(sim.packet_pool(), 1, 0);
  ack->t_sent = sim.Now() - delay;
  return ack;
}

TEST(SwiftTest, TargetDelayDerivedFromBaseRtt) {
  Simulator sim;
  SwiftAlgorithm cc(kConfig, &sim);
  EXPECT_EQ(cc.target_delay(), Microseconds(15));  // 1.25 * 12 us
  EXPECT_TRUE(cc.uses_window());
}

TEST(SwiftTest, BelowTargetGrowsWindow) {
  Simulator sim;
  SwiftAlgorithm cc(kConfig, &sim);
  // Start from a decreased window so growth is visible under the cap.
  sim.RunUntil(Microseconds(100));
  cc.OnAck(*AckWithDelay(sim, Microseconds(60)), 0);
  const double crushed = cc.window_bytes();
  sim.RunUntil(Microseconds(200));
  cc.OnAck(*AckWithDelay(sim, Microseconds(10)), 0);
  EXPECT_GT(cc.window_bytes(), crushed);
}

TEST(SwiftTest, AboveTargetDecreasesOncePerRtt) {
  Simulator sim;
  SwiftAlgorithm cc(kConfig, &sim);
  sim.RunUntil(Microseconds(100));
  cc.OnAck(*AckWithDelay(sim, Microseconds(30)), 0);
  EXPECT_EQ(cc.decreases(), 1u);
  // Immediately after (same RTT): no second cut.
  cc.OnAck(*AckWithDelay(sim, Microseconds(30)), 0);
  EXPECT_EQ(cc.decreases(), 1u);
  // One base RTT later: allowed again.
  sim.RunUntil(Microseconds(100) + Microseconds(13));
  cc.OnAck(*AckWithDelay(sim, Microseconds(30)), 0);
  EXPECT_EQ(cc.decreases(), 2u);
}

TEST(SwiftTest, DecreaseBoundedByMaxMdf) {
  Simulator sim;
  SwiftAlgorithm cc(kConfig, &sim);
  const double before = cc.window_bytes();
  sim.RunUntil(Milliseconds(10));
  cc.OnAck(*AckWithDelay(sim, Milliseconds(5)), 0);  // enormous overshoot
  EXPECT_GE(cc.window_bytes(), before * 0.5 - 1e-9);
}

TEST(SwiftTest, MissingTimestampIgnored) {
  Simulator sim;
  SwiftAlgorithm cc(kConfig, &sim);
  const double before = cc.window_bytes();
  PacketPtr ack = test::MakeAck(sim.packet_pool(), 1, 0);
  cc.OnAck(*ack, 0);
  EXPECT_DOUBLE_EQ(cc.window_bytes(), before);
}

TEST(SwiftTest, RateTracksWindow) {
  Simulator sim;
  SwiftAlgorithm cc(kConfig, &sim);
  sim.RunUntil(Microseconds(50));
  cc.OnAck(*AckWithDelay(sim, Microseconds(40)), 0);
  const double expected =
      cc.window_bytes() * 8.0 / (ToSeconds(Microseconds(12)) * 1e9);
  EXPECT_NEAR(cc.rate_gbps(), std::min(100.0, expected), 1e-9);
}

}  // namespace
}  // namespace fncc
