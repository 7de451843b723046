#include "core/fncc.hpp"

#include <gtest/gtest.h>

#include "../test_util.hpp"

namespace fncc {
namespace {

constexpr double kLine = 100.0;
constexpr Time kRtt = Microseconds(12);
constexpr double kBdp = 150'000.0;

CcConfig Config() {
  CcConfig c;
  c.mode = CcMode::kFncc;
  c.line_rate_gbps = kLine;
  c.base_rtt = kRtt;
  return ResolveCcConfig(c);
}

const CcConfig kConfig = Config();

// The packets of these sender-side tests: every test returns what it takes.
PacketPool pool;

/// FNCC-style ACK: INT accumulated on the return path (reversed order,
/// stack[0] = last request hop) plus the receiver's N.
PacketPtr FnccAck(std::uint64_t seq, Time ts, std::uint64_t tx,
                  std::uint64_t qlen_last, std::uint64_t qlen_first,
                  std::uint16_t n) {
  PacketPtr ack = test::MakeAck(pool, 1, 0);
  ack->seq = seq;
  ack->int_reversed = true;
  ack->concurrent_flows = n;
  ack->PushInt(IntEntry{kLine, ts, tx, qlen_last});   // last hop
  ack->PushInt(IntEntry{kLine, ts, tx, qlen_first});  // first hop
  return ack;
}

class FnccLhcsTest : public ::testing::Test {
 protected:
  /// Bootstraps prev-L and delivers one measurable ACK with the given
  /// queue profile.
  void Drive(FnccAlgorithm& cc, std::uint64_t qlen_last,
             std::uint64_t qlen_first, std::uint16_t n) {
    cc.OnAck(*FnccAck(1, Microseconds(1), 0, qlen_last, qlen_first, n), 1);
    cc.OnAck(*FnccAck(2000, Microseconds(13), 150'000, qlen_last, qlen_first,
                      n),
             2000);
  }
};

TEST_F(FnccLhcsTest, LastHopCongestionSnapsToFairShare) {
  FnccAlgorithm cc(kConfig);
  // Last hop holds 2 BDP of queue, first hop empty, N = 4 flows.
  Drive(cc, 300'000, 0, 4);
  EXPECT_EQ(cc.lhcs_triggers(), 1u);
  // Wc was set to B*T*beta/N = 150 KB * 0.9 / 4 = 33.75 KB before the
  // regular window computation used it.
  const double fair = kBdp * 0.9 / 4.0;
  EXPECT_NEAR(cc.reference_window(), fair, 1.0);
}

TEST_F(FnccLhcsTest, FirstHopCongestionDoesNotTrigger) {
  FnccAlgorithm cc(kConfig);
  Drive(cc, 0, 300'000, 4);
  EXPECT_EQ(cc.lhcs_triggers(), 0u);
}

TEST_F(FnccLhcsTest, BelowAlphaDoesNotTrigger) {
  FnccAlgorithm cc(kConfig);
  // U at the last hop ~ 1.0 (full utilization, tiny queue): below 1.05.
  Drive(cc, 1'000, 0, 4);
  EXPECT_EQ(cc.lhcs_triggers(), 0u);
}

TEST_F(FnccLhcsTest, MissingNDisablesSpeedup) {
  FnccAlgorithm cc(kConfig);
  Drive(cc, 300'000, 0, /*n=*/0);
  EXPECT_EQ(cc.lhcs_triggers(), 0u);
}

TEST_F(FnccLhcsTest, DisabledVariantNeverTriggers) {
  FnccAlgorithm cc(kConfig, /*enable_lhcs=*/false);
  Drive(cc, 300'000, 0, 4);
  EXPECT_EQ(cc.lhcs_triggers(), 0u);
  EXPECT_FALSE(cc.lhcs_enabled());
}

TEST_F(FnccLhcsTest, FairShareScalesInverselyWithN) {
  FnccAlgorithm cc2(kConfig);
  Drive(cc2, 300'000, 0, 2);
  FnccAlgorithm cc8(kConfig);
  Drive(cc8, 300'000, 0, 8);
  EXPECT_NEAR(cc2.reference_window() / cc8.reference_window(), 4.0, 0.01);
}

TEST_F(FnccLhcsTest, BetaDrainsQueueBelowExactFairShare) {
  CcConfig config = Config();
  config.lhcs_beta = 0.8;
  FnccAlgorithm cc(config);
  Drive(cc, 300'000, 0, 2);
  EXPECT_NEAR(cc.reference_window(), kBdp * 0.8 / 2.0, 1.0);
}

TEST_F(FnccLhcsTest, EqualCongestionEverywherePrefersEarlierHop) {
  // Hop detection keeps the *first* maximal hop (strict >), so equal
  // congestion on both hops does not count as last-hop congestion.
  FnccAlgorithm cc(kConfig);
  Drive(cc, 300'000, 300'000, 4);
  EXPECT_EQ(cc.lhcs_triggers(), 0u);
}

TEST(FnccTest, ReversedIntViewMapsHopsCorrectly) {
  PacketPtr ack = test::MakeAck(pool, 1, 0);
  ack->int_reversed = true;
  ack->PushInt(IntEntry{100.0, 1, 10, 111});  // last request hop
  ack->PushInt(IntEntry{100.0, 2, 20, 222});
  ack->PushInt(IntEntry{100.0, 3, 30, 333});  // first request hop
  const IntView view(*ack);
  EXPECT_EQ(view.hops(), 3u);
  EXPECT_EQ(view.hop(0).qlen_bytes, 333u);  // first hop from sender
  EXPECT_EQ(view.hop(2).qlen_bytes, 111u);  // last hop
  EXPECT_EQ(view.last_hop_index(), 2u);
}

TEST(FnccTest, ForwardIntViewIsIdentity) {
  PacketPtr ack = test::MakeAck(pool, 1, 0);
  ack->PushInt(IntEntry{100.0, 1, 10, 111});
  ack->PushInt(IntEntry{100.0, 2, 20, 222});
  const IntView view(*ack);
  EXPECT_EQ(view.hop(0).qlen_bytes, 111u);
  EXPECT_EQ(view.hop(1).qlen_bytes, 222u);
}

TEST(FnccTest, InheritsHpccControlWhenNoLastHopCongestion) {
  // With first-hop congestion only, FNCC must behave exactly like HPCC on
  // the same telemetry (its fast-notification advantage comes from the
  // switch, not the sender math).
  FnccAlgorithm fncc(kConfig);
  CcConfig hpcc_config = Config();
  hpcc_config.mode = CcMode::kHpcc;
  HpccAlgorithm hpcc(hpcc_config);

  for (int i = 1; i <= 10; ++i) {
    const Time ts = Microseconds(1 + 12 * i);
    const std::uint64_t tx = 150'000ULL * i;
    // FNCC sees reversed order; HPCC sees request order — same telemetry.
    auto fncc_ack = FnccAck(i * 1000, ts, tx, 0, 200'000, 2);
    PacketPtr hpcc_ack = test::MakeAck(pool, 1, 0);
    hpcc_ack->seq = i * 1000;
    hpcc_ack->PushInt(IntEntry{kLine, ts, tx, 200'000});
    hpcc_ack->PushInt(IntEntry{kLine, ts, tx, 0});
    fncc.OnAck(*fncc_ack, i * 1000);
    hpcc.OnAck(*hpcc_ack, i * 1000);
  }
  EXPECT_NEAR(fncc.window_bytes(), hpcc.window_bytes(), 1e-6);
  EXPECT_EQ(fncc.lhcs_triggers(), 0u);
}

}  // namespace
}  // namespace fncc
