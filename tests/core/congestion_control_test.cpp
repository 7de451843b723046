// CongestionControl: the per-mode contract of the one CC type every flow
// holds — name, window use, initial rate and window, hot-word binding, and
// which modes react to CNPs, count LHCS triggers or call the update hook.
#include "core/congestion_control.hpp"

#include <gtest/gtest.h>

#include <string>

#include "../test_util.hpp"

namespace fncc {
namespace {

constexpr double kBdp = 150'000.0;  // 100 Gbps x 12 us

struct ModeCase {
  CcMode mode;
  const char* name;
  bool window;
};

class CongestionControlTest : public ::testing::TestWithParam<ModeCase> {
 protected:
  CongestionControlTest() {
    CcConfig c;
    c.mode = GetParam().mode;
    c.line_rate_gbps = 100.0;
    c.base_rtt = Microseconds(12);
    config_ = ResolveCcConfig(c);
  }

  Simulator sim_;
  CcConfig config_;
};

TEST_P(CongestionControlTest, StartsAtLineRateWithModeNameAndWindow) {
  CongestionControl cc(config_, &sim_);
  EXPECT_EQ(cc.mode(), GetParam().mode);
  EXPECT_STREQ(CcModeName(cc.mode()), GetParam().name);
  EXPECT_EQ(cc.uses_window(), GetParam().window);
  EXPECT_DOUBLE_EQ(cc.rate_gbps(), 100.0);
  EXPECT_NEAR(cc.window_bytes(), GetParam().window ? kBdp : 0.0, 1e-6);
  EXPECT_EQ(&cc.config(), &config_);
  cc.Shutdown();
}

TEST_P(CongestionControlTest, BindHotWordsRelocatesRateAndWindow) {
  CongestionControl cc(config_, &sim_);
  CcHotWords row;
  cc.BindHotWords(&row);
  EXPECT_DOUBLE_EQ(row.rate_gbps, 100.0);
  row.rate_gbps = 42.0;
  row.window_bytes = 7.0;
  EXPECT_DOUBLE_EQ(cc.rate_gbps(), 42.0);
  EXPECT_DOUBLE_EQ(cc.window_bytes(), 7.0);
  cc.Shutdown();
}

TEST_P(CongestionControlTest, OnlyFnccCountsLhcsTriggers) {
  // Last request hop holds 2 BDP of queue, the first hop none, N = 4 (the
  // FnccLhcsTest scenario): FNCC snaps to the fair share once; every other
  // mode — the no-LHCS ablation included — reports 0.
  CongestionControl cc(config_, &sim_);
  const auto ack = [this](std::uint64_t seq, Time ts, std::uint64_t tx) {
    PacketPtr p = test::MakeAck(sim_.packet_pool(), 1, 0);
    p->seq = seq;
    p->int_reversed = true;
    p->concurrent_flows = 4;
    p->PushInt(IntEntry{100.0, ts, tx, 300'000});  // last hop
    p->PushInt(IntEntry{100.0, ts, tx, 0});        // first hop
    return p;
  };
  cc.OnAck(*ack(1, Microseconds(1), 0), 1);
  cc.OnAck(*ack(2000, Microseconds(13), 150'000), 2000);
  EXPECT_EQ(cc.lhcs_triggers(), GetParam().mode == CcMode::kFncc ? 1u : 0u);
  cc.Shutdown();
}

TEST_P(CongestionControlTest, OnlyDcqcnReactsToCnpAndCallsUpdateHook) {
  CongestionControl cc(config_, &sim_);
  int updates = 0;
  cc.BindUpdateHook([](void* n) { ++*static_cast<int*>(n); }, &updates);
  cc.OnCnp();
  const bool dcqcn = GetParam().mode == CcMode::kDcqcn;
  EXPECT_DOUBLE_EQ(cc.rate_gbps(), dcqcn ? 50.0 : 100.0);
  sim_.RunUntil(Microseconds(120));
  if (dcqcn) {
    EXPECT_GE(updates, 2);
  } else {
    EXPECT_EQ(updates, 0);
  }
  cc.Shutdown();
}

INSTANTIATE_TEST_SUITE_P(
    AllModes, CongestionControlTest,
    ::testing::Values(ModeCase{CcMode::kFncc, "FNCC", true},
                      ModeCase{CcMode::kFnccNoLhcs, "FNCC-noLHCS", true},
                      ModeCase{CcMode::kHpcc, "HPCC", true},
                      ModeCase{CcMode::kDcqcn, "DCQCN", false},
                      ModeCase{CcMode::kRocc, "RoCC", false},
                      ModeCase{CcMode::kTimely, "Timely", false},
                      ModeCase{CcMode::kSwift, "Swift", true}),
    [](const ::testing::TestParamInfo<ModeCase>& info) {
      std::string name = info.param.name;
      std::erase(name, '-');
      return name;
    });

}  // namespace
}  // namespace fncc
