#include "cc/dcqcn.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "../test_util.hpp"

namespace fncc {
namespace {

CcConfig Config() {
  CcConfig c;
  c.mode = CcMode::kDcqcn;
  c.line_rate_gbps = 100.0;
  c.base_rtt = Microseconds(12);
  return ResolveCcConfig(c);
}

const CcConfig kConfig = Config();

TEST(DcqcnTest, StartsAtLineRateNoWindow) {
  Simulator sim;
  test::CcWithTimers<DcqcnAlgorithm> timed(kConfig, &sim);
  DcqcnAlgorithm& cc = *timed;
  EXPECT_DOUBLE_EQ(cc.rate_gbps(), 100.0);
  EXPECT_FALSE(cc.uses_window());
  cc.Shutdown();
}

TEST(DcqcnTest, FirstCnpHalvesRate) {
  Simulator sim;
  test::CcWithTimers<DcqcnAlgorithm> timed(kConfig, &sim);
  DcqcnAlgorithm& cc = *timed;
  cc.OnCnp();  // alpha = 1 initially: Rc *= (1 - 1/2)
  EXPECT_NEAR(cc.rate_gbps(), 50.0, 1e-9);
  EXPECT_NEAR(cc.target_rate_gbps(), 100.0, 1e-9);
  cc.Shutdown();
}

TEST(DcqcnTest, RepeatedCnpsKeepCuttingButRespectFloor) {
  Simulator sim;
  test::CcWithTimers<DcqcnAlgorithm> timed(kConfig, &sim);
  DcqcnAlgorithm& cc = *timed;
  for (int i = 0; i < 50; ++i) cc.OnCnp();
  EXPECT_GE(cc.rate_gbps(), Config().dcqcn.min_rate_gbps - 1e-12);
  EXPECT_LT(cc.rate_gbps(), 1.0);
  cc.Shutdown();
}

TEST(DcqcnTest, AlphaDecaysWithoutCnps) {
  Simulator sim;
  test::CcWithTimers<DcqcnAlgorithm> timed(kConfig, &sim);
  DcqcnAlgorithm& cc = *timed;
  cc.OnCnp();
  const double alpha_after_cnp = cc.alpha();
  EXPECT_GT(alpha_after_cnp, 0.9);
  // g = 1/256 decays alpha by a factor (1-g) every 55 us: slow by design.
  sim.RunUntil(Milliseconds(1));
  const double after_1ms = cc.alpha();
  EXPECT_LT(after_1ms, alpha_after_cnp);
  sim.RunUntil(Milliseconds(50));
  EXPECT_LT(cc.alpha(), 0.1);
  cc.Shutdown();
}

TEST(DcqcnTest, FastRecoveryHalvesGapToTarget) {
  Simulator sim;
  test::CcWithTimers<DcqcnAlgorithm> timed(kConfig, &sim);
  DcqcnAlgorithm& cc = *timed;
  cc.OnCnp();  // Rc = 50, Rt = 100
  // First increase-timer tick: still in fast recovery (stage < 5).
  sim.RunUntil(Microseconds(56));
  EXPECT_NEAR(cc.rate_gbps(), 75.0, 1.0);
  sim.RunUntil(Microseconds(111));
  EXPECT_NEAR(cc.rate_gbps(), 87.5, 1.0);
  cc.Shutdown();
}

TEST(DcqcnTest, RecoversToLineRateAfterSingleCnp) {
  Simulator sim;
  test::CcWithTimers<DcqcnAlgorithm> timed(kConfig, &sim);
  DcqcnAlgorithm& cc = *timed;
  cc.OnCnp();  // Rc = 50, Rt = 100
  // Five fast-recovery ticks close most of the gap; AI finishes the job.
  sim.RunUntil(Milliseconds(2));
  EXPECT_NEAR(cc.rate_gbps(), 100.0, 2.0);
  cc.Shutdown();
}

TEST(DcqcnTest, RecoveryFromDeepCutsIsSlow) {
  // The paper's §5.1 observation ("when using DCQCN, the two flows are
  // slow to recover"): after repeated CNPs the additive phase needs tens
  // of milliseconds without byte-counter help.
  Simulator sim;
  test::CcWithTimers<DcqcnAlgorithm> timed(kConfig, &sim);
  DcqcnAlgorithm& cc = *timed;
  for (int i = 0; i < 5; ++i) cc.OnCnp();
  sim.RunUntil(Milliseconds(5));
  EXPECT_LT(cc.rate_gbps(), 50.0);  // still far from line rate
  sim.RunUntil(Milliseconds(80));
  EXPECT_GT(cc.rate_gbps(), 90.0);  // but it does get there eventually
  cc.Shutdown();
}

TEST(DcqcnTest, ByteCounterDrivesIncreaseWithoutTimer) {
  Simulator sim;
  test::CcWithTimers<DcqcnAlgorithm> timed(kConfig, &sim);
  DcqcnAlgorithm& cc = *timed;
  cc.OnCnp();  // Rc = 50, Rt = 100
  const double before = cc.rate_gbps();
  cc.OnBytesSent(Config().dcqcn.byte_counter);  // one byte-stage
  EXPECT_GT(cc.rate_gbps(), before);
  EXPECT_EQ(cc.byte_stage(), 1);
  EXPECT_EQ(cc.timer_stage(), 0);
  cc.Shutdown();
}

TEST(DcqcnTest, CnpResetsIncreaseStages) {
  Simulator sim;
  test::CcWithTimers<DcqcnAlgorithm> timed(kConfig, &sim);
  DcqcnAlgorithm& cc = *timed;
  cc.OnBytesSent(3 * Config().dcqcn.byte_counter);
  EXPECT_EQ(cc.byte_stage(), 3);
  cc.OnCnp();
  EXPECT_EQ(cc.byte_stage(), 0);
  EXPECT_EQ(cc.timer_stage(), 0);
  cc.Shutdown();
}

TEST(DcqcnTest, HyperIncreaseAfterBothStagesExceedThreshold) {
  Simulator sim;
  CcConfig config = Config();
  config.dcqcn.rate_ai_fraction = 0.001;   // 0.1 Gbps steps
  config.dcqcn.rate_hai_fraction = 0.01;   // 1 Gbps steps
  test::CcWithTimers<DcqcnAlgorithm> timed(config, &sim);
  DcqcnAlgorithm& cc = *timed;
  cc.OnCnp();
  cc.OnCnp();  // push Rc and Rt down so increases are visible
  // Drive both counters past the fast-recovery threshold.
  for (int i = 0; i < 6; ++i) {
    cc.OnBytesSent(config.dcqcn.byte_counter);
  }
  sim.RunUntil(Microseconds(6 * 55 + 10));
  const double rt_before = cc.target_rate_gbps();
  cc.OnBytesSent(config.dcqcn.byte_counter);  // hyper increase now
  EXPECT_NEAR(cc.target_rate_gbps() - rt_before, 1.0, 1e-6);
  cc.Shutdown();
}

TEST(DcqcnTest, ShutdownStopsTimers) {
  // Shutdown disarms both timers: their pending carriers pop once, do
  // nothing and re-file nothing, so the run terminates with alpha frozen.
  Simulator sim;
  test::CcWithTimers<DcqcnAlgorithm> timed(kConfig, &sim);
  DcqcnAlgorithm& cc = *timed;
  cc.Start();
  cc.OnCnp();
  const double alpha = cc.alpha();
  cc.Shutdown();
  sim.Run();  // must terminate: no self-rescheduling timers left
  EXPECT_EQ(cc.alpha(), alpha);
  EXPECT_EQ(cc.timer_stage(), 0);
  EXPECT_EQ(sim.events_processed(), 2u) << "one inert carrier per timer";

  // The algorithm destroyed with armed timers (as FlowTable::Release
  // destroys a QP): its carriers no longer resolve and are inert.
  test::CcWithTimers<DcqcnAlgorithm> doomed(kConfig, &sim);
  doomed->Start();
  doomed.Destroy();
  sim.Run();
  EXPECT_EQ(sim.events_processed(), 4u);
}

TEST(DcqcnTest, RejectsARouteWithoutCarrierFunction) {
  // No DCQCN exists whose timers have nowhere to go.
  Simulator sim;
  EXPECT_THROW(DcqcnAlgorithm(kConfig, &sim, TimerRoute{}),
               std::invalid_argument);
}

TEST(DcqcnTest, NotifiesQpAfterTimerIncrease) {
  Simulator sim;
  test::CcWithTimers<DcqcnAlgorithm> timed(kConfig, &sim);
  DcqcnAlgorithm& cc = *timed;
  int updates = 0;
  cc.BindUpdateHook([](void* n) { ++*static_cast<int*>(n); }, &updates);
  cc.OnCnp();
  sim.RunUntil(Microseconds(120));
  EXPECT_GE(updates, 2);
  cc.Shutdown();
}

}  // namespace
}  // namespace fncc
