#include <gtest/gtest.h>

#include "harness/experiment_runner.hpp"
#include "harness/scenario.hpp"

namespace fncc {
namespace {

TEST(ScenarioConfigTest, SwitchFeaturesFollowCcMode) {
  ScenarioConfig sc;
  sc.mode = CcMode::kFncc;
  SwitchConfig fncc = MakeSwitchConfig(sc);
  EXPECT_TRUE(fncc.stamp_ack_int);
  EXPECT_FALSE(fncc.stamp_data_int);
  EXPECT_FALSE(fncc.ecn_enabled);
  EXPECT_FALSE(fncc.rocc_enabled);

  sc.mode = CcMode::kHpcc;
  SwitchConfig hpcc = MakeSwitchConfig(sc);
  EXPECT_TRUE(hpcc.stamp_data_int);
  EXPECT_FALSE(hpcc.stamp_ack_int);

  sc.mode = CcMode::kDcqcn;
  SwitchConfig dcqcn = MakeSwitchConfig(sc);
  EXPECT_TRUE(dcqcn.ecn_enabled);
  EXPECT_FALSE(dcqcn.stamp_data_int);

  sc.mode = CcMode::kRocc;
  EXPECT_TRUE(MakeSwitchConfig(sc).rocc_enabled);

  sc.mode = CcMode::kSwift;
  SwitchConfig swift = MakeSwitchConfig(sc);
  EXPECT_FALSE(swift.stamp_data_int || swift.stamp_ack_int ||
               swift.ecn_enabled || swift.rocc_enabled);
}

TEST(ScenarioConfigTest, EcnThresholdsScaleWithLineRate) {
  ScenarioConfig sc;
  sc.mode = CcMode::kDcqcn;
  sc.link_gbps = 400.0;
  const SwitchConfig config = MakeSwitchConfig(sc);
  EXPECT_EQ(config.ecn_kmin_bytes, 400'000u);
  EXPECT_EQ(config.ecn_kmax_bytes, 1'600'000u);
}

TEST(ScenarioConfigTest, PfcThresholdsForwarded) {
  ScenarioConfig sc;
  sc.pfc_xoff_bytes = 123'456;
  sc.pfc_xon_bytes = 60'000;
  const SwitchConfig config = MakeSwitchConfig(sc);
  EXPECT_EQ(config.pfc_xoff_bytes, 123'456u);
  EXPECT_EQ(config.pfc_xon_bytes, 60'000u);
}

TEST(ScenarioConfigTest, OnlyHpccEchoesIntFromReceiver) {
  ScenarioConfig sc;
  sc.mode = CcMode::kHpcc;
  EXPECT_TRUE(MakeHostConfig(sc).attach_int_to_ack);
  sc.mode = CcMode::kFncc;
  EXPECT_FALSE(MakeHostConfig(sc).attach_int_to_ack);
  sc.mode = CcMode::kDcqcn;
  EXPECT_FALSE(MakeHostConfig(sc).attach_int_to_ack);
}

TEST(ScenarioConfigTest, CcKnobsForwarded) {
  ScenarioConfig sc;
  sc.eta = 0.9;
  sc.max_stage = 3;
  sc.lhcs_alpha = 1.2;
  sc.lhcs_beta = 0.7;
  sc.wai_bytes = 4242;
  const CcConfig cc = MakeCcConfig(sc, 200.0, Microseconds(10));
  EXPECT_DOUBLE_EQ(cc.eta, 0.9);
  EXPECT_EQ(cc.max_stage, 3);
  EXPECT_DOUBLE_EQ(cc.lhcs_alpha, 1.2);
  EXPECT_DOUBLE_EQ(cc.lhcs_beta, 0.7);
  EXPECT_DOUBLE_EQ(cc.wai_bytes, 4242);
  EXPECT_DOUBLE_EQ(cc.line_rate_gbps, 200.0);
  EXPECT_EQ(cc.base_rtt, Microseconds(10));
}

TEST(IdealFctTest, SinglePacketFlowIsBaseRtt) {
  ScenarioConfig sc;
  Simulator sim;
  Rng rng(1);
  auto topo = BuildDumbbell(&sim, MakeHostFactory(sc), MakeSwitchConfig(sc),
                            &rng, 2, 3, sc.link());
  FlowSpec spec;
  spec.src = topo.senders[0];
  spec.dst = topo.receiver;
  spec.sport = 7;
  spec.dport = 8;
  spec.size_bytes = 1000;  // one segment
  const Time ideal = IdealFct(topo.net, spec, sc);
  const Time rtt = topo.net.BaseRtt(spec.src, spec.dst, 7, 8, 1000, kAckBytes);
  EXPECT_EQ(ideal, rtt);
}

TEST(IdealFctTest, LargeFlowAddsLineRateSerialization) {
  ScenarioConfig sc;
  Simulator sim;
  Rng rng(1);
  auto topo = BuildDumbbell(&sim, MakeHostFactory(sc), MakeSwitchConfig(sc),
                            &rng, 2, 3, sc.link());
  FlowSpec spec;
  spec.src = topo.senders[0];
  spec.dst = topo.receiver;
  spec.sport = 7;
  spec.dport = 8;
  spec.size_bytes = 10 * 1518;
  const Time ideal = IdealFct(topo.net, spec, sc);
  const Time rtt =
      topo.net.BaseRtt(spec.src, spec.dst, 7, 8, 1518, kAckBytes);
  EXPECT_EQ(ideal, rtt + SerializationDelay(9 * 1518, 100.0));
}

TEST(RunnerTest, MonitorsProduceExpectedSampleCounts) {
  ExperimentSpec spec;
  spec.wl.long_flows = {{0, 0}};
  spec.run.duration = Microseconds(100);
  spec.run.queue_sample_interval = Microseconds(10);
  const ExperimentPointResult r = RunExperimentPoint(spec);
  // One sample every 10 us over 100 us (first at t=10).
  EXPECT_EQ(r.queue_bytes.size(), 10u);
  ASSERT_EQ(r.flows.size(), 1u);
  EXPECT_GT(r.flows[0].pacing_gbps.size(), 0u);
}

TEST(RunnerTest, AutoFlowBudgetOutlastsDuration) {
  // A single elephant at line rate must not run out of bytes mid-run.
  ExperimentSpec spec;
  spec.wl.long_flows = {{0, 0}};
  spec.run.duration = Microseconds(500);
  const ExperimentPointResult r = RunExperimentPoint(spec);
  const double final_rate = r.flows[0].goodput_gbps.MeanOver(
      Microseconds(400), Microseconds(500));
  EXPECT_GT(final_rate, 80.0);  // still sending at the end
}

TEST(RunnerTest, StopAbortsFlowMidRun) {
  ExperimentSpec spec;
  spec.wl.long_flows = {{0, 0, Microseconds(200)}};
  spec.run.duration = Microseconds(400);
  const ExperimentPointResult r = RunExperimentPoint(spec);
  EXPECT_GT(r.flows[0].goodput_gbps.MeanOver(Microseconds(100),
                                             Microseconds(200)),
            50.0);
  EXPECT_LT(r.flows[0].goodput_gbps.MeanOver(Microseconds(260),
                                             Microseconds(400)),
            1.0);
}

}  // namespace
}  // namespace fncc
