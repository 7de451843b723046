// End-to-end behaviour on the paper's scenarios, scaled for CI speed.
#include <gtest/gtest.h>

#include "harness/experiment_runner.hpp"
#include "stats/percentile.hpp"

namespace fncc {
namespace {

ExperimentSpec TwoElephants(CcMode mode, double gbps = 100.0) {
  ExperimentSpec spec;
  spec.scenario.mode = mode;
  spec.scenario.link_gbps = gbps;
  spec.wl.long_flows = {{0, 0}, {1, Microseconds(300)}};
  spec.run.duration = Microseconds(800);
  return spec;
}

/// The same two elephants on the Fig. 11 3-switch chain, merging at
/// `merge_switch` (0 = first hop, 2 = last hop).
ExperimentSpec ChainMerge(CcMode mode, int merge_switch) {
  ExperimentSpec spec = TwoElephants(mode);
  spec.topology = "chain_merge";
  spec.topo.num_switches = 3;
  spec.topo.merge_switch = merge_switch;
  return spec;
}

TEST(DumbbellIntegrationTest, FnccConvergesToFairShare) {
  const auto r = RunExperimentPoint(TwoElephants(CcMode::kFncc));
  // Between 600 and 800 us both elephants hold ~ eta/2 of the line.
  const double f0 = r.flows[0].pacing_gbps.MeanOver(Microseconds(600),
                                                    Microseconds(800));
  const double f1 = r.flows[1].pacing_gbps.MeanOver(Microseconds(600),
                                                    Microseconds(800));
  EXPECT_NEAR(f0, 47.5, 6.0);
  EXPECT_NEAR(f1, 47.5, 6.0);
  EXPECT_NEAR(JainFairnessIndex({f0, f1}), 1.0, 0.01);
  EXPECT_EQ(r.drops, 0u);
}

// Fig. 1b-d: FNCC < HPCC < DCQCN peak queue at every line rate (measured
// 121.4/150.3/947.2, 227.7/293.0/1076.3 and 467.5/579.9/1141.5 KB at
// 100/200/400 Gb/s).
TEST(DumbbellIntegrationTest, FnccKeepsShallowerQueueThanHpcc) {
  for (double gbps : {100.0, 200.0, 400.0}) {
    const auto fncc = RunExperimentPoint(TwoElephants(CcMode::kFncc, gbps));
    const auto hpcc = RunExperimentPoint(TwoElephants(CcMode::kHpcc, gbps));
    EXPECT_LT(fncc.queue_bytes.Max(), hpcc.queue_bytes.Max()) << gbps;
  }
}

TEST(DumbbellIntegrationTest, HpccKeepsShallowerQueueThanDcqcn) {
  for (double gbps : {100.0, 200.0, 400.0}) {
    const auto hpcc = RunExperimentPoint(TwoElephants(CcMode::kHpcc, gbps));
    const auto dcqcn =
        RunExperimentPoint(TwoElephants(CcMode::kDcqcn, gbps));
    EXPECT_LT(hpcc.queue_bytes.Max(), dcqcn.queue_bytes.Max()) << gbps;
  }
}

TEST(DumbbellIntegrationTest, FnccReactsBeforeHpcc) {
  // Reaction time: first instant after flow1 joins (300 us) where flow0's
  // pacing rate dips below 80 Gbps.
  const auto fncc = RunExperimentPoint(TwoElephants(CcMode::kFncc));
  const auto hpcc = RunExperimentPoint(TwoElephants(CcMode::kHpcc));
  const Time t_fncc =
      fncc.flows[0].pacing_gbps.FirstTimeBelow(80.0, Microseconds(300));
  const Time t_hpcc =
      hpcc.flows[0].pacing_gbps.FirstTimeBelow(80.0, Microseconds(300));
  ASSERT_LT(t_fncc, kTimeInfinity);
  ASSERT_LT(t_hpcc, kTimeInfinity);
  EXPECT_LT(t_fncc, t_hpcc);
}

TEST(DumbbellIntegrationTest, PauseFrameOrderingMatchesFig3) {
  for (double gbps : {200.0, 400.0}) {
    const auto fncc = RunExperimentPoint(TwoElephants(CcMode::kFncc, gbps));
    const auto hpcc = RunExperimentPoint(TwoElephants(CcMode::kHpcc, gbps));
    const auto dcqcn = RunExperimentPoint(TwoElephants(CcMode::kDcqcn, gbps));
    EXPECT_LE(fncc.pause_frames, hpcc.pause_frames) << gbps;
    EXPECT_LE(hpcc.pause_frames, dcqcn.pause_frames) << gbps;
    EXPECT_GT(dcqcn.pause_frames, 0u) << gbps;
  }
}

TEST(DumbbellIntegrationTest, UtilizationStaysHighForFncc) {
  const auto r = RunExperimentPoint(TwoElephants(CcMode::kFncc));
  // After convergence the bottleneck should run near eta.
  EXPECT_GT(r.utilization.MeanOver(Microseconds(500), Microseconds(800)),
            0.85);
}

TEST(DumbbellIntegrationTest, LosslessForWindowBasedSchemes) {
  for (CcMode mode : {CcMode::kFncc, CcMode::kHpcc, CcMode::kFnccNoLhcs}) {
    const auto r = RunExperimentPoint(TwoElephants(mode));
    EXPECT_EQ(r.drops, 0u);
    EXPECT_EQ(r.pause_frames, 0u) << CcModeName(mode);
  }
}

TEST(ChainMergeIntegrationTest, LhcsTriggersOnlyOnLastHop) {
  const auto first = RunExperimentPoint(ChainMerge(CcMode::kFncc, 0));
  const auto last = RunExperimentPoint(ChainMerge(CcMode::kFncc, 2));
  EXPECT_EQ(first.lhcs_triggers, 0u);
  EXPECT_GT(last.lhcs_triggers, 0u);
}

TEST(ChainMergeIntegrationTest, LhcsCutsLastHopQueue) {
  const auto with = RunExperimentPoint(ChainMerge(CcMode::kFncc, 2));
  const auto without =
      RunExperimentPoint(ChainMerge(CcMode::kFnccNoLhcs, 2));
  EXPECT_LT(with.queue_bytes.Max(), without.queue_bytes.Max());
}

// Fig. 13a-b: the earlier the congested hop, the more FNCC's return-path
// INT gains over HPCC's (measured 121.4 vs 150.3 KB at the first hop and
// 115.4 vs 132.4 KB at the middle hop).
TEST(ChainMergeIntegrationTest, FnccCutsFirstAndMiddleHopQueue) {
  for (int hop : {0, 1}) {
    const auto fncc = RunExperimentPoint(ChainMerge(CcMode::kFncc, hop));
    const auto hpcc = RunExperimentPoint(ChainMerge(CcMode::kHpcc, hop));
    EXPECT_LT(fncc.queue_bytes.Max(), hpcc.queue_bytes.Max())
        << "merge_switch " << hop;
  }
}

// specs/parking_lot.exp: the 3-switch flow0 and the 1-switch flow1 merge
// at the last hop. Window-based schemes share it fairly despite the RTT
// gap (Jain 0.999 for both FNCC and HPCC).
TEST(ChainMergeIntegrationTest, ParkingLotSharesFairlyUnderFnccAndHpcc) {
  for (CcMode mode : {CcMode::kFncc, CcMode::kHpcc}) {
    ExperimentSpec spec = ChainMerge(mode, 2);
    spec.wl.long_flows = {{0, 0}, {1, Microseconds(100)}};
    spec.run.duration = Microseconds(1000);
    const auto r = RunExperimentPoint(spec);
    const double f0 = r.flows[0].goodput_gbps.MeanOver(Microseconds(600),
                                                       Microseconds(1000));
    const double f1 = r.flows[1].goodput_gbps.MeanOver(Microseconds(600),
                                                       Microseconds(1000));
    EXPECT_GT(JainFairnessIndex({f0, f1}), 0.95) << CcModeName(mode);
  }
}

TEST(ChainMergeIntegrationTest, LhcsSnapsToFairRateTimesBeta) {
  const auto r = RunExperimentPoint(ChainMerge(CcMode::kFncc, 2));
  // Shortly after the join, both flows sit near fair * beta = 45 Gbps
  // (Fig. 13d) — clearly below the eta-governed 47.5 steady state.
  const double f0 = r.flows[0].pacing_gbps.MeanOver(Microseconds(330),
                                                    Microseconds(420));
  EXPECT_NEAR(f0, 45.0, 5.0);
}

TEST(FairnessIntegrationTest, StaggeredFlowsShareFairly) {
  // Scaled version of Fig. 13e: 4 flows join every 200 us and exit in
  // reverse order; while k flows are active each should get ~eta*B/k.
  ExperimentSpec spec;
  spec.scenario.mode = CcMode::kFncc;
  spec.topo.num_senders = 4;
  spec.wl.long_flows = {{0, 0, Microseconds(4000)},
                        {1, Microseconds(500), Microseconds(3500)},
                        {2, Microseconds(1000), Microseconds(3000)},
                        {3, Microseconds(1500), Microseconds(2500)}};
  spec.run.duration = Microseconds(4200);
  const auto r = RunExperimentPoint(spec);

  // Four active flows in [1.8ms, 2.5ms]: fair share ~ 23.75 Gbps.
  std::vector<double> shares;
  for (int i = 0; i < 4; ++i) {
    shares.push_back(r.flows[i].goodput_gbps.MeanOver(Microseconds(1800),
                                                      Microseconds(2500)));
  }
  EXPECT_GT(JainFairnessIndex(shares), 0.95);
  // After the others exit, flow0 ramps back up.
  EXPECT_GT(r.flows[0].pacing_gbps.MeanOver(Microseconds(3800),
                                            Microseconds(4000)),
            60.0);
}

TEST(FatTreeIntegrationTest, SmallFatTreeWorkloadCompletes) {
  ExperimentSpec spec;
  spec.topology = "fat_tree";
  spec.topo.k = 4;
  spec.workload = "poisson";
  spec.cdf = "fb_hadoop";
  spec.wl.num_flows = 300;
  spec.scenario.mode = CcMode::kFncc;
  spec.run.duration = 0;
  const auto r = RunExperimentPoint(spec);
  EXPECT_EQ(r.flows_completed, r.flows_total);
  EXPECT_EQ(r.drops, 0u);
  EXPECT_EQ(r.retransmits, 0u);
  for (const auto& flow : r.fct.results()) {
    EXPECT_GE(flow.slowdown, 0.99) << "flow size " << flow.spec.size_bytes;
  }
}

TEST(FatTreeIntegrationTest, FnccBeatsDcqcnOnSmallFlowTail) {
  ExperimentSpec spec;
  spec.topology = "fat_tree";
  spec.topo.k = 4;
  spec.workload = "poisson";
  spec.cdf = "fb_hadoop";
  spec.wl.num_flows = 400;
  spec.wl.load = 0.6;
  spec.run.duration = 0;

  spec.scenario.mode = CcMode::kFncc;
  const auto fncc = RunExperimentPoint(spec);
  spec.scenario.mode = CcMode::kDcqcn;
  const auto dcqcn = RunExperimentPoint(spec);

  const auto fncc_small = fncc.fct.OverRange(0, 100'000);
  const auto dcqcn_small = dcqcn.fct.OverRange(0, 100'000);
  ASSERT_GT(fncc_small.count, 50u);
  EXPECT_LT(fncc_small.p95, dcqcn_small.p95);
}

}  // namespace
}  // namespace fncc
