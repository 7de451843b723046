// Parameterized invariant sweeps (TEST_P): every CC scheme at every line
// rate must keep the fabric lossless (PFC), converge to a bounded queue,
// and share the bottleneck fairly between two long flows.
#include <gtest/gtest.h>

#include "harness/experiment_runner.hpp"
#include "stats/percentile.hpp"
#include "workload/traffic_gen.hpp"

namespace fncc {
namespace {

struct SweepParam {
  CcMode mode;
  double gbps;
};

std::string ParamName(const ::testing::TestParamInfo<SweepParam>& info) {
  std::string name = CcModeName(info.param.mode);
  for (char& c : name) {
    if (c == '-') c = '_';
  }
  return name + "_" + std::to_string(static_cast<int>(info.param.gbps)) + "G";
}

class CcSweepTest : public ::testing::TestWithParam<SweepParam> {
 protected:
  ExperimentSpec Spec() const {
    ExperimentSpec spec;
    spec.scenario.mode = GetParam().mode;
    spec.scenario.link_gbps = GetParam().gbps;
    spec.wl.long_flows = {{0, 0}, {1, Microseconds(300)}};
    spec.run.duration = Microseconds(900);
    return spec;
  }
};

TEST_P(CcSweepTest, LosslessUnderPfc) {
  const auto r = RunExperimentPoint(Spec());
  EXPECT_EQ(r.drops, 0u);
  // Single-path FIFO forwarding must never reorder (regression guard for
  // sender-side re-entrancy: a CC callback once overtook an MTU).
  EXPECT_EQ(r.out_of_order, 0u);
}

TEST_P(CcSweepTest, QueueBoundedByPfcEnvelope) {
  const auto r = RunExperimentPoint(Spec());
  // With XOFF at 500 KB per ingress and 2 senders the congested egress can
  // never exceed ~2 * XOFF plus in-flight slack (propagation + the frames
  // already serializing when the pause lands; generous at 400 Gbps).
  EXPECT_LT(r.queue_bytes.Max(), 2.0 * 500'000 + 400'000);
}

TEST_P(CcSweepTest, WorkConservingAfterConvergence) {
  const auto r = RunExperimentPoint(Spec());
  // The bottleneck must not collapse. DCQCN's additive recovery after deep
  // cuts is very slow at these timescales (the paper's §5.1 observation),
  // so it gets a lower floor than the window-based schemes.
  const double floor = GetParam().mode == CcMode::kDcqcn ? 0.25 : 0.5;
  EXPECT_GT(r.utilization.MeanOver(Microseconds(500), Microseconds(900)),
            floor);
}

TEST_P(CcSweepTest, NoStarvation) {
  const auto r = RunExperimentPoint(Spec());
  const double f0 = r.flows[0].goodput_gbps.MeanOver(Microseconds(500),
                                                     Microseconds(900));
  const double f1 = r.flows[1].goodput_gbps.MeanOver(Microseconds(500),
                                                     Microseconds(900));
  EXPECT_GT(f0, 0.02 * GetParam().gbps);
  EXPECT_GT(f1, 0.02 * GetParam().gbps);
}

TEST_P(CcSweepTest, WindowSchemesConvergeFairly) {
  if (GetParam().mode == CcMode::kDcqcn || GetParam().mode == CcMode::kRocc ||
      GetParam().mode == CcMode::kTimely || GetParam().mode == CcMode::kSwift) {
    GTEST_SKIP() << "rate-based baselines converge slower than this window";
  }
  const auto r = RunExperimentPoint(Spec());
  const double f0 = r.flows[0].goodput_gbps.MeanOver(Microseconds(600),
                                                     Microseconds(900));
  const double f1 = r.flows[1].goodput_gbps.MeanOver(Microseconds(600),
                                                     Microseconds(900));
  EXPECT_GT(JainFairnessIndex({f0, f1}), 0.95);
}

INSTANTIATE_TEST_SUITE_P(
    AllModesAllRates, CcSweepTest,
    ::testing::Values(SweepParam{CcMode::kFncc, 100},
                      SweepParam{CcMode::kFncc, 200},
                      SweepParam{CcMode::kFncc, 400},
                      SweepParam{CcMode::kFnccNoLhcs, 100},
                      SweepParam{CcMode::kHpcc, 100},
                      SweepParam{CcMode::kHpcc, 200},
                      SweepParam{CcMode::kHpcc, 400},
                      SweepParam{CcMode::kDcqcn, 100},
                      SweepParam{CcMode::kDcqcn, 400},
                      SweepParam{CcMode::kRocc, 100},
                      SweepParam{CcMode::kTimely, 100},
                      SweepParam{CcMode::kSwift, 100},
                      SweepParam{CcMode::kSwift, 400}),
    ParamName);

/// MTU sweep: the transport and CC stack must work at any segment size.
class MtuSweepTest : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(MtuSweepTest, ConvergesAndStaysLossless) {
  ExperimentSpec spec;
  spec.scenario.mode = CcMode::kFncc;
  spec.scenario.mtu_bytes = GetParam();
  spec.wl.long_flows = {{0, 0}, {1, Microseconds(300)}};
  spec.run.duration = Microseconds(800);
  const auto r = RunExperimentPoint(spec);
  EXPECT_EQ(r.drops, 0u);
  const double f0 = r.flows[0].goodput_gbps.MeanOver(Microseconds(600),
                                                     Microseconds(800));
  EXPECT_GT(f0, 30.0);
}

INSTANTIATE_TEST_SUITE_P(Mtus, MtuSweepTest,
                         ::testing::Values(512u, 1024u, 1518u, 4096u, 9000u));

/// Chain-length sweep: FNCC's INT stack must handle any path depth.
class HopSweepTest : public ::testing::TestWithParam<int> {};

TEST_P(HopSweepTest, FnccWorksAcrossPathDepths) {
  ExperimentSpec spec;
  spec.scenario.mode = CcMode::kFncc;
  spec.topo.num_switches = GetParam();
  spec.wl.long_flows = {{0, 0}, {1, Microseconds(300)}};
  spec.run.duration = Microseconds(1000);
  const auto r = RunExperimentPoint(spec);
  EXPECT_EQ(r.drops, 0u);
  const double f0 = r.flows[0].goodput_gbps.MeanOver(Microseconds(700),
                                                     Microseconds(1000));
  const double f1 = r.flows[1].goodput_gbps.MeanOver(Microseconds(700),
                                                     Microseconds(1000));
  EXPECT_GT(JainFairnessIndex({f0, f1}), 0.9) << "switches=" << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Chains, HopSweepTest, ::testing::Values(1, 2, 3, 5, 8));

/// Seed sweep: results must be deterministic per seed.
TEST(DeterminismTest, IdenticalSeedsIdenticalResults) {
  ExperimentSpec spec;
  spec.scenario.mode = CcMode::kDcqcn;  // exercises the RNG (ECN marking)
  spec.wl.long_flows = {{0, 0}, {1, Microseconds(300)}};
  spec.run.duration = Microseconds(600);
  const auto a = RunExperimentPoint(spec);
  const auto b = RunExperimentPoint(spec);
  ASSERT_EQ(a.queue_bytes.size(), b.queue_bytes.size());
  for (std::size_t i = 0; i < a.queue_bytes.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.queue_bytes.samples()[i].value,
                     b.queue_bytes.samples()[i].value);
  }
  EXPECT_EQ(a.events_processed, b.events_processed);
}

TEST(DeterminismTest, DifferentSeedsDivergeForRandomizedWorkloads) {
  // The DCQCN dumbbell can coincide across seeds (ECN draws only matter in
  // the Kmin..Kmax band), so test seed sensitivity where randomness is
  // structural: the Poisson workload generator.
  Rng a(1), b(2);
  WorkloadHosts hosts;
  hosts.all = {0, 1, 2, 3};
  WorkloadParams params;
  params.num_flows = 50;
  const auto fa = WorkloadRegistry::Generate("poisson", a, hosts, params);
  const auto fb = WorkloadRegistry::Generate("poisson", b, hosts, params);
  bool any_diff = false;
  for (std::size_t i = 0; i < fa.size(); ++i) {
    any_diff |= fa[i].spec.size_bytes != fb[i].spec.size_bytes ||
                fa[i].spec.start_time != fb[i].spec.start_time ||
                fa[i].spec.src != fb[i].spec.src;
  }
  EXPECT_TRUE(any_diff);
}

}  // namespace
}  // namespace fncc
