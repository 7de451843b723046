// End-to-end LHCS scaling (Observation 4): in an N-to-1 incast every FNCC
// sender must converge to ~B*beta/N, driven by the receiver-reported flow
// count — and the speedup must cut both queue depth and pause pressure
// relative to the no-LHCS ablation.
#include <gtest/gtest.h>

#include "harness/scenario.hpp"
#include "net/topology.hpp"
#include "stats/percentile.hpp"
#include "workload/traffic_gen.hpp"

namespace fncc {
namespace {

struct IncastOutcome {
  std::vector<double> rates_gbps;  // per sender, sampled at t_probe
  std::uint64_t peak_queue = 0;
  Time drain_time = kTimeInfinity;  // first t > 50us with queue < 100 KB
  std::uint64_t lhcs_triggers = 0;
  std::uint64_t pause_frames = 0;
};

IncastOutcome RunIncastScenario(CcMode mode, int n, Time t_probe) {
  ScenarioConfig sc;
  sc.mode = mode;
  Simulator sim;
  Rng rng(1);
  TopologyParams params;
  params.num_senders = n;
  params.num_switches = 1;
  params.link = sc.link();
  BuiltTopology topo =
      TopologyRegistry::Build("dumbbell", &sim, MakeHostFactory(sc),
                              MakeSwitchConfig(sc), &rng, params);
  topo.net.ComputeRoutes(sc.ecmp_salt, sc.symmetric_ecmp);
  WorkloadParams incast;
  incast.size_bytes = 50'000'000;
  const auto flows = WorkloadRegistry::Generate(
      "incast", rng, {topo.hosts, topo.senders, topo.receiver}, incast);
  std::vector<SenderQp*> qps;
  for (const auto& f : flows) qps.push_back(LaunchFlow(topo.net, sc, f.spec));

  IncastOutcome out;
  EgressPort& cport = topo.congestion_switch()->port(topo.congestion_port);
  while (sim.Now() < t_probe) {
    sim.RunUntil(sim.Now() + Microseconds(2));
    out.peak_queue = std::max(out.peak_queue, cport.qlen_bytes());
    if (out.drain_time == kTimeInfinity && sim.Now() > Microseconds(50) &&
        cport.qlen_bytes() < 100'000) {
      out.drain_time = sim.Now();
    }
  }
  for (SenderQp* qp : qps) {
    out.rates_gbps.push_back(qp->pacing_rate_gbps());
    out.lhcs_triggers += qp->cc().lhcs_triggers();
  }
  out.pause_frames = topo.net.TotalPauseFrames();
  return out;
}

class IncastScalingTest : public ::testing::TestWithParam<int> {};

TEST_P(IncastScalingTest, EverySenderNearFairShare) {
  const int n = GetParam();
  const auto out =
      RunIncastScenario(CcMode::kFncc, n, Microseconds(150 + 30 * n));
  const double fair = 100.0 / n;
  for (double r : out.rates_gbps) {
    // Within [beta*fair*0.7, 1.4*fair]: converged to the right magnitude.
    EXPECT_GT(r, 0.6 * fair) << "n=" << n;
    EXPECT_LT(r, 1.5 * fair) << "n=" << n;
  }
  EXPECT_GT(JainFairnessIndex(out.rates_gbps), 0.95);
  EXPECT_GT(out.lhcs_triggers, 0u);
}

INSTANTIATE_TEST_SUITE_P(FanIn, IncastScalingTest,
                         ::testing::Values(2, 4, 8, 16));

TEST(IncastLhcsTest, SpeedupDrainsQueueFasterThanAblation) {
  // The synchronized first-RTT burst (8 x BDP before any feedback exists)
  // fixes the *peak* for both variants; LHCS's win is the drain — jumping
  // to beta * fair immediately instead of dividing down step by step.
  const auto with = RunIncastScenario(CcMode::kFncc, 8, Microseconds(400));
  const auto without =
      RunIncastScenario(CcMode::kFnccNoLhcs, 8, Microseconds(400));
  ASSERT_LT(with.drain_time, kTimeInfinity);
  ASSERT_LT(without.drain_time, kTimeInfinity);
  EXPECT_LE(with.drain_time, without.drain_time);
  EXPECT_GT(with.lhcs_triggers, 0u);
  EXPECT_EQ(without.lhcs_triggers, 0u);
}

TEST(IncastLhcsTest, NoPauseFramesWithLhcsAtModerateFanIn) {
  const auto out = RunIncastScenario(CcMode::kFncc, 8, Microseconds(400));
  EXPECT_EQ(out.pause_frames, 0u);
}

}  // namespace
}  // namespace fncc
