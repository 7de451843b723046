// Fig. 7 pathID end-to-end: FNCC senders must be able to *detect* when the
// return path differs from the request path (Observation 2's precondition),
// because asymmetric routing silently invalidates return-path INT.
#include <gtest/gtest.h>

#include "harness/experiment_runner.hpp"
#include "harness/scenario.hpp"

namespace fncc {
namespace {

ExperimentSpec BaseSpec() {
  ExperimentSpec spec;
  spec.topology = "fat_tree";
  spec.topo.k = 4;
  spec.workload = "poisson";
  spec.cdf = "fb_hadoop";
  spec.wl.num_flows = 200;
  spec.scenario.mode = CcMode::kFncc;
  spec.run.duration = 0;
  return spec;
}

TEST(PathSymmetryTest, SymmetricEcmpNeverFlagsAsymmetry) {
  ExperimentSpec spec = BaseSpec();
  spec.scenario.symmetric_ecmp = true;
  const auto r = RunExperimentPoint(spec);
  EXPECT_EQ(r.flows_completed, r.flows_total);
  EXPECT_EQ(r.asymmetric_acks, 0u);
}

TEST(PathSymmetryTest, PlainEcmpIsDetectedBySender) {
  ExperimentSpec spec = BaseSpec();
  spec.scenario.symmetric_ecmp = false;  // per-direction hashing
  const auto r = RunExperimentPoint(spec);
  EXPECT_EQ(r.flows_completed, r.flows_total);
  // Inter-pod flows whose forward and reverse hashes diverge cross
  // different switch sets; the XOR pathID comparison must catch them.
  EXPECT_GT(r.asymmetric_acks, 0u);
}

TEST(PathSymmetryTest, IntraRackFlowsAlwaysSymmetric) {
  // Hosts on the same edge switch have a unique path: even plain hashing
  // cannot break symmetry there.
  ScenarioConfig sc;
  sc.mode = CcMode::kFncc;
  sc.symmetric_ecmp = false;
  Simulator sim;
  Rng rng(1);
  auto topo = BuildFatTree(&sim, MakeHostFactory(sc), MakeSwitchConfig(sc),
                           &rng, 4, sc.link());
  topo.net.ComputeRoutes(sc.ecmp_salt, sc.symmetric_ecmp);
  FlowSpec spec;
  spec.id = 1;
  spec.src = topo.hosts[0];
  spec.dst = topo.hosts[1];  // same rack
  spec.sport = 1111;
  spec.dport = 2222;
  spec.size_bytes = 500'000;
  SenderQp* qp = LaunchFlow(topo.net, sc, spec);
  sim.RunUntil(Milliseconds(5));
  ASSERT_TRUE(qp->complete());
  EXPECT_EQ(qp->asymmetric_acks(), 0u);
}

TEST(PathSymmetryTest, SpanningTreesAreSymmetricWithPlainHashing) {
  // Observation 2 method 2 makes even hash-uncoordinated fabrics safe.
  ScenarioConfig sc;
  sc.mode = CcMode::kFncc;
  Simulator sim;
  Rng rng(1);
  auto topo = BuildFatTree(&sim, MakeHostFactory(sc), MakeSwitchConfig(sc),
                           &rng, 4, sc.link());
  topo.net.ComputeSpanningTreeRoutes(4, /*salt=*/99);
  Rng pick(5);
  std::vector<SenderQp*> qps;
  for (int i = 0; i < 20; ++i) {
    FlowSpec spec;
    spec.id = static_cast<FlowId>(i + 1);
    const auto s = static_cast<std::size_t>(
        pick.UniformInt(0, topo.hosts.size() - 1));
    auto d = static_cast<std::size_t>(
        pick.UniformInt(0, topo.hosts.size() - 2));
    if (d >= s) ++d;
    spec.src = topo.hosts[s];
    spec.dst = topo.hosts[d];
    spec.sport = static_cast<std::uint16_t>(pick.UniformInt(1, 60000));
    spec.dport = static_cast<std::uint16_t>(pick.UniformInt(1, 60000));
    spec.size_bytes = 200'000;
    qps.push_back(LaunchFlow(topo.net, sc, spec));
  }
  sim.RunUntil(Milliseconds(10));
  for (SenderQp* qp : qps) {
    EXPECT_TRUE(qp->complete());
    EXPECT_EQ(qp->asymmetric_acks(), 0u);
  }
}

TEST(PathSymmetryTest, FnccStillConvergesOnSpanningTreeDumbbell) {
  // Full control loop over tree routing: two elephants converge fairly.
  ScenarioConfig sc;
  sc.mode = CcMode::kFncc;
  Simulator sim;
  Rng rng(1);
  auto topo = BuildDumbbell(&sim, MakeHostFactory(sc), MakeSwitchConfig(sc),
                            &rng, 2, 3, sc.link());
  topo.net.ComputeSpanningTreeRoutes(2);
  FlowSpec a;
  a.id = 1;
  a.src = topo.senders[0];
  a.dst = topo.receiver;
  a.sport = 1000;
  a.dport = 1001;
  a.size_bytes = 10'000'000;
  FlowSpec b = a;
  b.id = 2;
  b.src = topo.senders[1];
  b.sport = 2000;
  b.dport = 2001;
  b.start_time = Microseconds(100);
  SenderQp* qa = LaunchFlow(topo.net, sc, a);
  SenderQp* qb = LaunchFlow(topo.net, sc, b);
  sim.RunUntil(Microseconds(600));
  const double ra = qa->pacing_rate_gbps();
  const double rb = qb->pacing_rate_gbps();
  EXPECT_NEAR(ra, 47.5, 8.0);
  EXPECT_NEAR(rb, 47.5, 8.0);
  EXPECT_EQ(qa->asymmetric_acks(), 0u);
}

TEST(IntQuantizationTest, FnccConvergesThroughWireEncoding) {
  // Control quality must survive the Fig. 7 bit widths (4/24/20/16): the
  // feasibility argument of §4.3 as an executable check.
  ScenarioConfig sc;
  sc.mode = CcMode::kFncc;
  sc.quantize_int = true;
  Simulator sim;
  Rng rng(1);
  auto topo = BuildDumbbell(&sim, MakeHostFactory(sc), MakeSwitchConfig(sc),
                            &rng, 2, 3, sc.link());
  topo.net.ComputeRoutes(sc.ecmp_salt, sc.symmetric_ecmp);
  FlowSpec a;
  a.id = 1;
  a.src = topo.senders[0];
  a.dst = topo.receiver;
  a.sport = 1000;
  a.dport = 1001;
  a.size_bytes = 10'000'000;
  FlowSpec b = a;
  b.id = 2;
  b.src = topo.senders[1];
  b.sport = 2000;
  b.dport = 2001;
  b.start_time = Microseconds(100);
  SenderQp* qa = LaunchFlow(topo.net, sc, a);
  SenderQp* qb = LaunchFlow(topo.net, sc, b);
  sim.RunUntil(Microseconds(700));
  EXPECT_NEAR(qa->pacing_rate_gbps(), 47.5, 8.0);
  EXPECT_NEAR(qb->pacing_rate_gbps(), 47.5, 8.0);
  // And the queue stays controlled despite 64 B qLen granularity.
  EXPECT_LT(topo.congestion_switch()->port(topo.congestion_port())
                .qlen_bytes(),
            200'000u);
}

}  // namespace
}  // namespace fncc
