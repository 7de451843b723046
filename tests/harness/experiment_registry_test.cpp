// Registry coverage: every registered topology x workload pair must build
// a fabric and run simulated time through the unified engine without
// assertion failures.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "harness/experiment_runner.hpp"

namespace fncc {
namespace {

/// A tiny valid trace between hosts 0 and 1 (present in every registered
/// topology), written to a temp file — the "trace" workload's required
/// input when the registry matrix sweeps over it.
std::string WriteTempTrace() {
  const std::string path =
      testing::TempDir() + "registry_matrix_trace.csv";
  std::ofstream out(path);
  out << "start_us,src,dst,bytes\n";
  for (int i = 0; i < 6; ++i) {
    out << i * 10 << "." << 5 << "," << (i % 2) << "," << ((i + 1) % 2)
        << ",20000\n";
  }
  return path;
}

TEST(TopologyRegistryTest, NamesAndUnknownRejection) {
  for (const char* name : {"dumbbell", "chain_merge", "fat_tree",
                           "leaf_spine", "multirail_dumbbell"}) {
    EXPECT_TRUE(TopologyRegistry::Contains(name)) << name;
    EXPECT_FALSE(TopologyRegistry::Describe(name).empty()) << name;
  }
  EXPECT_FALSE(TopologyRegistry::Contains("torus"));
  ScenarioConfig sc;
  Simulator sim;
  Rng rng(1);
  EXPECT_THROW(TopologyRegistry::Build("torus", &sim, MakeHostFactory(sc),
                                       MakeSwitchConfig(sc), &rng, {}),
               std::invalid_argument);
  EXPECT_THROW(
      TopologyRegistry::Register("dumbbell", "duplicate", nullptr),
      std::invalid_argument);
}

TEST(TopologyRegistryTest, BuildersExposeRolesAndCongestionPoints) {
  ScenarioConfig sc;
  for (const std::string& name : TopologyRegistry::Names()) {
    SCOPED_TRACE(name);
    Simulator sim;
    Rng rng(1);
    TopologyParams params;
    params.link = sc.link();
    const BuiltTopology topo =
        TopologyRegistry::Build(name, &sim, MakeHostFactory(sc),
                                MakeSwitchConfig(sc), &rng, params);
    EXPECT_GE(topo.hosts.size(), 2u);
    EXPECT_FALSE(topo.senders.empty());
    EXPECT_NE(topo.receiver, kInvalidNode);
    if (topo.has_congestion_point()) {
      EXPECT_NE(topo.congestion_switch(), nullptr);
    }
  }
}

TEST(TopologyRegistryTest, BadParamsRejected) {
  ScenarioConfig sc;
  Simulator sim;
  Rng rng(1);
  TopologyParams params;
  params.link = sc.link();
  params.k = 3;  // odd
  EXPECT_THROW(TopologyRegistry::Build("fat_tree", &sim, MakeHostFactory(sc),
                                       MakeSwitchConfig(sc), &rng, params),
               std::invalid_argument);
  params.k = 4;
  params.rails = 0;
  EXPECT_THROW(
      TopologyRegistry::Build("multirail_dumbbell", &sim,
                              MakeHostFactory(sc), MakeSwitchConfig(sc), &rng,
                              params),
      std::invalid_argument);
}

// Every registered topology x workload pair builds and runs 1 ms of sim
// time end to end — the contract that makes registering a new topology or
// workload sufficient for it to work everywhere (fncc_run --smoke runs the
// same matrix from the CLI).
TEST(ExperimentRegistryTest, EveryTopologyWorkloadPairRunsOneMillisecond) {
  const std::string trace_path = WriteTempTrace();
  for (const std::string& topo : TopologyRegistry::Names()) {
    for (const std::string& wl : WorkloadRegistry::Names()) {
      SCOPED_TRACE(topo + " x " + wl);
      ExperimentSpec spec;
      spec.name = topo + "-" + wl;
      spec.topology = topo;
      spec.workload = wl;
      // Tiny fabrics and flows: the point is coverage, not load.
      spec.topo.num_senders = 3;
      spec.topo.num_switches = 2;
      spec.topo.merge_switch = 1;
      spec.topo.k = 4;
      spec.topo.leaves = 2;
      spec.topo.spines = 2;
      spec.topo.hosts_per_leaf = 2;
      spec.topo.rails = 2;
      spec.wl.num_flows = 6;
      spec.wl.size_bytes = 20'000;
      spec.wl.groups = (topo == "chain_merge") ? 1 : 2;
      spec.cdf = "fb_hadoop";
      spec.run.duration = Milliseconds(1);
      if (wl == "trace") spec.wl.trace_file = trace_path;
      ValidateSpec(spec);
      const ExperimentPointResult r = RunExperimentPoint(spec);
      EXPECT_GT(r.flows_total, 0u);
      EXPECT_GT(r.events_processed, 0u);
      EXPECT_EQ(r.drops, 0u);  // lossless fabrics at these loads
    }
  }
}

// Per-flow series must be indexable whether or not the monitors ran
// (run.monitor=false or a topology without a congestion point), and a
// standalone point stamps its own wall time.
TEST(ExperimentRegistryTest, UnmonitoredRunsStillSizePerFlowSeries) {
  ExperimentSpec spec;
  ApplySpecOverrides(spec, {"run.monitor=false", "run.duration_us=60"});
  const ExperimentPointResult r = RunExperimentPoint(spec);
  ASSERT_EQ(r.flows.size(), 2u);  // the default two elephants
  EXPECT_TRUE(r.flows[0].pacing_gbps.empty());
  EXPECT_TRUE(r.queue_bytes.empty());
  EXPECT_GT(r.wall_time_seconds, 0.0);
}

// ECMP must actually spread flows across the parallel rails of the
// multi-rail dumbbell: after an incast with distinct five-tuples, more
// than one A->B rail port has transmitted bytes.
TEST(ExperimentRegistryTest, MultiRailSpreadsFlowsAcrossRails) {
  ScenarioConfig sc;
  Simulator sim;
  Rng rng(1);
  const int kSenders = 8, kRails = 4;
  MultiRailDumbbellTopology topo = BuildMultiRailDumbbell(
      &sim, MakeHostFactory(sc), MakeSwitchConfig(sc), &rng, kSenders,
      kRails, sc.link());
  topo.net.ComputeRoutes(sc.ecmp_salt, sc.symmetric_ecmp);

  const auto flows =
      GenerateIncast(topo.senders, topo.receiver, /*size=*/100'000,
                     /*start=*/0);
  for (const FlowSpec& f : flows) LaunchFlow(topo.net, sc, f);
  sim.RunUntil(Microseconds(200));

  auto* sw_a = static_cast<Switch*>(topo.net.node(topo.switch_a));
  int active_rails = 0;
  for (int r = 0; r < kRails; ++r) {
    if (sw_a->port(kSenders + r).tx_bytes() > 0) ++active_rails;
  }
  EXPECT_GT(active_rails, 1) << "all flows hashed onto one rail";
}

}  // namespace
}  // namespace fncc
