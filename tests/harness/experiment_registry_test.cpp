// Registry coverage: every registered topology x workload pair must build
// a fabric and run simulated time through the unified engine without
// assertion failures.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <set>
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
}

/// Node names of `ids`, in order.
std::vector<std::string> Names(const Network& net,
                               const std::vector<NodeId>& ids) {
  std::vector<std::string> names;
  for (const NodeId id : ids) names.push_back(net.node(id)->name());
  return names;
}

/// One topology's expected roles: hosts in creation order, the senders and
/// receiver, and the node the congestion egress faces ("" = no congestion
/// point).
struct RoleRow {
  std::string topology;
  TopologyParams params;
  std::vector<std::string> hosts;
  std::vector<std::string> senders;
  std::string receiver;
  std::string congestion_switch;
  std::string congestion_peer;
};

std::vector<std::string> Numbered(const std::string& prefix, int n) {
  std::vector<std::string> names;
  for (int i = 0; i < n; ++i) names.push_back(prefix + std::to_string(i));
  return names;
}

TEST(TopologyRegistryTest, BuildersExposeRolesAndCongestionPoints) {
  const std::vector<std::string> two = {"sender0", "sender1"};
  const std::vector<std::string> two_and_receiver = {"sender0", "sender1",
                                                     "receiver0"};
  const std::vector<std::string> four = Numbered("sender", 4);
  std::vector<std::string> four_and_receiver = four;
  four_and_receiver.push_back("receiver0");
  const std::vector<RoleRow> rows = {
      // Fig. 10: switch0's uplink toward switch1 is the bottleneck...
      {"dumbbell", {.num_senders = 2, .num_switches = 3}, two_and_receiver,
       two, "receiver0", "switch0", "switch1"},
      // ...or its port toward the receiver on a one-switch dumbbell.
      {"dumbbell", {.num_senders = 4, .num_switches = 1}, four_and_receiver,
       four, "receiver0", "switch0", "receiver0"},
      // Fig. 11: the merge switch's egress toward the next hop...
      {"chain_merge", {.num_switches = 3, .merge_switch = 1},
       two_and_receiver, two, "receiver0", "switch1", "switch2"},
      {"chain_merge", {.num_switches = 3, .merge_switch = 0},
       two_and_receiver, two, "receiver0", "switch0", "switch1"},
      // ...or toward the receiver when the merge is at the last hop.
      {"chain_merge", {.num_switches = 3, .merge_switch = 2},
       two_and_receiver, two, "receiver0", "switch2", "receiver0"},
      // No distinguished roles: all-but-last send, last receives.
      {"fat_tree", {.k = 4}, Numbered("h", 16), Numbered("h", 15), "h15",
       "", ""},
      {"leaf_spine", {.leaves = 2, .spines = 2, .hosts_per_leaf = 2},
       Numbered("h", 4), Numbered("h", 3), "h3", "leaf1", "h3"},
      // The rails re-converge at switch B's egress toward the receiver.
      {"multirail_dumbbell", {.num_senders = 2, .rails = 3},
       two_and_receiver, two, "receiver0", "switchB", "receiver0"},
  };
  ScenarioConfig sc;
  std::set<std::string> covered;
  for (const RoleRow& row : rows) {
    SCOPED_TRACE(row.topology + " -> " + row.congestion_peer);
    covered.insert(row.topology);
    Simulator sim;
    Rng rng(1);
    TopologyParams params = row.params;
    params.link = sc.link();
    const BuiltTopology topo =
        TopologyRegistry::Build(row.topology, &sim, MakeHostFactory(sc),
                                MakeSwitchConfig(sc), &rng, params);
    EXPECT_EQ(Names(topo.net, topo.hosts), row.hosts);
    EXPECT_EQ(Names(topo.net, topo.senders), row.senders);
    ASSERT_NE(topo.receiver, kInvalidNode);
    EXPECT_EQ(topo.net.node(topo.receiver)->name(), row.receiver);
    if (row.congestion_peer.empty()) {
      EXPECT_FALSE(topo.has_congestion_point());
      continue;
    }
    ASSERT_TRUE(topo.has_congestion_point());
    const Switch* sw = topo.congestion_switch();
    EXPECT_EQ(sw->name(), row.congestion_switch);
    EXPECT_EQ(sw->port(topo.congestion_port).peer().node->name(),
              row.congestion_peer);
  }
  // Every registered topology has a row.
  for (const std::string& name : TopologyRegistry::Names()) {
    EXPECT_EQ(covered.count(name), 1u) << name;
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
  TopologyParams params;
  params.num_senders = kSenders;
  params.rails = kRails;
  params.link = sc.link();
  BuiltTopology topo =
      TopologyRegistry::Build("multirail_dumbbell", &sim, MakeHostFactory(sc),
                              MakeSwitchConfig(sc), &rng, params);
  topo.net.ComputeRoutes(sc.ecmp_salt, sc.symmetric_ecmp);

  WorkloadParams incast;
  incast.size_bytes = 100'000;
  const auto flows = WorkloadRegistry::Generate(
      "incast", rng, {topo.hosts, topo.senders, topo.receiver}, incast);
  for (const GeneratedFlow& f : flows) LaunchFlow(topo.net, sc, f.spec);
  sim.RunUntil(Microseconds(200));

  const Switch* sw_a = topo.net.switches()[0];
  int active_rails = 0;
  for (int r = 0; r < kRails; ++r) {
    if (sw_a->port(kSenders + r).tx_bytes() > 0) ++active_rails;
  }
  EXPECT_GT(active_rails, 1) << "all flows hashed onto one rail";
}

}  // namespace
}  // namespace fncc
