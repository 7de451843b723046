#include "net/topology.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>

#include "../test_util.hpp"

namespace fncc {
namespace {

using test::BuildSinkTopology;

/// Switches whose name starts with `prefix`, in creation order.
std::vector<NodeId> SwitchesNamed(const Network& net,
                                  const std::string& prefix) {
  std::vector<NodeId> ids;
  for (const Switch* sw : net.switches()) {
    if (sw->name().rfind(prefix, 0) == 0) ids.push_back(sw->id());
  }
  return ids;
}

TEST(DumbbellTest, StructureMatchesFig10) {
  Simulator sim;
  Rng rng(1);
  const BuiltTopology topo =
      BuildSinkTopology(&sim, &rng, "dumbbell",
                        {.num_senders = 2, .num_switches = 3});
  EXPECT_EQ(topo.senders.size(), 2u);
  EXPECT_EQ(SwitchesNamed(topo.net, "switch").size(), 3u);
  // 2 senders + 1 receiver + 3 switches.
  EXPECT_EQ(topo.net.num_nodes(), 6u);
  EXPECT_EQ(topo.net.hosts().size(), 3u);
  EXPECT_EQ(topo.net.switches().size(), 3u);
}

TEST(DumbbellTest, DataPathCrossesAllSwitches) {
  Simulator sim;
  Rng rng(1);
  BuiltTopology topo =
      BuildSinkTopology(&sim, &rng, "dumbbell",
                        {.num_senders = 2, .num_switches = 3});
  topo.net.ComputeRoutes();
  const auto path =
      topo.net.Path(topo.senders[0], topo.receiver, 1000, 2000);
  // sender, sw0, sw1, sw2, receiver.
  ASSERT_EQ(path.size(), 5u);
  EXPECT_EQ(path.front(), topo.senders[0]);
  EXPECT_EQ(path[1], topo.net.switches()[0]->id());
  EXPECT_EQ(path[3], topo.net.switches()[2]->id());
  EXPECT_EQ(path.back(), topo.receiver);
}

TEST(DumbbellTest, BaseRttMatchesHandComputation) {
  Simulator sim;
  Rng rng(1);
  BuiltTopology topo =
      BuildSinkTopology(&sim, &rng, "dumbbell",
                        {.num_senders = 2, .num_switches = 3});
  topo.net.ComputeRoutes();
  // Data: 4 links x (1.5 us + 121.44 ns); ACK: 4 links x (1.5 us + 4.8 ns).
  const Time expected = 4 * (1'500'000 + 121'440) + 4 * (1'500'000 + 4'800);
  EXPECT_EQ(topo.net.BaseRtt(topo.senders[0], topo.receiver, 1, 2, 1518, 60),
            expected);
}

TEST(UnroutedFabricTest, PathThrowsNamingSwitchAndDestination) {
  // A registry-built fabric is unrouted until ComputeRoutes: asking for a
  // path must fail loudly, not read past the empty routing table.
  Simulator sim;
  Rng rng(1);
  const BuiltTopology topo =
      BuildSinkTopology(&sim, &rng, "dumbbell",
                        {.num_senders = 2, .num_switches = 3});
  try {
    (void)topo.net.Path(topo.senders[0], topo.receiver, 1, 2);
    FAIL() << "expected std::logic_error";
  } catch (const std::logic_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("switch0"), std::string::npos) << what;
    EXPECT_NE(what.find("receiver0"), std::string::npos) << what;
  }
  EXPECT_THROW((void)topo.net.BaseRtt(topo.senders[0], topo.receiver, 1, 2),
               std::logic_error);
}

TEST(ChainMergeTest, MergeAtLastHopShortensSender1Path) {
  Simulator sim;
  Rng rng(1);
  BuiltTopology topo = BuildSinkTopology(
      &sim, &rng, "chain_merge", {.num_switches = 3, .merge_switch = 2});
  topo.net.ComputeRoutes();
  // sender1's path enters at switch 2: only 1 switch before the receiver.
  const auto p1 = topo.net.Path(topo.senders[1], topo.receiver, 1, 2);
  EXPECT_EQ(p1.size(), 3u);  // sender1, sw2, receiver
  const auto p0 = topo.net.Path(topo.senders[0], topo.receiver, 1, 2);
  EXPECT_EQ(p0.size(), 5u);  // sender0, sw0, sw1, sw2, receiver
}

class FatTreeTest : public ::testing::TestWithParam<int> {};

TEST_P(FatTreeTest, StructureCounts) {
  const int k = GetParam();
  Simulator sim;
  Rng rng(1);
  const BuiltTopology topo =
      BuildSinkTopology(&sim, &rng, "fat_tree", {.k = k});
  const int half = k / 2;
  EXPECT_EQ(topo.hosts.size(), static_cast<std::size_t>(k * half * half));
  EXPECT_EQ(SwitchesNamed(topo.net, "edge_p").size(),
            static_cast<std::size_t>(k * half));
  EXPECT_EQ(SwitchesNamed(topo.net, "agg_p").size(),
            static_cast<std::size_t>(k * half));
  EXPECT_EQ(SwitchesNamed(topo.net, "core").size(),
            static_cast<std::size_t>(half * half));
}

TEST_P(FatTreeTest, AllPairsReachable) {
  const int k = GetParam();
  Simulator sim;
  Rng rng(1);
  BuiltTopology topo = BuildSinkTopology(&sim, &rng, "fat_tree", {.k = k});
  topo.net.ComputeRoutes();
  Rng pick(99);
  for (int trial = 0; trial < 30; ++trial) {
    const auto s = static_cast<std::size_t>(
        pick.UniformInt(0, topo.hosts.size() - 1));
    auto d = static_cast<std::size_t>(
        pick.UniformInt(0, topo.hosts.size() - 2));
    if (d >= s) ++d;
    const auto path = topo.net.Path(topo.hosts[s], topo.hosts[d],
                                    static_cast<std::uint16_t>(trial), 555);
    EXPECT_GE(path.size(), 3u);   // at least host-edge-host
    EXPECT_LE(path.size(), 7u);   // at most host-edge-agg-core-agg-edge-host
    EXPECT_EQ(path.front(), topo.hosts[s]);
    EXPECT_EQ(path.back(), topo.hosts[d]);
  }
}

TEST_P(FatTreeTest, SymmetricEcmpReversesEveryPath) {
  // Observation 2: with symmetric tables the ACK path is the exact reverse
  // of the data path — the property FNCC's return-path INT depends on.
  const int k = GetParam();
  Simulator sim;
  Rng rng(1);
  BuiltTopology topo = BuildSinkTopology(&sim, &rng, "fat_tree", {.k = k});
  topo.net.ComputeRoutes(/*salt=*/0x5eed, /*symmetric=*/true);
  Rng pick(7);
  for (int trial = 0; trial < 50; ++trial) {
    const auto s = static_cast<std::size_t>(
        pick.UniformInt(0, topo.hosts.size() - 1));
    auto d = static_cast<std::size_t>(
        pick.UniformInt(0, topo.hosts.size() - 2));
    if (d >= s) ++d;
    const auto sport = static_cast<std::uint16_t>(pick.UniformInt(1, 60000));
    const auto dport = static_cast<std::uint16_t>(pick.UniformInt(1, 60000));
    auto fwd = topo.net.Path(topo.hosts[s], topo.hosts[d], sport, dport);
    const auto rev = topo.net.Path(topo.hosts[d], topo.hosts[s], dport, sport);
    std::reverse(fwd.begin(), fwd.end());
    EXPECT_EQ(fwd, rev) << "trial " << trial;
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, FatTreeTest, ::testing::Values(4, 8));

TEST(FatTreeAsymmetryTest, PlainHashBreaksPathSymmetry) {
  Simulator sim;
  Rng rng(1);
  BuiltTopology topo = BuildSinkTopology(&sim, &rng, "fat_tree", {.k = 8});
  topo.net.ComputeRoutes(/*salt=*/0x5eed, /*symmetric=*/false);
  Rng pick(7);
  int asymmetric = 0;
  for (int trial = 0; trial < 50; ++trial) {
    const auto s = static_cast<std::size_t>(
        pick.UniformInt(0, topo.hosts.size() - 1));
    auto d = static_cast<std::size_t>(
        pick.UniformInt(0, topo.hosts.size() - 2));
    if (d >= s) ++d;
    const auto sport = static_cast<std::uint16_t>(pick.UniformInt(1, 60000));
    const auto dport = static_cast<std::uint16_t>(pick.UniformInt(1, 60000));
    auto fwd = topo.net.Path(topo.hosts[s], topo.hosts[d], sport, dport);
    const auto rev = topo.net.Path(topo.hosts[d], topo.hosts[s], dport, sport);
    std::reverse(fwd.begin(), fwd.end());
    if (fwd != rev) ++asymmetric;
  }
  EXPECT_GT(asymmetric, 5);  // plain hashing routinely diverges
}

TEST(FatTreeRoutingTest, EachPoolHoldsItsOneSetOnce) {
  // The ECMP pool holds each distinct port set once. In a k-ary fat-tree
  // an edge switch reaches every host off other edges through the same
  // k/2 aggs, and an agg reaches every host in other pods through the same
  // k/2 cores, so each of their pools is one k/2-wide set; a core has one
  // port per pod (no multi-port routes). Routing the fabric again reuses
  // the sets it already holds.
  constexpr int k = 8;
  constexpr std::size_t half = k / 2;
  Simulator sim;
  Rng rng(1);
  BuiltTopology topo = BuildSinkTopology(&sim, &rng, "fat_tree", {.k = k});
  for (int pass = 0; pass < 2; ++pass) {
    SCOPED_TRACE(pass);
    topo.net.ComputeRoutes();
    std::size_t checked = 0;
    for (const Switch* sw : topo.net.switches()) {
      SCOPED_TRACE(sw->name());
      const bool core = sw->name().rfind("core", 0) == 0;
      EXPECT_EQ(sw->routing().pool_size(), core ? 0 : half);
      ++checked;
    }
    EXPECT_EQ(checked, static_cast<std::size_t>(k * k + k * k / 4));
  }
}

TEST(NetworkMoveTest, MovePreservesNodeCachesAndWiring) {
  // Topology builders return {Network, ids} structs by value; a move must
  // keep the raw-pointer caches (switches_/hosts_) and the EgressPort peer
  // wiring pointing at the still-live heap-owned nodes.
  Simulator sim;
  Rng rng(1);
  BuiltTopology topo =
      BuildSinkTopology(&sim, &rng, "dumbbell",
                        {.num_senders = 2, .num_switches = 2});
  const NodeId sw0 = topo.net.switches()[0]->id();
  const Node* sw0_before = topo.net.node(sw0);

  Network moved = std::move(topo.net);
  EXPECT_EQ(moved.sim(), &sim);
  EXPECT_EQ(moved.num_nodes(), 5u);  // 2 senders + receiver + 2 switches
  EXPECT_EQ(moved.node(sw0), sw0_before);
  ASSERT_EQ(moved.switches().size(), 2u);
  EXPECT_EQ(moved.switches()[0], sw0_before);
  // Link wiring survives: routing still resolves end to end.
  moved.ComputeRoutes();
  const auto path = moved.Path(topo.senders[0], topo.receiver, 1000, 2000);
  EXPECT_EQ(path.size(), 4u);
}

TEST(NetworkMoveTest, MovedFromNetworkIsEmpty) {
  Simulator sim;
  Network net(&sim);
  Network moved = std::move(net);
  // Contract (see Network's class comment): the source is left empty and
  // must not be reused. These observable properties are what the debug
  // assertions key on.
  EXPECT_EQ(net.num_nodes(), 0u);      // NOLINT(bugprone-use-after-move)
  EXPECT_TRUE(net.hosts().empty());    // NOLINT(bugprone-use-after-move)
  EXPECT_TRUE(net.switches().empty()); // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(moved.sim(), &sim);
}

TEST(FatTreeTest8, InterPodRttLargerThanIntraRack) {
  Simulator sim;
  Rng rng(1);
  BuiltTopology topo = BuildSinkTopology(&sim, &rng, "fat_tree", {.k = 4});
  topo.net.ComputeRoutes();
  // hosts 0 and 1 share an edge switch; hosts 0 and 12 are in other pods.
  const Time near = topo.net.BaseRtt(topo.hosts[0], topo.hosts[1], 1, 2);
  const Time far = topo.net.BaseRtt(topo.hosts[0], topo.hosts[12], 1, 2);
  EXPECT_LT(near, far);
}

}  // namespace
}  // namespace fncc
