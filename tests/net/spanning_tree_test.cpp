// Observation 2 method 2: spanning-tree routing gives every flow a unique,
// automatically symmetric path — the alternative to symmetric ECMP tables.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <string>

#include "../test_util.hpp"
#include "net/topology.hpp"

namespace fncc {
namespace {

using test::BuildSinkTopology;

class SpanningTreeTest : public ::testing::TestWithParam<int> {
 protected:
  void BuildTrees(int k, int num_trees) {
    topo_ = std::make_unique<BuiltTopology>(
        BuildSinkTopology(&sim_, &rng_, "fat_tree", {.k = k}));
    topo_->net.ComputeSpanningTreeRoutes(num_trees, /*salt=*/0x7ee5);
  }

  Simulator sim_;
  Rng rng_{1};
  std::unique_ptr<BuiltTopology> topo_;
};

TEST_P(SpanningTreeTest, AllPairsReachable) {
  BuildTrees(4, GetParam());
  const auto& hosts = topo_->hosts;
  for (std::size_t s = 0; s < hosts.size(); ++s) {
    for (std::size_t d = 0; d < hosts.size(); ++d) {
      if (s == d) continue;
      const auto path = topo_->net.Path(hosts[s], hosts[d],
                                        static_cast<std::uint16_t>(s * 31),
                                        static_cast<std::uint16_t>(d * 17));
      EXPECT_EQ(path.front(), hosts[s]);
      EXPECT_EQ(path.back(), hosts[d]);
      // Loop-free: a tree path never revisits a node.
      std::set<NodeId> unique(path.begin(), path.end());
      EXPECT_EQ(unique.size(), path.size());
    }
  }
}

TEST_P(SpanningTreeTest, EveryPathIsSymmetric) {
  // The headline property: symmetry holds by construction, for every flow,
  // with no per-switch hash coordination at all.
  BuildTrees(8, GetParam());
  Rng pick(3);
  for (int trial = 0; trial < 100; ++trial) {
    const auto s = static_cast<std::size_t>(
        pick.UniformInt(0, topo_->hosts.size() - 1));
    auto d = static_cast<std::size_t>(
        pick.UniformInt(0, topo_->hosts.size() - 2));
    if (d >= s) ++d;
    const auto sport = static_cast<std::uint16_t>(pick.UniformInt(1, 60000));
    const auto dport = static_cast<std::uint16_t>(pick.UniformInt(1, 60000));
    auto fwd =
        topo_->net.Path(topo_->hosts[s], topo_->hosts[d], sport, dport);
    const auto rev =
        topo_->net.Path(topo_->hosts[d], topo_->hosts[s], dport, sport);
    std::reverse(fwd.begin(), fwd.end());
    EXPECT_EQ(fwd, rev);
  }
}

INSTANTIATE_TEST_SUITE_P(TreeCounts, SpanningTreeTest,
                         ::testing::Values(1, 2, 4, 8));

TEST(SpanningTreeDiversityTest, MultipleTreesSpreadLoad) {
  Simulator sim;
  Rng rng(1);
  BuiltTopology topo = BuildSinkTopology(&sim, &rng, "fat_tree", {.k = 8});
  topo.net.ComputeSpanningTreeRoutes(8, 0x7ee5);
  // Many flows between the same host pair must use more than one path.
  std::set<std::vector<NodeId>> paths;
  for (std::uint16_t p = 0; p < 64; ++p) {
    paths.insert(topo.net.Path(topo.hosts[0], topo.hosts[120],
                               static_cast<std::uint16_t>(1000 + p), 443));
  }
  EXPECT_GT(paths.size(), 2u);
}

TEST(SpanningTreeDiversityTest, SingleTreeIsDeterministic) {
  Simulator sim;
  Rng rng(1);
  BuiltTopology topo = BuildSinkTopology(&sim, &rng, "fat_tree", {.k = 4});
  topo.net.ComputeSpanningTreeRoutes(1, 0x7ee5);
  std::set<std::vector<NodeId>> paths;
  for (std::uint16_t p = 0; p < 32; ++p) {
    paths.insert(topo.net.Path(topo.hosts[0], topo.hosts[15],
                               static_cast<std::uint16_t>(1000 + p), 443));
  }
  EXPECT_EQ(paths.size(), 1u);  // one tree, one path
}

TEST(SpanningTreeDumbbellTest, WorksOnSingleBathTopologies) {
  Simulator sim;
  Rng rng(1);
  BuiltTopology topo =
      BuildSinkTopology(&sim, &rng, "dumbbell",
                        {.num_senders = 2, .num_switches = 3});
  topo.net.ComputeSpanningTreeRoutes(2);
  const auto path = topo.net.Path(topo.senders[0], topo.receiver, 1, 2);
  EXPECT_EQ(path.size(), 5u);  // unique path anyway
}

}  // namespace
}  // namespace fncc
