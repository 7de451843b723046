#include "net/routing.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <deque>
#include <limits>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "../test_util.hpp"
#include "net/packet_pool.hpp"
#include "net/topology.hpp"

namespace fncc {
namespace {

TEST(EcmpHashTest, DeterministicForSameInputs) {
  EXPECT_EQ(EcmpHash(1, 2, 100, 200, 17, 0, true),
            EcmpHash(1, 2, 100, 200, 17, 0, true));
}

TEST(EcmpHashTest, SymmetricModeMatchesReverseFlow) {
  // A flow and its reverse (ACK direction) must hash identically.
  for (std::uint32_t salt : {0u, 1u, 0xdeadbeefu}) {
    EXPECT_EQ(EcmpHash(3, 9, 1234, 5678, 17, salt, true),
              EcmpHash(9, 3, 5678, 1234, 17, salt, true));
  }
}

TEST(EcmpHashTest, AsymmetricModeGenerallyDiffersOnReverse) {
  int differing = 0;
  for (NodeId a = 1; a <= 20; ++a) {
    const NodeId b = a + 13;
    if (EcmpHash(a, b, 1000, 2000, 17, 7, false) !=
        EcmpHash(b, a, 2000, 1000, 17, 7, false)) {
      ++differing;
    }
  }
  EXPECT_GT(differing, 10);  // overwhelmingly asymmetric
}

TEST(EcmpHashTest, SaltChangesSelection) {
  int differing = 0;
  for (std::uint16_t p = 0; p < 50; ++p) {
    if (EcmpHash(1, 2, p, 999, 17, 1, true) !=
        EcmpHash(1, 2, p, 999, 17, 2, true)) {
      ++differing;
    }
  }
  EXPECT_GT(differing, 40);
}

TEST(EcmpHashTest, SpreadsAcrossBuckets) {
  std::set<std::uint32_t> buckets;
  for (std::uint16_t p = 0; p < 256; ++p) {
    buckets.insert(EcmpHash(1, 2, p, 999, 17, 0, true) % 4);
  }
  EXPECT_EQ(buckets.size(), 4u);  // all 4 next hops used
}

TEST(RoutingTableTest, SingleNextHopNeedsNoHash) {
  RoutingTable rt(4);
  rt.SetNextHops(2, std::array{5});
  Packet p;
  p.src = 0;
  p.dst = 2;
  EXPECT_EQ(rt.Select(p, 0, true), 5);
  EXPECT_TRUE(rt.HasRoute(2));
  EXPECT_FALSE(rt.HasRoute(3));
}

TEST(RoutingTableTest, SelectsFromEqualCostSetOnly) {
  RoutingTable rt(4);
  rt.SetNextHops(1, std::array{2, 4, 6});
  for (std::uint16_t sport = 0; sport < 64; ++sport) {
    Packet p;
    p.src = 0;
    p.dst = 1;
    p.sport = sport;
    const int out = rt.Select(p, 0, true);
    EXPECT_TRUE(out == 2 || out == 4 || out == 6);
  }
}

TEST(RoutingTableTest, FlowStickiness) {
  RoutingTable rt(4);
  rt.SetNextHops(1, std::array{0, 1, 2, 3});
  Packet p;
  p.src = 0;
  p.dst = 1;
  p.sport = 777;
  p.dport = 888;
  const int first = rt.Select(p, 42, true);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(rt.Select(p, 42, true), first);
}

TEST(RoutingTableTest, DataAndAckPickMirrorPorts) {
  // Same table, same salt: the reverse five-tuple must select the same
  // index into the (consistently ordered) next-hop list.
  RoutingTable rt(16);
  rt.SetNextHops(7, std::array{1, 2, 3, 4});
  rt.SetNextHops(9, std::array{1, 2, 3, 4});
  Packet data;
  data.src = 9;
  data.dst = 7;
  data.sport = 5555;
  data.dport = 6666;
  Packet ack;
  ack.src = 7;
  ack.dst = 9;
  ack.sport = 6666;
  ack.dport = 5555;
  EXPECT_EQ(rt.Select(data, 3, true), rt.Select(ack, 3, true));
}

TEST(RoutingTableTest, IdenticalSetsShareOnePoolSpan) {
  RoutingTable rt(8);
  rt.SetNextHops(1, std::array{1, 2, 3});
  rt.SetNextHops(2, std::array{1, 2, 3});
  rt.SetNextHops(3, std::array{1, 2});
  rt.SetNextHops(4, std::array{1, 2, 3});
  EXPECT_EQ(rt.pool_size(), 5u);
  EXPECT_EQ(rt.NextHops(4), (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(rt.NextHops(3), (std::vector<int>{1, 2}));
  EXPECT_TRUE(rt.NextHops(5).empty());
}

// The per-destination BFS that Network::ComputeRoutes used to run, kept as
// the oracle for its per-attachment-switch rewrite: a BFS from every
// host, then at every reached switch the neighbours one step closer to it,
// ordered by (peer id, port). Links are read back from the wired ports.
struct Link {
  NodeId peer;
  int port;
};

std::vector<std::vector<Link>> WiredLinks(const Network& net) {
  std::vector<std::vector<Link>> links(net.num_nodes());
  for (const Switch* sw : net.switches()) {
    for (int p = 0; p < sw->num_ports(); ++p) {
      const EgressPort& port = sw->port(p);
      if (port.connected()) {
        links[sw->id()].push_back({port.peer().node->id(), p});
      }
    }
  }
  for (Endpoint* host : net.hosts()) {
    if (host->nic().connected()) {
      links[host->id()].push_back({host->nic().peer().node->id(), 0});
    }
  }
  return links;
}

/// Reference next hops of every switch toward `dst`, indexed by node id.
std::vector<std::vector<int>> ReferenceNextHops(
    const Network& net, const std::vector<std::vector<Link>>& links,
    NodeId dst) {
  constexpr int kUnreached = std::numeric_limits<int>::max();
  std::vector<int> dist(net.num_nodes(), kUnreached);
  std::deque<NodeId> frontier{dst};
  dist[dst] = 0;
  while (!frontier.empty()) {
    const NodeId cur = frontier.front();
    frontier.pop_front();
    for (const Link& l : links[cur]) {
      if (!net.node(l.peer)->IsSwitch() && l.peer != dst) continue;
      if (dist[l.peer] == kUnreached) {
        dist[l.peer] = dist[cur] + 1;
        if (net.node(l.peer)->IsSwitch()) frontier.push_back(l.peer);
      }
    }
  }
  std::vector<std::vector<int>> hops(net.num_nodes());
  for (const Switch* sw : net.switches()) {
    if (dist[sw->id()] == kUnreached) continue;
    std::vector<std::pair<NodeId, int>> closer;
    for (const Link& l : links[sw->id()]) {
      if (dist[l.peer] == dist[sw->id()] - 1) {
        closer.emplace_back(l.peer, l.port);
      }
    }
    std::sort(closer.begin(), closer.end());
    for (const auto& [peer, port] : closer) hops[sw->id()].push_back(port);
  }
  return hops;
}

TEST(ComputeRoutesTest, MatchesPerDestinationBfsOnEveryTopology) {
  const std::vector<std::pair<std::string, TopologyParams>> cases = {
      {"dumbbell", {.num_senders = 3, .num_switches = 3}},
      {"dumbbell", {.num_senders = 1, .num_switches = 1}},
      {"chain_merge", {.num_switches = 3, .merge_switch = 0}},
      {"chain_merge", {.num_switches = 3, .merge_switch = 2}},
      {"fat_tree", {.k = 4}},
      {"fat_tree", {.k = 8}},
      {"leaf_spine", {}},
      {"leaf_spine",
       {.leaves = 4, .spines = 3, .hosts_per_leaf = 4,
        .oversubscription = 2.0}},
      {"multirail_dumbbell", {.num_senders = 2, .rails = 3}},
  };
  for (const std::string& name : TopologyRegistry::Names()) {
    EXPECT_TRUE(std::any_of(cases.begin(), cases.end(),
                            [&](const auto& c) { return c.first == name; }))
        << "no routing case for registered topology " << name;
  }
  for (const auto& [name, params] : cases) {
    SCOPED_TRACE(name);
    Simulator sim;
    Rng rng(1);
    BuiltTopology topo = test::BuildSinkTopology(&sim, &rng, name, params);
    topo.net.ComputeRoutes(/*salt=*/0x5eed, /*symmetric=*/true);
    const std::vector<std::vector<Link>> links = WiredLinks(topo.net);
    std::size_t multipath = 0;
    for (const Endpoint* dst : topo.net.hosts()) {
      const std::vector<std::vector<int>> expected =
          ReferenceNextHops(topo.net, links, dst->id());
      for (const Switch* sw : topo.net.switches()) {
        const std::vector<int> ports = sw->routing().NextHops(dst->id());
        EXPECT_EQ(ports, expected[sw->id()])
            << sw->name() << " toward " << dst->name();
        if (ports.size() > 1) ++multipath;
      }
    }
    if (name == "fat_tree" || name == "multirail_dumbbell") {
      EXPECT_GT(multipath, 0u);  // the ECMP sets were compared too
    }
  }
}

/// A host with two NICs: each Connect takes the next one, so a miswired
/// fabric can hang one host off two switches.
class DualHomedEndpoint final : public Endpoint {
 public:
  DualHomedEndpoint(Simulator* sim, NodeId id, const std::string& name)
      : Endpoint(sim, id, name), nics_{EgressPort(sim), EgressPort(sim)} {}

  EgressPort& nic() override { return nics_[next_++ % nics_.size()]; }
  void ReceivePacket(PacketPtr /*pkt*/, int /*in_port*/) override {}

 private:
  std::array<EgressPort, 2> nics_;
  std::size_t next_ = 0;
};

TEST(ComputeRoutesTest, HostOnTwoSwitchesThrowsNamingIt) {
  Simulator sim;
  Rng rng(1);
  Network net(&sim);
  const NodeId host =
      net.AddHost(
             [](Simulator* s, NodeId id, const std::string& name) {
               return std::make_unique<DualHomedEndpoint>(s, id, name);
             },
             "dual0")
          ->id();
  SwitchConfig config;
  config.num_ports = 2;
  const NodeId a = net.AddSwitch("a", config, &rng)->id();
  const NodeId b = net.AddSwitch("b", config, &rng)->id();
  net.ConnectAuto(host, a, 100.0, 1000);
  net.ConnectAuto(host, b, 100.0, 1000);
  net.ConnectAuto(a, b, 100.0, 1000);
  try {
    net.ComputeRoutes();
    FAIL() << "ComputeRoutes accepted a host with two links";
  } catch (const std::logic_error& e) {
    EXPECT_NE(std::string(e.what()).find("dual0"), std::string::npos)
        << e.what();
  }
}

// ------------------------------------------------------- INT block sizing
// Routing sizes every lane's INT blocks to the longest switch path it
// installs (Network::RecordSwitchPath), capped at kMaxIntHops.

/// Routes `kind` with ECMP and returns the INT block size it chose, after
/// checking that it is the longest routed host-to-host switch path, capped
/// at kMaxIntHops.
int RoutedBlockHops(const std::string& kind, const TopologyParams& params) {
  Simulator sim;
  Rng rng(1);
  BuiltTopology topo = test::BuildSinkTopology(&sim, &rng, kind, params);
  topo.net.ComputeRoutes(/*salt=*/0x5eed, /*symmetric=*/true);
  const int hops = sim.packet_pool().int_block_hops();
  std::size_t longest = 0;
  for (const NodeId src : topo.hosts) {
    for (const NodeId dst : topo.hosts) {
      if (src == dst) continue;
      longest = std::max(longest, topo.net.Path(src, dst, 1000, 2000).size());
    }
  }
  // Path lists both hosts; the rest are switches.
  EXPECT_EQ(std::min(static_cast<int>(longest) - 2, kMaxIntHops), hops)
      << kind;
  return hops;
}

TEST(IntBlockSizeTest, RoutingSizesBlocksToTheLongestSwitchPath) {
  EXPECT_EQ(RoutedBlockHops("fat_tree", {.k = 4}), 5);
  EXPECT_EQ(RoutedBlockHops("fat_tree", {.k = 8}), 5);
  EXPECT_EQ(RoutedBlockHops("leaf_spine", {}), 3);
  EXPECT_EQ(RoutedBlockHops("dumbbell", {.num_switches = 3}), 3);
  EXPECT_EQ(RoutedBlockHops("dumbbell", {.num_switches = 14}), kMaxIntHops);
}

TEST(IntBlockSizeTest, FourteenHopAckCarriesTwelveEntries) {
  // A chain longer than kMaxIntHops: the block is capped at kMaxIntHops,
  // and an FNCC ACK crossing all 14 switches stops stamping at exactly
  // that many entries, as it did with fixed-size blocks.
  Simulator sim;
  Rng rng(1);
  SwitchConfig config;
  config.stamp_ack_int = true;
  BuiltTopology topo = TopologyRegistry::Build(
      "dumbbell", &sim, test::SinkFactory(), config, &rng,
      {.num_senders = 1, .num_switches = 14});
  topo.net.ComputeRoutes();
  ASSERT_EQ(sim.packet_pool().int_block_hops(), kMaxIntHops);
  const NodeId sender = topo.senders.front();
  static_cast<test::SinkEndpoint*>(topo.net.node(topo.receiver))
      ->nic()
      .Enqueue(test::MakeAck(sim.packet_pool(), topo.receiver, sender));
  sim.Run();
  const auto& got =
      static_cast<test::SinkEndpoint*>(topo.net.node(sender))->received;
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0]->int_stack().size(),
            static_cast<std::size_t>(kMaxIntHops));
  EXPECT_TRUE(got[0]->int_full());
}

TEST(IntBlockSizeTest, SpanningTreeRoutesNeverTruncate) {
  for (const int trees : {1, 2, 4, 8}) {
    Simulator sim;
    Rng rng(1);
    BuiltTopology topo =
        test::BuildSinkTopology(&sim, &rng, "fat_tree", {.k = 4});
    topo.net.ComputeSpanningTreeRoutes(trees, /*salt=*/0x7ee5);
    const int hops = sim.packet_pool().int_block_hops();
    for (const NodeId src : topo.hosts) {
      for (const NodeId dst : topo.hosts) {
        if (src == dst) continue;
        for (std::uint16_t port = 0; port < 8; ++port) {
          const std::size_t switches =
              topo.net.Path(src, dst, port, 2000).size() - 2;
          EXPECT_LE(static_cast<int>(switches), hops)
              << trees << " trees, " << src << " -> " << dst;
        }
      }
    }
  }
}

}  // namespace
}  // namespace fncc
