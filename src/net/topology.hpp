// Topology builders for the paper's experiments — the dumbbell of Fig. 10,
// the merge-at-hop chains of Fig. 11, the 3-level fat-tree of §5.5 — plus a
// name-keyed TopologyRegistry so experiment specs can select any fabric
// declaratively ("topology.kind = leaf_spine"). New topologies register a
// builder; everything above (workloads, the experiment runner, fncc_run)
// picks them up with no further wiring.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "net/network.hpp"

namespace fncc {

/// Parameters shared by all builders.
struct LinkParams {
  double gbps = 100.0;
  Time propagation_delay = Microseconds(1.5);  // §5: 1.5 us on every link
};

/// Fig. 10: N senders into switch0, a chain of M switches, one receiver off
/// the last switch. The congestion point is switch0's egress toward switch1.
struct DumbbellTopology {
  Network net;
  std::vector<NodeId> senders;
  NodeId receiver = kInvalidNode;
  std::vector<NodeId> switches;

  /// The congested egress: switch0's port toward switch1 (or toward the
  /// receiver when M == 1).
  [[nodiscard]] Switch* congestion_switch() const {
    return static_cast<Switch*>(net.node(switches.front()));
  }
  [[nodiscard]] int congestion_port() const { return congestion_port_; }
  int congestion_port_ = -1;
};

DumbbellTopology BuildDumbbell(Simulator* sim, const HostFactory& hosts,
                               const SwitchConfig& sw_config, Rng* rng,
                               int num_senders, int num_switches,
                               const LinkParams& link);

/// Fig. 11: a chain of switches sw0..swM-1 with receiver0 after swM-1.
/// flow0's sender hangs off sw0; flow1's sender joins at `merge_switch`
/// (0 = first hop congestion, M-1 = last hop congestion). The congested
/// egress is merge_switch's port toward the next hop.
struct ChainMergeTopology {
  Network net;
  NodeId sender0 = kInvalidNode;
  NodeId sender1 = kInvalidNode;
  NodeId receiver = kInvalidNode;
  std::vector<NodeId> switches;
  int merge_switch = 0;
  int congestion_port_ = -1;

  [[nodiscard]] Switch* congestion_switch() const {
    return static_cast<Switch*>(net.node(switches[merge_switch]));
  }
  [[nodiscard]] int congestion_port() const { return congestion_port_; }
};

ChainMergeTopology BuildChainMerge(Simulator* sim, const HostFactory& hosts,
                                   const SwitchConfig& sw_config, Rng* rng,
                                   int num_switches, int merge_switch,
                                   const LinkParams& link);

/// §5.5: 3-level fat-tree with parameter k (k even): k pods of k/2 edge and
/// k/2 agg switches, (k/2)^2 cores, k^3/4 hosts, 1:1 oversubscription.
/// Wiring follows the canonical pattern (core_{x,y} attaches to agg #x of
/// every pod), which together with symmetric ECMP makes every ACK path the
/// exact reverse of its data path.
struct FatTreeTopology {
  Network net;
  int k = 0;
  std::vector<NodeId> hosts;
  std::vector<NodeId> edges;  // pod-major: pod p edge e = edges[p*k/2+e]
  std::vector<NodeId> aggs;   // pod-major
  std::vector<NodeId> cores;  // core_{x,y} = cores[x*k/2+y]
};

FatTreeTopology BuildFatTree(Simulator* sim, const HostFactory& hosts,
                             const SwitchConfig& sw_config, Rng* rng, int k,
                             const LinkParams& link);

/// Two-tier leaf–spine: `leaves` leaf switches with `hosts_per_leaf` hosts
/// each, every leaf connected to every one of `spines` spine switches.
/// Uplink rate is derived from the oversubscription ratio
///   oversubscription = (hosts_per_leaf * host_gbps) / (spines * uplink_gbps)
/// so 1.0 is full bisection and 4.0 a 4:1 oversubscribed fabric.
struct LeafSpineTopology {
  Network net;
  std::vector<NodeId> hosts;   // leaf-major: leaf l host h = hosts[l*H+h]
  std::vector<NodeId> leaves;
  std::vector<NodeId> spines;
  int hosts_per_leaf = 0;

  /// The last leaf's egress toward the last host — the classic last-hop
  /// incast point the monitors watch.
  [[nodiscard]] Switch* congestion_switch() const {
    return static_cast<Switch*>(net.node(leaves.back()));
  }
  [[nodiscard]] int congestion_port() const { return hosts_per_leaf - 1; }
};

LeafSpineTopology BuildLeafSpine(Simulator* sim, const HostFactory& hosts,
                                 const SwitchConfig& sw_config, Rng* rng,
                                 int leaves, int spines, int hosts_per_leaf,
                                 double oversubscription,
                                 const LinkParams& link);

/// Multi-rail dumbbell: N senders into switch A, `rails` parallel
/// equal-cost links A->B (ECMP spreads flows across the rails; symmetric
/// hashing keeps each flow's ACKs on its data rail), one receiver off B.
/// The monitored congestion point is B's egress toward the receiver, where
/// the rails re-converge.
struct MultiRailDumbbellTopology {
  Network net;
  std::vector<NodeId> senders;
  NodeId receiver = kInvalidNode;
  NodeId switch_a = kInvalidNode;
  NodeId switch_b = kInvalidNode;
  int rails = 0;

  [[nodiscard]] Switch* congestion_switch() const {
    return static_cast<Switch*>(net.node(switch_b));
  }
  [[nodiscard]] int congestion_port() const { return rails; }
};

MultiRailDumbbellTopology BuildMultiRailDumbbell(
    Simulator* sim, const HostFactory& hosts, const SwitchConfig& sw_config,
    Rng* rng, int num_senders, int rails, const LinkParams& link);

// --------------------------------------------------------------------------
// Declarative builder registry
// --------------------------------------------------------------------------

/// Union of every builder's knobs; each registered topology reads the
/// subset it understands and validates it (std::invalid_argument on bad
/// values). The spec layer (harness/experiment_spec) maps "topology.*" keys
/// onto these fields.
struct TopologyParams {
  // dumbbell / multirail_dumbbell
  int num_senders = 2;
  // dumbbell / chain_merge
  int num_switches = 3;
  // chain_merge: 0 = first hop, num_switches-1 = last hop
  int merge_switch = 2;
  // fat_tree
  int k = 4;
  // leaf_spine
  int leaves = 2;
  int spines = 2;
  int hosts_per_leaf = 2;
  double oversubscription = 1.0;
  // multirail_dumbbell
  int rails = 2;

  LinkParams link;
};

/// What every registered builder produces: the wired fabric plus the role
/// hints generic workloads need. `hosts` lists every endpoint in creation
/// order; `senders`/`receiver` are the preferred roles for sender->sink
/// patterns (topologies without distinguished roles nominate all-but-last /
/// last). A topology may expose one monitored congestion egress.
struct BuiltTopology {
  Network net;
  std::vector<NodeId> hosts;
  std::vector<NodeId> senders;
  NodeId receiver = kInvalidNode;
  NodeId congestion_node = kInvalidNode;
  int congestion_port = -1;

  [[nodiscard]] bool has_congestion_point() const {
    return congestion_node != kInvalidNode && congestion_port >= 0;
  }
  [[nodiscard]] Switch* congestion_switch() const {
    return static_cast<Switch*>(net.node(congestion_node));
  }
};

/// Natural event-domain count of a registered topology — the partitioning
/// its builder tags with Network::SetNodeGroup: k pods + the core group for
/// fat_tree, `leaves` leaf groups + the spine group for leaf_spine, 1 (no
/// partitioning) for everything else. `scenario.exec_domains = auto`
/// resolves to this.
[[nodiscard]] int TopologyNaturalDomains(const std::string& name,
                                         const TopologyParams& params);

using TopologyBuildFn = std::function<BuiltTopology(
    Simulator* sim, const HostFactory& hosts, const SwitchConfig& sw_config,
    Rng* rng, const TopologyParams& params)>;

/// Process-global name -> builder map. Built-ins (dumbbell, chain_merge,
/// fat_tree, leaf_spine, multirail_dumbbell) self-register on first use;
/// extensions may Register at any time before the first Build. Lookups are
/// case-sensitive. Not thread-safe for concurrent registration — register
/// before fanning out sweeps (the built-ins are installed eagerly).
class TopologyRegistry {
 public:
  /// Throws std::invalid_argument on a duplicate name.
  static void Register(const std::string& name, const std::string& description,
                       TopologyBuildFn build);

  [[nodiscard]] static bool Contains(const std::string& name);

  /// Builds `name` (throws std::invalid_argument for an unknown name or bad
  /// params). The returned fabric has routes computed with default ECMP
  /// settings; callers re-run ComputeRoutes for scenario-specific salt.
  static BuiltTopology Build(const std::string& name, Simulator* sim,
                             const HostFactory& hosts,
                             const SwitchConfig& sw_config, Rng* rng,
                             const TopologyParams& params);

  /// Registered names, sorted; and a one-line description per name.
  [[nodiscard]] static std::vector<std::string> Names();
  [[nodiscard]] static std::string Describe(const std::string& name);
};

}  // namespace fncc
