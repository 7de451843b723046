// The paper's fabrics behind one name-keyed TopologyRegistry — the dumbbell
// of Fig. 10, the merge-at-hop chains of Fig. 11, the 3-level fat-tree of
// §5.5, a leaf-spine and a multi-rail dumbbell — so experiment specs select
// any fabric declaratively ("topology.kind = leaf_spine"). A new topology is
// a builder plus a row in topology.cpp's table; everything above
// (workloads, the experiment runner, fncc_run) picks it up with no further
// wiring.
#pragma once

#include <string>
#include <vector>

#include "net/network.hpp"

namespace fncc {

/// Parameters shared by all builders.
struct LinkParams {
  double gbps = 100.0;
  Time propagation_delay = Microseconds(1.5);  // §5: 1.5 us on every link
};

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

  LinkParams link{};
};

/// What every registered builder produces: the wired fabric plus the role
/// hints generic workloads need. `hosts` lists every endpoint in creation
/// order; `senders`/`receiver` are the preferred roles for sender->sink
/// patterns (topologies without distinguished roles nominate all-but-last /
/// last). A topology may expose one monitored congestion egress.
struct BuiltTopology {
  explicit BuiltTopology(Simulator* sim) : net(sim) {}

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

/// Process-global name -> builder table of the built-ins (dumbbell,
/// chain_merge, fat_tree, leaf_spine, multirail_dumbbell). Lookups are
/// case-sensitive.
class TopologyRegistry {
 public:
  [[nodiscard]] static bool Contains(const std::string& name);

  /// Builds `name` (throws std::invalid_argument for an unknown name or bad
  /// params). The returned fabric is wired but unrouted: callers run
  /// Network::ComputeRoutes (or ComputeSpanningTreeRoutes) once, with the
  /// scenario's ECMP salt, before any path or traffic.
  static BuiltTopology Build(const std::string& name, Simulator* sim,
                             const HostFactory& hosts,
                             const SwitchConfig& sw_config, Rng* rng,
                             const TopologyParams& params);

  /// Registered names, sorted; and a one-line description per name.
  [[nodiscard]] static std::vector<std::string> Names();
  [[nodiscard]] static std::string Describe(const std::string& name);
};

}  // namespace fncc
