// Owns every node in a simulated fabric, wires links, computes equal-cost
// routes, and answers path/RTT queries.
#pragma once

#include <cassert>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "net/node.hpp"
#include "net/packet.hpp"
#include "net/switch.hpp"
#include "sim/rng.hpp"
#include "sim/simulator.hpp"

namespace fncc {

/// Creates an end host for a topology builder. The net layer knows only the
/// Endpoint interface; the transport layer supplies concrete hosts.
using HostFactory = std::function<std::unique_ptr<Endpoint>(
    Simulator* sim, NodeId id, const std::string& name)>;

/// Ownership contract: Network owns its nodes (nodes_) and caches raw
/// pointers to them (switches_, hosts_, and the EgressPort peer wiring).
/// Those caches stay valid across a move because node storage is
/// individually heap-owned — moving the Network moves the unique_ptrs, not
/// the nodes. The Simulator is never owned; it must outlive the Network.
///
/// Moves exist solely so topology builders can return {Network, ids}
/// structs by value. A moved-from Network is empty (sim() == nullptr,
/// num_nodes() == 0) and must not be used again except to destroy or
/// assign into — enforced by assertions on the accessors below.
class Network {
 public:
  explicit Network(Simulator* sim) : sim_(sim) {}
  Network(Network&& other) noexcept;
  Network& operator=(Network&& other) noexcept;

  [[nodiscard]] Simulator* sim() const {
    assert(sim_ != nullptr && "use of moved-from Network");
    return sim_;
  }

  [[nodiscard]] NodeId next_id() const {
    assert(sim_ != nullptr && "use of moved-from Network");
    return static_cast<NodeId>(nodes_.size());
  }

  /// Adds a node whose id must equal next_id(). Returns the id.
  NodeId AddNode(std::unique_ptr<Node> node);

  /// Convenience: constructs and adds a switch.
  Switch* AddSwitch(const std::string& name, const SwitchConfig& config,
                    Rng* rng);

  /// Convenience: constructs a host through the factory and adds it.
  Endpoint* AddHost(const HostFactory& factory, const std::string& name);

  /// Event-domain grouping: topology builders tag node batches with a
  /// group id before adding them (per pod for fat_tree, per leaf group for
  /// leaf_spine). Sticky until the next call. Nodes are assigned — and,
  /// when the simulator is partitioned, constructed inside — event lane
  /// `group % sim->num_lanes()`, so their construction-time timers land in
  /// the lane that will run them.
  void SetNodeGroup(int group) { node_group_ = group; }

  /// Finalizes domain partitioning after all wiring: marks every link
  /// whose endpoints live in different event lanes as a cross-lane handoff
  /// edge (both directions) and sets the simulator's conservative
  /// lookahead to the minimum propagation delay over those links. Also
  /// sets the simulator's settle_delay() (the largest delay over all
  /// links) at every lane count. Call exactly once, after the last Connect
  /// and before any traffic.
  void SealDomains();

  /// Wires a full-duplex link between (a, port_a) and (b, port_b) with the
  /// same rate/delay in both directions. Endpoint ports must be 0.
  void Connect(NodeId a, int port_a, NodeId b, int port_b, double gbps,
               Time propagation_delay);

  /// Allocates the next unused port index on a switch (0 for endpoints).
  int AllocPort(NodeId node);

  /// Ports already allocated on a node by ConnectAuto/AllocPort.
  [[nodiscard]] int AllocatedPorts(NodeId node) const {
    return next_port_.at(node);
  }

  /// Connects with automatic port allocation on both sides.
  void ConnectAuto(NodeId a, NodeId b, double gbps, Time propagation_delay);

  /// Builds destination-based equal-cost routing tables on every switch
  /// and configures every switch's ECMP hash: one BFS over the switches
  /// per switch that hosts attach to, whose next-hop sets all of its hosts
  /// share. Throws std::logic_error naming a host that does not have
  /// exactly one link, to a switch. Sizes the simulator's INT blocks to
  /// the longest path it routes (see RecordSwitchPath), so it must run
  /// before the first INT push.
  void ComputeRoutes(std::uint32_t ecmp_salt = 0, bool symmetric = true);

  /// Observation 2 method 2 (TCP-Bolt style): builds `num_trees` spanning
  /// trees rooted at spread-out switches and routes every flow on the tree
  /// its symmetric five-tuple hash selects. Within a tree the path between
  /// any two hosts is unique, so data and ACK paths coincide by
  /// construction — no per-hop hash symmetry needed. Takes precedence over
  /// ComputeRoutes' ECMP tables. Sizes INT blocks like ComputeRoutes.
  void ComputeSpanningTreeRoutes(int num_trees, std::uint32_t salt = 0);

  /// Node ids a packet with this header would visit, src and dst inclusive.
  /// Throws std::logic_error naming the switch and the destination when a
  /// switch on the way has no route to dst (the fabric was never routed).
  [[nodiscard]] std::vector<NodeId> Path(NodeId src, NodeId dst,
                                         std::uint16_t sport,
                                         std::uint16_t dport) const;

  /// Unloaded round-trip time for a data packet of `data_bytes` from src to
  /// dst plus its `ack_bytes` ACK back, following the flow's ECMP paths:
  /// per-hop serialization + propagation in both directions.
  [[nodiscard]] Time BaseRtt(NodeId src, NodeId dst, std::uint16_t sport,
                             std::uint16_t dport,
                             std::uint32_t data_bytes = kDefaultMtuBytes,
                             std::uint32_t ack_bytes = kAckBytes) const;

  [[nodiscard]] Node* node(NodeId id) const { return nodes_.at(id).get(); }
  [[nodiscard]] std::size_t num_nodes() const { return nodes_.size(); }
  [[nodiscard]] const std::vector<Switch*>& switches() const {
    return switches_;
  }
  [[nodiscard]] const std::vector<Endpoint*>& hosts() const { return hosts_; }

  /// Sum of PFC pause frames sent by all switches.
  [[nodiscard]] std::uint64_t TotalPauseFrames() const;
  /// Sum of packet drops at all switches (0 in a healthy lossless run).
  [[nodiscard]] std::uint64_t TotalDrops() const;

 private:
  struct Adjacency {
    int local_port;
    NodeId peer;
    double gbps;
    Time prop;
  };

  [[nodiscard]] EgressPort& PortOf(NodeId node, int port);
  /// One-directional egress info from `node` toward `peer` (asserts found).
  [[nodiscard]] const Adjacency& Edge(NodeId node, NodeId peer) const;

  /// Event lane the current node group maps to (0 when unpartitioned).
  [[nodiscard]] int GroupLane() const;

  /// Notes that installed routing can send a packet across `switches`
  /// switches and sizes the simulator's INT blocks to the longest such
  /// path over every routing installed so far, capped at kMaxIntHops.
  void RecordSwitchPath(int switches);

  Simulator* sim_;
  std::vector<std::unique_ptr<Node>> nodes_;
  std::vector<Switch*> switches_;
  std::vector<Endpoint*> hosts_;
  std::vector<std::vector<Adjacency>> adj_;
  std::vector<int> next_port_;
  int node_group_ = 0;
  int longest_switch_path_ = 0;
};

}  // namespace fncc
