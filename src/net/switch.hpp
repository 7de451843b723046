// Output-queued shared-buffer switch with PFC, ECN marking, HPCC/FNCC INT
// stamping (Alg. 1 / Fig. 8) and an optional RoCC PI controller per port.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "net/egress_port.hpp"
#include "net/node.hpp"
#include "net/packet.hpp"
#include "net/routing.hpp"
#include "sim/rng.hpp"

namespace fncc {

/// RoCC's switch-side proportional-integral fair-rate controller settings.
/// Defaults give the millisecond-scale convergence the paper observes.
struct RoccParams {
  Time update_interval = 10 * kMicrosecond;
  std::uint64_t qref_bytes = 20'000;  // queue setpoint
  double gain_a = 5e-6;   // Gbps per byte of queue error
  double gain_b = 2.5e-5;  // Gbps per byte of queue delta
  double min_rate_gbps = 0.5;
};

struct SwitchConfig {
  int num_ports = 0;

  // PFC (802.1Qbb). Thresholds are per ingress port (§5.1: XOFF 500 KB).
  bool pfc_enabled = true;
  std::uint64_t pfc_xoff_bytes = 500'000;
  std::uint64_t pfc_xon_bytes = 250'000;

  // Shared packet buffer; exceeding it drops (PFC should prevent this).
  std::uint64_t buffer_bytes = 32'000'000;

  // CC-scheme features (derived from the scenario's CC mode):
  bool stamp_data_int = false;  // HPCC: INT appended to data packets
  bool stamp_ack_int = false;   // FNCC: request-path INT appended to ACKs
  std::uint32_t int_bytes_per_hop = kIntBytesPerHop;

  // DCQCN RED/ECN marking. P_max defaults to the 1% the DCQCN paper
  // recommends — marking stays gentle below K_max, which is what makes
  // DCQCN's congestion reaction sluggish in the FNCC paper's comparisons.
  bool ecn_enabled = false;
  std::uint64_t ecn_kmin_bytes = 100'000;
  std::uint64_t ecn_kmax_bytes = 400'000;
  double ecn_pmax = 0.01;

  bool rocc_enabled = false;
  RoccParams rocc;

  /// 0 = the INT_Insert module reads live port counters. >0 = All_INT_Table
  /// is refreshed periodically at this interval (the paper's "updated
  /// periodically"), which the staleness ablation sweeps.
  Time int_table_refresh = 0;

  /// Optional transform applied to every stamped INT entry, given the
  /// previous entry stamped on the same port. The harness injects the
  /// Fig. 7 64-bit wire quantizer here (core/ack_format.hpp) to measure
  /// control quality under hardware bit widths; the net layer itself stays
  /// encoding-agnostic.
  std::function<IntEntry(const IntEntry& live, const IntEntry& prev)>
      int_transform;
};

class Switch final : public Node {
 public:
  Switch(Simulator* sim, NodeId id, std::string name, SwitchConfig config,
         Rng* rng);

  [[nodiscard]] int num_ports() const {
    return static_cast<int>(ports_.size());
  }
  [[nodiscard]] EgressPort& port(int i) { return ports_.at(i); }
  [[nodiscard]] const EgressPort& port(int i) const { return ports_.at(i); }

  [[nodiscard]] RoutingTable& routing() { return routing_; }
  [[nodiscard]] const RoutingTable& routing() const { return routing_; }
  void SetEcmp(std::uint32_t salt, bool symmetric) {
    ecmp_salt_ = salt;
    ecmp_symmetric_ = symmetric;
  }

  /// Observation 2 method 2: per-flow spanning-tree routing. When
  /// configured (num_trees > 0) it takes precedence over the ECMP tables;
  /// the tree index comes from the symmetric five-tuple hash, so a flow
  /// and its ACKs ride the same tree — and within a tree paths are unique.
  void ConfigureSpanningTrees(int num_trees, std::uint32_t salt);
  [[nodiscard]] int num_spanning_trees() const {
    return static_cast<int>(tree_routing_.size());
  }
  [[nodiscard]] RoutingTable& tree_routing(int tree) {
    return tree_routing_.at(tree);
  }

  void ReceivePacket(PacketPtr pkt, int in_port) override;

  /// Devirtualized delivery trampoline installed as this node's
  /// Node::deliver_event — link propagation events land here and call
  /// ReceivePacket through the final class, with no virtual dispatch.
  static void DeliverPacketEvent(void* sw, void* pkt, std::uint64_t in_port);

  /// Picks the egress port a packet with these header fields would take.
  /// Exposed so topologies can compute paths without sending traffic.
  [[nodiscard]] int RoutePacket(const Packet& pkt) const;

  // -- Statistics --
  [[nodiscard]] std::uint64_t pause_frames_sent() const {
    return pause_frames_sent_;
  }
  [[nodiscard]] std::uint64_t resume_frames_sent() const {
    return resume_frames_sent_;
  }
  [[nodiscard]] std::uint64_t drops() const { return drops_; }
  [[nodiscard]] std::uint64_t buffer_used_bytes() const {
    return buffer_used_;
  }

  [[nodiscard]] const SwitchConfig& config() const { return config_; }

  /// Runtime adjustment used by fault-injection tests.
  void set_buffer_bytes(std::uint64_t bytes) {
    config_.buffer_bytes = bytes;
  }

 private:
  struct RoccPortState {
    double fair_gbps = 0.0;
    std::uint64_t prev_qlen = 0;
    bool initialized = false;
  };

  // TypedEvent trampolines for the periodic per-switch timers.
  static void RefreshIntEvent(void* sw, void* unused, std::uint64_t arg);
  static void RoccUpdateEvent(void* sw, void* unused, std::uint64_t arg);
  // EgressPort::TransmitHook trampoline (ctx = this, arg = port index).
  static void TransmitStartHook(void* sw, std::uint64_t port_idx, Packet& pkt);

  void OnTransmitStart(int port_idx, Packet& pkt);
  /// Reads the INT for `port_idx` — live counters or the periodic table.
  [[nodiscard]] IntEntry IntFor(int port_idx) const;
  void RefreshIntTable();
  void UpdateRocc();

  void AccountIngress(const Packet& pkt);
  void ReleaseIngress(const Packet& pkt);
  void SendPfc(int ingress_port, bool pause);

  SwitchConfig config_;
  Rng rng_;  // owned: seeded once from the build rng (see constructor)
  std::vector<EgressPort> ports_;
  RoutingTable routing_;
  std::uint32_t ecmp_salt_ = 0;
  bool ecmp_symmetric_ = true;
  std::vector<RoutingTable> tree_routing_;  // spanning-tree mode if non-empty
  std::uint32_t tree_salt_ = 0;

  // PFC state per ingress port.
  std::vector<std::uint64_t> ingress_bytes_;
  std::vector<bool> pause_sent_;

  std::vector<IntEntry> int_table_;  // used when int_table_refresh > 0
  mutable std::vector<IntEntry> last_stamped_;  // per-port, for int_transform
  std::vector<RoccPortState> rocc_state_;

  std::uint64_t buffer_used_ = 0;
  std::uint64_t pause_frames_sent_ = 0;
  std::uint64_t resume_frames_sent_ = 0;
  std::uint64_t drops_ = 0;
};

}  // namespace fncc
