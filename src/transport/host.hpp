// End host: one NIC, sender QPs, and the receiver logic that generates
// (cumulative) ACKs — including FNCC's concurrent-flow count N and HPCC's
// INT echo — plus DCQCN CNPs.
//
// Flow state lives in the fabric-shared FlowTable (one indexed load per
// ACK/data packet — see flow_table.hpp for the slot/generation rule).
// Data packets whose FlowId was never registered (hand-crafted test
// traffic) fall back to a per-host overflow map, off the hot path.
#pragma once

#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "net/egress_port.hpp"
#include "net/node.hpp"
#include "transport/flow.hpp"
#include "transport/flow_table.hpp"
#include "transport/sender_qp.hpp"

namespace fncc {

struct HostConfig {
  std::uint32_t mtu_bytes = kDefaultMtuBytes;

  /// Cumulative ACK coalescing: one ACK per m data packets (§3.2.3 supports
  /// m >= 1; the paper's evaluation uses per-packet ACKs).
  int ack_every = 1;

  /// HPCC mode: the receiver copies the data packet's INT stack into the
  /// ACK. FNCC leaves this off — switches stamp the ACK on the way back.
  bool attach_int_to_ack = false;

  /// FNCC: write the number of active inbound flows N into every ACK.
  bool report_concurrent_flows = true;

  /// Echo the data packet's send timestamp in ACKs (Timely needs it).
  bool echo_timestamp = true;

  /// DCQCN: minimum spacing of congestion notification packets per flow.
  Time cnp_interval = 50 * kMicrosecond;

  /// Go-back-N safety retransmit timeout; 0 disables. PFC makes the fabric
  /// lossless, so this only fires in deliberately mis-tuned scenarios.
  Time rto = 5 * kMillisecond;
};

class Host final : public Endpoint {
 public:
  /// `flows` is the fabric-shared flow table; every host of a simulation
  /// must share one instance (the harness host factory injects it). A null
  /// table makes the host create its own — single-host tests only (two
  /// hosts with separate tables cannot exchange registered flows).
  Host(Simulator* sim, NodeId id, std::string name, HostConfig config,
       std::shared_ptr<FlowTable> flows = nullptr);

  [[nodiscard]] EgressPort& nic() override { return nic_; }
  void ReceivePacket(PacketPtr pkt, int in_port) override;

  /// Devirtualized delivery trampoline installed as this node's
  /// Node::deliver_event — link propagation events land here and call
  /// ReceivePacket through the final class, with no virtual dispatch.
  static void DeliverPacketEvent(void* host, void* pkt, std::uint64_t in_port);

  /// Batched-delivery prefetch hook (Node::prefetch_event): given the next
  /// packets an egress port will deliver here, sorts them by flow slot and
  /// prefetches each destination's hot line — the ACK path's HotFlowRow or
  /// the data path's slot head — one batch ahead of the delivery events.
  /// Pure cache warming: no state is read or written.
  static void PrefetchDeliveries(void* host, void* const* pkts, int n);

  /// Registers a flow (minting its FlowId — see flow_table.hpp) and
  /// schedules its start. The CcConfig must be fully resolved (line rate,
  /// base RTT). Returns the QP (owned by the shared flow table).
  SenderQp* StartFlow(const FlowSpec& spec, const CcConfig& cc_config);

  /// Invoked when a flow's last byte is acknowledged.
  std::function<void(const SenderQp&)> on_flow_complete;

  /// Active inbound flows — the N of Observation 4 (§3.2.3), sourced from
  /// the receiver's QP connection count.
  [[nodiscard]] int active_inbound_flows() const { return active_inbound_; }

  [[nodiscard]] const HostConfig& config() const { return config_; }

  /// Data packets that arrived ahead of the expected sequence (0 in a
  /// healthy lossless run: single-path FIFO forwarding cannot reorder).
  [[nodiscard]] std::uint64_t out_of_order_packets() const {
    return out_of_order_;
  }
  /// Data packets dropped because their flow's sender had completed at
  /// least one settle delay earlier (late go-back-N duplicates), released
  /// from the table or not.
  [[nodiscard]] std::uint64_t stale_flow_packets() const {
    return stale_flow_packets_;
  }
  /// This host's QP for `flow`, or nullptr when the id is stale, unknown,
  /// or belongs to another host.
  [[nodiscard]] SenderQp* qp(FlowId flow) const;
  [[nodiscard]] const std::vector<SenderQp*>& qps() const { return qp_list_; }

  /// The fabric-shared flow table (tests use it for release/reuse checks).
  [[nodiscard]] FlowTable& flow_table() { return *flows_; }
  [[nodiscard]] const std::shared_ptr<FlowTable>& flow_table_ptr() const {
    return flows_;
  }

  // Internal (called by SenderQp).
  void NotifyFlowComplete(SenderQp* qp);
  void TransmitFromQp(PacketPtr pkt);

  // Internal (called by FlowTable::Release to keep this host consistent).
  void ForgetQp(SenderQp* qp);
  void DropInboundClaim() { --active_inbound_; }

 private:
  void HandleData(PacketPtr pkt);
  void SendAck(const Packet& data, RecvCtx& ctx);
  void MaybeSendCnp(const Packet& data, RecvCtx& ctx);

  HostConfig config_;
  EgressPort nic_;
  std::shared_ptr<FlowTable> flows_;
  std::vector<SenderQp*> qp_list_;
  /// Receiver state for data whose FlowId names a slot the shared table
  /// never minted — an escape hatch for hand-crafted test traffic only,
  /// never touched by registered flows. (An id that names a minted slot
  /// but fails the generation check counts as a released flow's late data
  /// and is dropped, not parked here.) Crafting ids that later collide
  /// with table-minted ones is unsupported: the flow-id space belongs to
  /// the table.
  std::unordered_map<FlowId, RecvCtx> overflow_recv_;
  int active_inbound_ = 0;
  std::uint64_t out_of_order_ = 0;
  std::uint64_t stale_flow_packets_ = 0;
};

}  // namespace fncc
