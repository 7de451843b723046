#include "net/switch.hpp"

#include <algorithm>
#include <cassert>

#include "net/packet_pool.hpp"
#include "sim/log.hpp"

namespace fncc {

// The build rng seeds a per-switch stream (one draw, in deterministic build
// order). Run-time draws — ECN marking — then touch only this switch's own
// engine, so their sequence depends only on this switch's packet order:
// safe and reproducible when switches run in parallel event lanes.
Switch::Switch(Simulator* sim, NodeId id, std::string name,
               SwitchConfig config, Rng* rng)
    : Node(sim, id, std::move(name), NodeKind::kSwitch),
      config_(config),
      rng_(rng != nullptr ? rng->engine()()
                          : 0x9e3779b97f4a7c15ull ^ static_cast<std::uint64_t>(id)) {
  set_deliver_event(&Switch::DeliverPacketEvent);
  assert(config_.num_ports > 0);
  ports_.reserve(config_.num_ports);
  for (int i = 0; i < config_.num_ports; ++i) {
    ports_.emplace_back(sim);
    // Devirtualized hook: a bare trampoline with (switch, port index) as
    // context words — no std::function call per transmitted packet.
    ports_.back().set_transmit_hook(&Switch::TransmitStartHook, this,
                                    static_cast<std::uint64_t>(i));
  }
  ingress_bytes_.assign(config_.num_ports, 0);
  pause_sent_.assign(config_.num_ports, false);
  int_table_.assign(config_.num_ports, IntEntry{});
  last_stamped_.assign(config_.num_ports, IntEntry{});
  rocc_state_.assign(config_.num_ports, RoccPortState{});

  if (config_.int_table_refresh > 0) {
    sim->Schedule(config_.int_table_refresh,
                  TypedEvent{.run = &Switch::RefreshIntEvent,
                             .drop = nullptr,
                             .p0 = this,
                             .p1 = nullptr,
                             .arg = 0});
  }
  if (config_.rocc_enabled) {
    sim->Schedule(config_.rocc.update_interval,
                  TypedEvent{.run = &Switch::RoccUpdateEvent,
                             .drop = nullptr,
                             .p0 = this,
                             .p1 = nullptr,
                             .arg = 0});
  }
}

void Switch::RefreshIntEvent(void* sw, void* /*unused*/, std::uint64_t /*arg*/) {
  static_cast<Switch*>(sw)->RefreshIntTable();
}

void Switch::RoccUpdateEvent(void* sw, void* /*unused*/, std::uint64_t /*arg*/) {
  static_cast<Switch*>(sw)->UpdateRocc();
}

void Switch::DeliverPacketEvent(void* sw, void* pkt, std::uint64_t in_port) {
  // Qualified call: Switch is final, so this resolves (and inlines) without
  // a vtable load — the per-hop delivery fast path.
  static_cast<Switch*>(sw)->Switch::ReceivePacket(
      WrapRawPacket(static_cast<Packet*>(pkt)), static_cast<int>(in_port));
}

void Switch::ConfigureSpanningTrees(int num_trees, std::uint32_t salt) {
  tree_routing_.assign(num_trees, RoutingTable());
  tree_salt_ = salt;
}

int Switch::RoutePacket(const Packet& pkt) const {
  if (!tree_routing_.empty()) {
    // The tree choice must be symmetric in the five-tuple so a flow and
    // its reverse direction agree on the tree.
    constexpr std::uint8_t kProtoUdp = 17;
    const std::uint32_t h =
        EcmpHash(pkt.src, pkt.dst, pkt.sport, pkt.dport, kProtoUdp,
                 tree_salt_, /*symmetric=*/true);
    const auto& table = tree_routing_[h % tree_routing_.size()];
    return table.Select(pkt, tree_salt_, /*symmetric=*/true);
  }
  return routing_.Select(pkt, ecmp_salt_, ecmp_symmetric_);
}

void Switch::ReceivePacket(PacketPtr pkt, int in_port) {
  // Link-local PFC frames control this switch's egress toward the sender
  // of the frame, i.e. the port the frame arrived on.
  if (pkt->type == PacketType::kPfcPause) {
    ports_[in_port].SetPaused(true);
    return;
  }
  if (pkt->type == PacketType::kPfcResume) {
    ports_[in_port].SetPaused(false);
    return;
  }

  // Alg. 1 line 3: the input engine records the arrival port. For ACKs this
  // is the request-path output port used to index All_INT_Table later; for
  // all packets it drives PFC ingress accounting.
  pkt->ingress_port = static_cast<std::uint16_t>(in_port);

  // Fig. 7 pathID: every switch XORs its 12-bit id into the packet, so two
  // packets crossed the same switch set iff their path_ids match.
  pkt->path_id ^= static_cast<std::uint16_t>(id() & 0xFFF);

  const int out_port = RoutePacket(*pkt);
  assert(out_port != in_port && "routing loop back out the ingress port");
  EgressPort& egress = ports_[out_port];

  // Shared-buffer admission. With PFC correctly configured this never
  // triggers; the counter exists to catch mis-tuned scenarios.
  if (buffer_used_ + pkt->size_bytes > config_.buffer_bytes) {
    ++drops_;
    Log(LogLevel::kWarn, sim()->Now(), "%s: buffer overflow, dropping flow=%u",
        name().c_str(), pkt->flow);
    return;
  }
  buffer_used_ += pkt->size_bytes;

  // DCQCN: RED-style ECN marking against the egress queue occupancy.
  if (config_.ecn_enabled && pkt->type == PacketType::kData) {
    const std::uint64_t q = egress.qlen_bytes();
    if (q > config_.ecn_kmax_bytes) {
      pkt->ecn_ce = true;
    } else if (q > config_.ecn_kmin_bytes) {
      const double p = config_.ecn_pmax *
                       static_cast<double>(q - config_.ecn_kmin_bytes) /
                       static_cast<double>(config_.ecn_kmax_bytes -
                                           config_.ecn_kmin_bytes);
      if (rng_.Bernoulli(p)) pkt->ecn_ce = true;
    }
  }

  AccountIngress(*pkt);
  egress.Enqueue(std::move(pkt));
}

void Switch::TransmitStartHook(void* sw, std::uint64_t port_idx,
                               Packet& pkt) {
  static_cast<Switch*>(sw)->OnTransmitStart(static_cast<int>(port_idx), pkt);
}

void Switch::OnTransmitStart(int port_idx, Packet& pkt) {
  if (pkt.IsControl()) return;  // never buffered or accounted

  ReleaseIngress(pkt);

  // HPCC: the egress pipeline appends this hop's INT to data packets.
  if (config_.stamp_data_int && pkt.type == PacketType::kData &&
      !pkt.int_full()) {
    pkt.PushInt(IntFor(port_idx));
    pkt.size_bytes += config_.int_bytes_per_hop;
  }

  // FNCC (Alg. 1 lines 7-10): the output engine looks up All_INT_Table with
  // the ACK's input port — the request path's output port at this switch —
  // and inserts that entry into the ACK.
  if (config_.stamp_ack_int && pkt.type == PacketType::kAck &&
      !pkt.int_full()) {
    pkt.PushInt(IntFor(pkt.ingress_port));
    pkt.int_reversed = true;  // entries accumulate last-request-hop first
    pkt.size_bytes += config_.int_bytes_per_hop;
  }

  // RoCC: congested ports advertise their PI fair rate to senders via ACKs
  // crossing the return path (same request-path port association as FNCC).
  if (config_.rocc_enabled && pkt.type == PacketType::kAck) {
    const RoccPortState& st = rocc_state_[pkt.ingress_port];
    const double line = ports_[pkt.ingress_port].connected()
                            ? ports_[pkt.ingress_port].bandwidth_gbps()
                            : 0.0;
    if (st.initialized && line > 0.0 && st.fair_gbps < line) {
      if (pkt.rocc_rate_gbps <= 0.0 || st.fair_gbps < pkt.rocc_rate_gbps) {
        pkt.rocc_rate_gbps = st.fair_gbps;
      }
    }
  }
}

IntEntry Switch::IntFor(int port_idx) const {
  IntEntry entry;
  if (config_.int_table_refresh > 0) {
    entry = int_table_[port_idx];
  } else {
    const EgressPort& p = ports_[port_idx];
    if (!p.connected()) return IntEntry{};
    entry = IntEntry{p.bandwidth_gbps(), sim()->Now(), p.tx_bytes(),
                     p.qlen_bytes()};
  }
  if (config_.int_transform) {
    entry = config_.int_transform(entry, last_stamped_[port_idx]);
    last_stamped_[port_idx] = entry;
  }
  return entry;
}

void Switch::RefreshIntTable() {
  for (int i = 0; i < num_ports(); ++i) {
    const EgressPort& p = ports_[i];
    if (!p.connected()) continue;
    int_table_[i] =
        IntEntry{p.bandwidth_gbps(), sim()->Now(), p.tx_bytes(),
                 p.qlen_bytes()};
  }
  sim()->Schedule(config_.int_table_refresh,
                  TypedEvent{.run = &Switch::RefreshIntEvent,
                             .drop = nullptr,
                             .p0 = this,
                             .p1 = nullptr,
                             .arg = 0});
}

void Switch::UpdateRocc() {
  const RoccParams& rp = config_.rocc;
  for (int i = 0; i < num_ports(); ++i) {
    EgressPort& p = ports_[i];
    if (!p.connected()) continue;
    RoccPortState& st = rocc_state_[i];
    const double line = p.bandwidth_gbps();
    if (!st.initialized) {
      st.fair_gbps = line;
      st.prev_qlen = p.qlen_bytes();
      st.initialized = true;
      continue;
    }
    const std::uint64_t q = p.qlen_bytes();
    const double err = static_cast<double>(q) -
                       static_cast<double>(rp.qref_bytes);
    const double delta =
        static_cast<double>(q) - static_cast<double>(st.prev_qlen);
    st.fair_gbps -= rp.gain_a * err + rp.gain_b * delta;
    st.fair_gbps = std::clamp(st.fair_gbps, rp.min_rate_gbps, line);
    st.prev_qlen = q;
  }
  sim()->Schedule(rp.update_interval,
                  TypedEvent{.run = &Switch::RoccUpdateEvent,
                             .drop = nullptr,
                             .p0 = this,
                             .p1 = nullptr,
                             .arg = 0});
}

void Switch::AccountIngress(const Packet& pkt) {
  if (!config_.pfc_enabled) return;
  const int in = pkt.ingress_port;
  ingress_bytes_[in] += pkt.size_bytes;
  if (!pause_sent_[in] && ingress_bytes_[in] > config_.pfc_xoff_bytes) {
    pause_sent_[in] = true;
    SendPfc(in, /*pause=*/true);
  }
}

void Switch::ReleaseIngress(const Packet& pkt) {
  buffer_used_ -= std::min<std::uint64_t>(buffer_used_, pkt.size_bytes);
  if (!config_.pfc_enabled) return;
  const int in = pkt.ingress_port;
  assert(ingress_bytes_[in] >= pkt.size_bytes);
  ingress_bytes_[in] -= pkt.size_bytes;
  if (pause_sent_[in] && ingress_bytes_[in] < config_.pfc_xon_bytes) {
    pause_sent_[in] = false;
    SendPfc(in, /*pause=*/false);
  }
}

void Switch::SendPfc(int ingress_port, bool pause) {
  EgressPort& out = ports_[ingress_port];
  if (!out.connected()) return;
  PacketPtr frame = sim()->packet_pool().Acquire();
  frame->type = pause ? PacketType::kPfcPause : PacketType::kPfcResume;
  frame->size_bytes = kPfcFrameBytes;
  if (pause) {
    ++pause_frames_sent_;
  } else {
    ++resume_frames_sent_;
  }
  out.EnqueueControl(std::move(frame));
}

}  // namespace fncc
