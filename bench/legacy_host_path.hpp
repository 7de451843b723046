// The pre-flow-table receive path, kept as the A/B baseline for
// BM_HostAckPath (the same role legacy_event_queue.hpp plays for the
// scheduler benches): per-host std::unordered_map<FlowId, ...> flow lookup
// and a virtual OnAck on a heap CC object that owns its config copy, so
// every ACK pays two dependent pointer chases (map node -> QP -> heap CC
// object) plus an indirect vtable branch. The replacement
// (transport/flow_table.hpp + core/congestion_control.hpp) resolves the
// same ACK with one indexed load into a slot whose QP and CC state are
// laid out inline.
//
// Bench-only code: not part of the library, never built into fncc_core.
#pragma once

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <utility>

#include "cc/cc_algorithm.hpp"
#include "core/congestion_control.hpp"
#include "net/packet.hpp"

namespace fncc::bench {

/// The baseline's CC object: reached through a vtable, heap-allocated per
/// flow and owning a copy of its config — the three costs the inline
/// CongestionControl in a flow-table slot avoids.
class LegacyCc {
 public:
  LegacyCc(const CcConfig& config, Simulator* sim)
      : config_(ResolveCcConfig(config)),
        cc_(config_, sim, TimerRoute{}) {}  // timer-free modes only
  virtual ~LegacyCc() = default;

  virtual void OnAck(const Packet& ack, std::uint64_t snd_nxt) {
    cc_.OnAck(ack, snd_nxt);
  }
  virtual void OnCnp() { cc_.OnCnp(); }
  [[nodiscard]] bool uses_window() const { return cc_.uses_window(); }
  [[nodiscard]] double window_bytes() const { return cc_.window_bytes(); }

 private:
  const CcConfig config_;
  CongestionControl cc_;
};

/// The sender-side state the old Host kept per flow: a heap QP holding a
/// heap CC algorithm dispatched virtually. HandleAck replays the
/// pre-change SenderQp::HandleAck bookkeeping step for step (path-symmetry
/// check, cumulative-ACK advance, virtual CC update, try-send exit
/// checks), so the A/B difference is exactly lookup + dispatch + layout.
struct LegacyQp {
  std::uint64_t snd_una = 0;
  std::uint64_t snd_nxt = 0;
  std::uint64_t size_bytes = 0;
  std::uint64_t asymmetric_acks = 0;
  bool complete = false;
  std::unique_ptr<LegacyCc> cc;

  void HandleAck(const Packet& ack) {
    if (complete) return;
    if (ack.path_id != ack.req_path_id) ++asymmetric_acks;
    if (ack.seq > snd_una) {
      snd_una = ack.seq < snd_nxt ? ack.seq : snd_nxt;
    }
    cc->OnAck(ack, snd_nxt);  // virtual dispatch through the heap object
    if (snd_una >= size_bytes) {
      complete = true;
      return;
    }
    // TrySend's loop-entry checks (the flow has sent everything, so the
    // pre-change QP fell straight out here too).
    if (snd_nxt < size_bytes &&
        !(cc->uses_window() &&  // was a virtual call before this PR
          static_cast<double>(snd_nxt - snd_una) >= cc->window_bytes())) {
      // (would transmit)
    }
  }
};

/// Mirrors the shape of the pre-change Host::ReceivePacket ACK arm: type
/// switch, hash-map find, then the QP's per-ACK handling.
class LegacyHostModel {
 public:
  FlowId AddFlow(const CcConfig& config, Simulator* sim,
                 std::uint64_t snd_nxt) {
    const FlowId id = next_id_++;
    auto qp = std::make_unique<LegacyQp>();
    qp->snd_nxt = snd_nxt;
    qp->size_bytes = snd_nxt;  // all data sent, awaiting ACKs
    qp->cc = std::make_unique<LegacyCc>(config, sim);
    qps_.emplace(id, std::move(qp));
    return id;
  }

  void ReceivePacket(PacketPtr pkt) {
    switch (pkt->type) {
      case PacketType::kAck: {
        const auto it = qps_.find(pkt->flow);
        if (it != qps_.end()) it->second->HandleAck(*pkt);
        return;
      }
      case PacketType::kCnp: {
        const auto it = qps_.find(pkt->flow);
        if (it != qps_.end()) it->second->cc->OnCnp();
        return;
      }
      default:
        return;
    }
  }

 private:
  std::unordered_map<FlowId, std::unique_ptr<LegacyQp>> qps_;
  FlowId next_id_ = 1;
};

}  // namespace fncc::bench
