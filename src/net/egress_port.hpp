// Output port model: FIFO data queue + strict-priority control queue,
// serialization at line rate, propagation to the peer, PFC pause gate.
//
// The transmit side is a zero-lambda drain loop: queued packets sit in
// intrusive FIFOs (Packet::next), the in-flight packet is a port member,
// and both the serialization-complete and the propagation-delivery events
// are TypedEvent records (function pointer + POD words) — no closure is
// constructed or destroyed anywhere on the per-packet path. The
// transmit-start hook (buffer release / INT stamping) is likewise a bare
// function pointer + context words, not a std::function.
//
// Delivery is also devirtualized: Connect() snapshots the peer node's
// final-class deliver trampoline (Node::deliver_event), so the propagation
// event lands directly in Switch::ReceivePacket / Host::ReceivePacket with
// no virtual dispatch. Nodes without a trampoline (test sinks, custom
// extensions) fall back to the generic virtual-call trampoline here.
//
// Batched-delivery prefetch: when the peer installs a prefetch hook
// (Node::prefetch_event — transport hosts do), packets that finished
// serialization are additionally threaded onto an in-flight chain in
// delivery order, and the port keeps up to Simulator::delivery_batch() - 1
// upcoming deliveries prefetched ahead of the one being processed (the
// peer sorts each hint batch by flow slot and warms its SoA rows). This is
// pure cache warming layered on the existing per-packet events: every
// packet still gets its own propagation event at its own (t,seq), so event
// order — and therefore every simulation result — is bit-identical to the
// unbatched path and across batch sizes.
// Cross-lane handoff: when the fabric is partitioned into event lanes
// (Simulator::Partition) and this port's peer lives in another lane
// (SetCrossLane, applied by Network::SealDomains), finished transmissions
// are not scheduled into the peer's queue directly — that queue belongs to
// another thread mid-window. Instead each handoff is buffered by value in
// the port's outbox and injected at the next window barrier
// (DrainHandoffs, run under the destination lane's scope). Conservative
// lookahead makes the barrier early enough: delivery time is
// send-time + propagation >= window-start + min-cross-lane-propagation,
// which is exactly where the window closed. Every delivery — local or
// handoff — carries the same (edge << 32 | nth) order word, so injection
// order cannot matter: the destination queue re-establishes the one global
// (t, order) sequence.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "net/node.hpp"
#include "net/packet.hpp"
#include "sim/simulator.hpp"
#include "sim/time.hpp"

namespace fncc {

/// One direction of a full-duplex link: the transmit side attached to a
/// node's port. Owns the egress queue and models serialization +
/// propagation. PFC pause blocks data packets only; control frames (PFC
/// XOFF/XON) use a strict-priority queue and always go through.
class EgressPort {
 public:
  struct Peer {
    Node* node = nullptr;
    int port = -1;
  };

  /// Transmit-start hook: (context, arg, packet). Devirtualized — a bare
  /// function pointer so the per-packet dequeue makes no std::function
  /// call (the owner's context rides in `ctx`/`arg`, e.g. Switch + port
  /// index).
  using TransmitHook = void (*)(void* ctx, std::uint64_t arg, Packet& pkt);

  explicit EgressPort(Simulator* sim) : sim_(sim) {}
  EgressPort(EgressPort&& other) noexcept;
  EgressPort(const EgressPort&) = delete;
  EgressPort& operator=(const EgressPort&) = delete;
  EgressPort& operator=(EgressPort&&) = delete;
  ~EgressPort();

  /// Wires this port to its peer. Must be called exactly once before use.
  void Connect(Peer peer, double bandwidth_gbps, Time propagation_delay);

  [[nodiscard]] bool connected() const { return peer_.node != nullptr; }

  /// Marks this link as crossing into event lane `peer_lane` and registers
  /// its handoff mailbox with the simulator (Network::SealDomains, after
  /// all wiring — `this` must be stable). Cross-lane ports buffer
  /// deliveries instead of scheduling into the peer's queue and turn off
  /// delivery prefetch (the chain would touch peer-lane state mid-window).
  void SetCrossLane(int peer_lane);

  /// Injects the sealed (previous-window) outbox buffer into the peer
  /// lane's queue. Called by the simulator inside the destination lane's
  /// window, under that lane's scope — safe against concurrent appends,
  /// which target the other (active) buffer.
  void DrainHandoffs();

  /// Earliest buffered handoff delivery time across both outbox buffers
  /// (kTimeInfinity if empty), and the buffered handoff count — the
  /// mailbox hooks behind Simulator::NextEventTime / events_pending.
  [[nodiscard]] Time PendingHandoffMinTime() const {
    return outbox_min_[0] < outbox_min_[1] ? outbox_min_[0] : outbox_min_[1];
  }
  [[nodiscard]] std::size_t PendingHandoffCount() const {
    return outbox_[0].size() + outbox_[1].size();
  }

  /// Queues a data-plane packet (data/ACK/CNP) for transmission.
  void Enqueue(PacketPtr pkt);

  /// Queues a control frame; bypasses the data queue and ignores pause.
  void EnqueueControl(PacketPtr pkt);

  /// PFC gate, driven by the peer's XOFF/XON frames.
  void SetPaused(bool paused);
  [[nodiscard]] bool paused() const { return paused_; }

  /// Cumulative time this port has spent paused — the raw signal behind
  /// PFC-storm diagnostics (§2.3): a port paused for a large fraction of
  /// wall time is starving its upstream.
  [[nodiscard]] Time total_paused_time() const {
    return paused_ ? paused_total_ + (sim_->Now() - paused_since_)
                   : paused_total_;
  }

  /// Installs the hook called with each packet at the instant it begins
  /// serialization (after it left the queue — qlen_bytes() already
  /// excludes it). Owners use it for PFC buffer release and INT stamping;
  /// the hook may mutate the packet, including growing size_bytes before
  /// serialization.
  void set_transmit_hook(TransmitHook hook, void* ctx, std::uint64_t arg) {
    tx_hook_ = hook;
    tx_hook_ctx_ = ctx;
    tx_hook_arg_ = arg;
  }

  // -- Telemetry (the live counters behind All_INT_Table) --
  [[nodiscard]] std::uint64_t qlen_bytes() const { return qlen_bytes_; }
  [[nodiscard]] std::uint64_t tx_bytes() const { return tx_bytes_; }
  [[nodiscard]] double bandwidth_gbps() const { return bandwidth_gbps_; }
  [[nodiscard]] Time propagation_delay() const { return prop_delay_; }
  [[nodiscard]] const Peer& peer() const { return peer_; }
  /// Packets serialized but not yet delivered through the prefetch chain
  /// (0 unless the peer installed a prefetch hook).
  [[nodiscard]] std::size_t packets_in_flight() const { return inflight_count_; }

 private:
  /// Intrusive FIFO threaded through Packet::next. Packets are held as raw
  /// pointers with their reclaimer snapshotted (ReleaseToRaw), so queueing
  /// moves one pointer instead of a deque node.
  struct Fifo {
    Packet* head = nullptr;
    Packet* tail = nullptr;
    std::size_t count = 0;

    [[nodiscard]] bool empty() const { return head == nullptr; }
    void Push(PacketPtr pkt) {
      Packet* raw = ReleaseToRaw(std::move(pkt));
      raw->next = nullptr;
      if (tail != nullptr) {
        tail->next = raw;
      } else {
        head = raw;
      }
      tail = raw;
      ++count;
    }
    PacketPtr Pop() {
      Packet* raw = head;
      head = raw->next;
      if (head == nullptr) tail = nullptr;
      raw->next = nullptr;
      --count;
      return WrapRawPacket(raw);
    }
    void Clear() {
      while (!empty()) Pop();  // PacketPtr dtor reclaims
    }
  };

  // TypedEvent trampolines for the two per-packet events. DeliverEvent is
  // the generic (virtual-call) fallback used only when the peer node did
  // not install a final-class trampoline.
  static void TxDoneEvent(void* port, void* unused, std::uint64_t arg);
  static void DeliverEvent(void* node, void* pkt, std::uint64_t port);
  static void DropPacketEvent(void* unused, void* pkt, std::uint64_t arg);
  static void DrainHandoffsThunk(void* port);
  static Time PendingHandoffMinTimeThunk(void* port);
  static std::size_t PendingHandoffCountThunk(void* port);
  /// Chain variant: unlinks the head of the in-flight chain, tops up the
  /// prefetch window, then delivers inline — same instant, same order as
  /// the direct path.
  static void DeliverInflightEvent(void* port, void* pkt, std::uint64_t arg);
  /// Drop handler for chain deliveries. Must not touch the port: at
  /// teardown the queue drops events after the ports are gone (the chain
  /// links simply die with the packets).
  static void DropInflightEvent(void* port, void* pkt, std::uint64_t arg);

  void TryTransmit();
  /// Serialization finished: launch the propagation event for the in-flight
  /// packet and rearm on the next queued one.
  void FinishTransmit();
  /// Extends the prefetched window to lookahead_ entries past the chain
  /// head, handing the newly covered packets to the peer's prefetch hook
  /// in one batch.
  void AdvancePrefetch();

  Simulator* sim_;
  Peer peer_;
  Node::DeliverFn deliver_ = nullptr;  // resolved once at Connect()
  double bandwidth_gbps_ = 0.0;
  Time prop_delay_ = 0;

  // Partition-invariant delivery ordering (see event_queue.hpp): every
  // propagation event this port schedules — or hands off — carries
  // order_base_ | order_count_++, i.e. (directed-edge index, nth packet on
  // the wire).
  std::uint64_t order_base_ = 0;   // minted at Connect()
  std::uint64_t order_count_ = 0;  // per-edge FIFO counter

  /// One buffered cross-lane delivery. The packet rides by value: the
  /// source lane returns its original to its own arena immediately and the
  /// destination lane re-materializes the copy from its arena at the
  /// barrier, so neither arena is ever touched from a foreign lane.
  struct Handoff {
    Time t;               // delivery (arrival) time
    std::uint64_t order;  // this edge's order word for the packet
    Packet pkt;
  };
  /// Double-buffered by the simulator's window phase: sends of window w
  /// append to outbox_[phase] while the destination lane drains the sealed
  /// outbox_[phase ^ 1] (window w-1's sends) — run and drain share one
  /// window with no barrier between them. outbox_min_ tracks each buffer's
  /// earliest delivery time so Simulator::NextEventTime can bound the next
  /// window by handoffs not yet in any queue.
  std::vector<Handoff> outbox_[2];
  Time outbox_min_[2] = {kTimeInfinity, kTimeInfinity};
  bool cross_lane_ = false;
  int peer_lane_ = 0;

  TransmitHook tx_hook_ = nullptr;
  void* tx_hook_ctx_ = nullptr;
  std::uint64_t tx_hook_arg_ = 0;

  // Batched-delivery prefetch state (lookahead_ == 0 => feature off, the
  // delivery path is the classic direct schedule).
  Node::PrefetchFn prefetch_ = nullptr;  // resolved once at Connect()
  int lookahead_ = 0;                    // delivery_batch - 1 at Connect()
  Packet* inflight_head_ = nullptr;      // delivery order == event order
  Packet* inflight_tail_ = nullptr;
  Packet* prefetch_cursor_ = nullptr;    // first chain entry not yet hinted
  int prefetch_lead_ = 0;                // hinted entries ahead of the head
  std::size_t inflight_count_ = 0;

  Fifo data_q_;
  Fifo ctrl_q_;
  PacketPtr tx_pkt_;              // currently serializing (busy_ == true)
  std::uint64_t qlen_bytes_ = 0;  // data queue only, as INT reports qLen
  bool busy_ = false;
  bool paused_ = false;
  Time paused_since_ = 0;
  Time paused_total_ = 0;
  std::uint64_t tx_bytes_ = 0;
};

}  // namespace fncc
