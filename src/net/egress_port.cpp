#include "net/egress_port.hpp"

#include <cassert>
#include <utility>

#include "net/packet_pool.hpp"

namespace fncc {

EgressPort::EgressPort(EgressPort&& other) noexcept
    : sim_(other.sim_),
      peer_(std::exchange(other.peer_, Peer{})),
      deliver_(std::exchange(other.deliver_, nullptr)),
      bandwidth_gbps_(other.bandwidth_gbps_),
      prop_delay_(other.prop_delay_),
      order_base_(other.order_base_),
      order_count_(other.order_count_),
      cross_lane_(other.cross_lane_),
      peer_lane_(other.peer_lane_),
      tx_hook_(std::exchange(other.tx_hook_, nullptr)),
      tx_hook_ctx_(std::exchange(other.tx_hook_ctx_, nullptr)),
      tx_hook_arg_(other.tx_hook_arg_),
      prefetch_(std::exchange(other.prefetch_, nullptr)),
      lookahead_(other.lookahead_),
      data_q_(std::exchange(other.data_q_, Fifo{})),
      ctrl_q_(std::exchange(other.ctrl_q_, Fifo{})),
      tx_pkt_(std::move(other.tx_pkt_)),
      qlen_bytes_(other.qlen_bytes_),
      busy_(other.busy_),
      paused_(other.paused_),
      tx_bytes_(other.tx_bytes_) {
  // Moves only happen while wiring a topology (vector growth), never with a
  // serialization event in flight — that event captures `this`. The chain
  // delivery events capture `this` too, so the same rule covers them.
  assert(!busy_ && "EgressPort moved while transmitting");
  assert(other.inflight_head_ == nullptr &&
         "EgressPort moved with deliveries in flight");
  // Mailboxes register `this` with the simulator, so a port must not move
  // after SetCrossLane — Network::SealDomains runs after all wiring.
  assert(!cross_lane_ && other.outbox_[0].empty() && other.outbox_[1].empty() &&
         "EgressPort moved after cross-lane sealing");
}

EgressPort::~EgressPort() {
  data_q_.Clear();
  ctrl_q_.Clear();
  // In-flight chain packets are owned by their pending delivery events;
  // the queue's drop handlers reclaim them (DropInflightEvent).
}

void EgressPort::Connect(Peer peer, double bandwidth_gbps,
                         Time propagation_delay) {
  assert(!connected() && "port connected twice");
  assert(peer.node != nullptr && bandwidth_gbps > 0.0);
  peer_ = peer;
  // Devirtualized delivery: a final-class trampoline when the peer has one,
  // else the generic virtual-call fallback.
  deliver_ = peer.node->deliver_event() != nullptr
                 ? peer.node->deliver_event()
                 : &EgressPort::DeliverEvent;
  // Batched prefetch only toward peers that can use the hints (hosts);
  // switch/sink-bound ports keep the zero-overhead direct delivery path.
  prefetch_ = peer.node->prefetch_event();
  lookahead_ = prefetch_ != nullptr ? sim_->delivery_batch() - 1 : 0;
  // Every directed link gets a unique order-word base in build order, so a
  // given wire's deliveries sort identically at any lane partitioning.
  order_base_ = sim_->MintEdgeOrderBase();
  bandwidth_gbps_ = bandwidth_gbps;
  prop_delay_ = propagation_delay;
}

void EgressPort::SetCrossLane(int peer_lane) {
  assert(connected() && "SetCrossLane before Connect");
  cross_lane_ = true;
  peer_lane_ = peer_lane;
  // The prefetch chain holds packets between serialization and delivery
  // and warms peer (foreign-lane) state — both are off-limits mid-window.
  prefetch_ = nullptr;
  lookahead_ = 0;
  sim_->RegisterMailbox(peer_lane, this, &EgressPort::DrainHandoffsThunk,
                        &EgressPort::PendingHandoffMinTimeThunk,
                        &EgressPort::PendingHandoffCountThunk);
}

void EgressPort::Enqueue(PacketPtr pkt) {
  assert(connected());
  qlen_bytes_ += pkt->size_bytes;
  data_q_.Push(std::move(pkt));
  TryTransmit();
}

void EgressPort::EnqueueControl(PacketPtr pkt) {
  assert(connected());
  ctrl_q_.Push(std::move(pkt));
  TryTransmit();
}

void EgressPort::SetPaused(bool paused) {
  paused_ = paused;
  if (!paused_) TryTransmit();
}

void EgressPort::TxDoneEvent(void* port, void* /*unused*/,
                             std::uint64_t /*arg*/) {
  static_cast<EgressPort*>(port)->FinishTransmit();
}

void EgressPort::DeliverEvent(void* node, void* pkt, std::uint64_t port) {
  auto* raw = static_cast<Packet*>(pkt);
  static_cast<Node*>(node)->ReceivePacket(WrapRawPacket(raw),
                                          static_cast<int>(port));
}

void EgressPort::DropPacketEvent(void* /*unused*/, void* pkt,
                                 std::uint64_t /*arg*/) {
  // Delivery torn down with the queue: return the in-flight packet to its
  // pool.
  WrapRawPacket(static_cast<Packet*>(pkt));
}

void EgressPort::DeliverInflightEvent(void* port, void* pkt,
                                      std::uint64_t in_port) {
  auto* self = static_cast<EgressPort*>(port);
  auto* raw = static_cast<Packet*>(pkt);
  // The chain IS the delivery order: serialization completions are
  // strictly ordered and the propagation delay is constant, so events
  // fire in append order.
  assert(raw == self->inflight_head_ && "chain out of sync with events");
  self->inflight_head_ = raw->next;
  if (self->inflight_head_ == nullptr) self->inflight_tail_ = nullptr;
  if (self->prefetch_cursor_ == raw) {
    self->prefetch_cursor_ = raw->next;  // head was never hinted
  } else {
    --self->prefetch_lead_;
  }
  --self->inflight_count_;
  // Unlink before delivering: the receiver may immediately re-thread the
  // packet through another port's FIFO (switch forwarding reuses next).
  raw->next = nullptr;
  // Hint the next batch first, then process this packet — the upcoming
  // rows stream in while this delivery's work occupies the core.
  self->AdvancePrefetch();
  self->deliver_(self->peer_.node, raw, in_port);
}

void EgressPort::DropInflightEvent(void* /*port*/, void* pkt,
                                   std::uint64_t /*arg*/) {
  // Teardown: the queue drops pending deliveries after the ports (and the
  // chains through them) are gone. Touch only the packet.
  WrapRawPacket(static_cast<Packet*>(pkt));
}

void EgressPort::AdvancePrefetch() {
  if (prefetch_lead_ >= lookahead_ || prefetch_cursor_ == nullptr) return;
  void* batch[Simulator::kMaxDeliveryBatch];
  int n = 0;
  while (prefetch_lead_ + n < lookahead_ && prefetch_cursor_ != nullptr) {
    batch[n++] = prefetch_cursor_;
    prefetch_cursor_ = prefetch_cursor_->next;
  }
  if (n == 0) return;
  prefetch_lead_ += n;
  prefetch_(peer_.node, batch, n);
}

void EgressPort::TryTransmit() {
  if (busy_) return;
  PacketPtr pkt;
  if (!ctrl_q_.empty()) {
    pkt = ctrl_q_.Pop();
  } else if (!paused_ && !data_q_.empty()) {
    pkt = data_q_.Pop();
    qlen_bytes_ -= pkt->size_bytes;
  } else {
    return;
  }

  // The hook may grow the packet (INT insertion happens at the output
  // engine, Alg. 1 line 9), so run it before computing serialization time.
  if (tx_hook_ != nullptr) tx_hook_(tx_hook_ctx_, tx_hook_arg_, *pkt);

  busy_ = true;
  tx_bytes_ += pkt->size_bytes;
  const Time ser = SerializationDelay(pkt->size_bytes, bandwidth_gbps_);
  tx_pkt_ = std::move(pkt);
  // Self-rearming drain loop: one typed event per busy port; FinishTransmit
  // re-enters TryTransmit, which rearms it for the next queued packet.
  sim_->Schedule(ser, TypedEvent{.run = &EgressPort::TxDoneEvent,
                                 .drop = nullptr,
                                 .p0 = this,
                                 .p1 = nullptr,
                                 .arg = 0});
}

void EgressPort::FinishTransmit() {
  busy_ = false;
  // Hand the packet to the peer after propagation. The link itself cannot
  // reorder: serialization completions are strictly ordered and the
  // propagation delay is constant.
  Packet* raw = ReleaseToRaw(std::move(tx_pkt_));
  const std::uint64_t order = order_base_ | order_count_++;
  assert((order_count_ >> 32) == 0 && "per-edge delivery counter overflow");
  if (cross_lane_) {
    // Foreign-lane peer: buffer the handoff in the active outbox phase —
    // sealed at this window's end barrier, injected by the destination
    // lane during the next window — and return the original to this lane's
    // arena. No event is scheduled here; the destination lane schedules
    // (and counts) the delivery.
    const int phase = sim_->outbox_phase();
    const Time t = sim_->Now() + prop_delay_;
    outbox_[phase].push_back(Handoff{t, order, *raw});
    const std::span<const IntEntry> ints = raw->int_stack();
    outbox_int_[phase].insert(outbox_int_[phase].end(), ints.begin(),
                              ints.end());
    if (t < outbox_min_[phase]) outbox_min_[phase] = t;
    WrapRawPacket(raw);
  } else if (lookahead_ > 0) {
    // Prefetching peer: thread the packet onto the in-flight chain (its
    // delivery event pops it) so upcoming deliveries are visible to the
    // lookahead. Same schedule instant as the direct path — the chain
    // changes which lines are warm, never what happens when.
    raw->next = nullptr;
    if (inflight_tail_ != nullptr) {
      inflight_tail_->next = raw;
    } else {
      inflight_head_ = raw;
    }
    inflight_tail_ = raw;
    ++inflight_count_;
    if (prefetch_cursor_ == nullptr) prefetch_cursor_ = raw;
    AdvancePrefetch();
    sim_->ScheduleOrdered(
        prop_delay_, order,
        TypedEvent{.run = &EgressPort::DeliverInflightEvent,
                   .drop = &EgressPort::DropInflightEvent,
                   .p0 = this,
                   .p1 = raw,
                   .arg = static_cast<std::uint64_t>(peer_.port)});
  } else {
    sim_->ScheduleOrdered(
        prop_delay_, order,
        TypedEvent{.run = deliver_,
                   .drop = &EgressPort::DropPacketEvent,
                   .p0 = peer_.node,
                   .p1 = raw,
                   .arg = static_cast<std::uint64_t>(peer_.port)});
  }
  TryTransmit();
}

void EgressPort::DrainHandoffsThunk(void* port) {
  static_cast<EgressPort*>(port)->DrainHandoffs();
}

Time EgressPort::PendingHandoffMinTimeThunk(void* port) {
  return static_cast<EgressPort*>(port)->PendingHandoffMinTime();
}

std::size_t EgressPort::PendingHandoffCountThunk(void* port) {
  return static_cast<EgressPort*>(port)->PendingHandoffCount();
}

void EgressPort::DrainHandoffs() {
  // The sealed buffer: the phase flipped at the barrier after the window
  // that filled it, so nobody appends here while we read. The source lane
  // may simultaneously be appending this window's sends to the other
  // (active) buffer.
  const int sealed = sim_->outbox_phase() ^ 1;
  std::vector<Handoff>& box = outbox_[sealed];
  if (box.empty()) return;
  const IntEntry* ints = outbox_int_[sealed].data();
  for (const Handoff& h : box) {
    // Re-materialize in the destination lane's arena (the active lane
    // here): acquire, then copy the header and its INT entries (which take
    // a block from this lane's pool).
    Packet* raw = ReleaseToRaw(sim_->packet_pool().Acquire());
    raw->CopyFrom(h.hdr, ints);
    ints += h.hdr.int_hops;
    sim_->ScheduleAtOrdered(
        h.t, h.order,
        TypedEvent{.run = deliver_,
                   .drop = &EgressPort::DropPacketEvent,
                   .p0 = peer_.node,
                   .p1 = raw,
                   .arg = static_cast<std::uint64_t>(peer_.port)});
  }
  box.clear();  // keeps capacity; the outbox stays allocation-warm
  outbox_int_[sealed].clear();
  outbox_min_[sealed] = kTimeInfinity;
}

}  // namespace fncc
