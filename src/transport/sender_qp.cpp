#include "transport/sender_qp.hpp"

#include <algorithm>
#include <cassert>

#include "net/packet_pool.hpp"
#include "sim/log.hpp"
#include "transport/flow_table.hpp"
#include "transport/host.hpp"

namespace fncc {

SenderQp::SenderQp(Host* host, FlowTable* table, const FlowSpec& spec,
                   const CcConfig& cc_config, HotFlowRow* hot)
    : host_(host),
      sim_(host->sim()),
      table_(table),
      hot_(hot),
      spec_(spec),
      cc_(cc_config, sim_,
          TimerRoute{
              .run = &SenderQp::CcTimerEvent, .p0 = table, .key = spec.id}) {
  assert(hot_ != nullptr && "QPs are constructed by FlowTable::Register");
  hot_->qp = this;
  hot_->flags = 0;
  hot_->src = spec_.src;
  hot_->snd_nxt = 0;
  hot_->snd_una = 0;
  hot_->size_bytes = spec_.size_bytes;
  rto_ = host->config().rto;
  mtu_bytes_ = cc_config.mtu_bytes;
  // Relocate the CC's rate/window into the row: the ACK path's CC update
  // and window consultation then share the row's cache line.
  cc_.BindHotWords(&hot_->words);
  if (cc_.uses_window()) hot_->flags |= HotFlowRow::kUsesWindow;
  cc_.BindUpdateHook(&SenderQp::OnCcUpdate, this);
  // The start names the flow, not this object (see the file comment), so
  // a flow aborted or released before it starts makes it inert. It
  // carries the flow-start order word (see
  // kFlowStartOrderBit): flows starting at the same timestamp in
  // different lanes must order by launch serial, not by which queue
  // minted a native counter — the serial is the same in every
  // partitioning AND whether the table id is dense or a recycled slot.
  // At equal timestamps starts therefore run after the lane's minted
  // natives, in launch order. Nothing else is scheduled here: the CC's
  // own timers (DCQCN) are armed by Start(), so their phase is the flow's
  // start and not the instant the launcher constructed the QP.
  assert(spec_.launch_serial != 0 && spec_.launch_serial < kFlowStartOrderBit);
  sim_->ScheduleAtOrdered(
      spec_.start_time,
      kNativeOrderBit | kFlowStartOrderBit | spec_.launch_serial,
      TimerCarrier(Timer::kStart));
}

TypedEvent SenderQp::TimerCarrier(Timer timer) const {
  return TimerRoute{.run = &SenderQp::TimerEvent, .p0 = table_, .key = spec_.id}
      .Carrier(static_cast<std::uint32_t>(timer));
}

SenderQp* SenderQp::Resolve(void* table, std::uint64_t arg) {
  FlowSlot* slot =
      static_cast<FlowTable*>(table)->Lookup(TimerRoute::Key(arg));
  return slot == nullptr ? nullptr : slot->qp();
}

void SenderQp::TimerEvent(void* table, void* /*unused*/, std::uint64_t arg) {
  SenderQp* self = Resolve(table, arg);
  if (self == nullptr) return;  // released: the flow is gone
  switch (static_cast<Timer>(TimerRoute::Which(arg))) {
    case Timer::kStart:
      if (!self->complete_) self->Start();  // not aborted before its start
      return;
    case Timer::kPace:
      self->pace_pending_ = false;
      self->TrySend();
      return;
    case Timer::kRto:
      if (self->rto_timer_.Expired(*self->sim_,
                                   self->TimerCarrier(Timer::kRto))) {
        self->OnRto();
      }
      return;
  }
}

void SenderQp::CcTimerEvent(void* table, void* /*unused*/, std::uint64_t arg) {
  if (SenderQp* self = Resolve(table, arg)) {
    self->cc_.OnTimer(TimerRoute::Which(arg));
  }
}

void SenderQp::OnCcUpdate(void* qp) {
  auto* self = static_cast<SenderQp*>(qp);
  if (self->started_ && !self->complete_) self->TrySend();
}

void SenderQp::Start() {
  assert(!started_);
  started_ = true;
  next_send_time_ = sim_->Now();
  cc_.Start();
  ArmRto();
  TrySend();
}

bool SenderQp::WindowBlocked() const {
  return (hot_->flags & HotFlowRow::kUsesWindow) != 0 &&
         static_cast<double>(inflight_bytes()) >= hot_->words.window_bytes;
}

void SenderQp::TrySend() {
  if (in_try_send_) return;  // re-entrant via the CC update hook
  in_try_send_ = true;
  Simulator* sim = sim_;
  HotFlowRow& row = *hot_;
  while (!complete_ && row.snd_nxt < row.size_bytes && !WindowBlocked()) {
    const Time now = sim->Now();
    if (now < next_send_time_) {
      if (!pace_pending_) {
        pace_pending_ = true;
        sim->ScheduleAt(next_send_time_, TimerCarrier(Timer::kPace));
      }
      break;
    }
    SendOnePacket();
  }
  in_try_send_ = false;
}

void SenderQp::SendOnePacket() {
  Simulator* sim = sim_;
  HotFlowRow& row = *hot_;
  const std::uint32_t bytes = static_cast<std::uint32_t>(
      std::min<std::uint64_t>(mtu_bytes_, row.size_bytes - row.snd_nxt));

  PacketPtr pkt = sim->packet_pool().Acquire();
  pkt->type = PacketType::kData;
  pkt->flow = spec_.id;
  pkt->src = spec_.src;
  pkt->dst = spec_.dst;
  pkt->sport = spec_.sport;
  pkt->dport = spec_.dport;
  pkt->seq = row.snd_nxt;
  pkt->payload_bytes = bytes;
  pkt->size_bytes = bytes;  // wire == payload (see DESIGN.md simplification)
  pkt->last_of_flow = (row.snd_nxt + bytes == row.size_bytes);
  pkt->t_sent = sim->Now();

  row.snd_nxt += bytes;

  // Hand the packet to the NIC before notifying the CC algorithm:
  // OnBytesSent can fire the update hook -> TrySend re-entrantly (DCQCN's
  // byte counter), and the next packet must not overtake this one.
  host_->TransmitFromQp(std::move(pkt));

  // Pace at the CC rate: the next packet may leave once this one has
  // serialized at rate R (token-bucket with one-packet depth).
  const double rate = std::max(row.words.rate_gbps, 1e-3);
  next_send_time_ =
      std::max(sim->Now(), next_send_time_) + SerializationDelay(bytes, rate);

  cc_.OnBytesSent(bytes);
}

void SenderQp::HandleAckHot(HotFlowRow& row, const Packet& ack) {
  if (row.flags & HotFlowRow::kComplete) return;
  SenderQp* self = row.qp;
  // Fig. 7 pathID check: the ACK's accumulated XOR of switch ids must
  // equal the request path's (echoed by the receiver). A mismatch flags
  // asymmetric routing — return-path INT would not describe the request
  // path. Only meaningful once the ACK crossed at least one switch.
  if (ack.path_id != ack.req_path_id) ++self->asymmetric_acks_;
  if (ack.seq > row.snd_una) {
    row.snd_una = std::min<std::uint64_t>(ack.seq, row.snd_nxt);
    self->ArmRto();
  }
  self->cc_.OnAck(ack, row.snd_nxt);
  if (row.snd_una >= row.size_bytes) {
    self->Complete();
    return;
  }
  // Fast-outs replicating TrySend's loop-entry conditions against the row:
  // all data sent, or the (possibly just-updated) window still closed —
  // nothing to transmit, so skip the call into the cold QP entirely.
  if (row.snd_nxt >= row.size_bytes) return;
  if ((row.flags & HotFlowRow::kUsesWindow) != 0 &&
      static_cast<double>(row.snd_nxt - row.snd_una) >=
          row.words.window_bytes) {
    return;
  }
  self->TrySend();
}

void SenderQp::HandleCnp() {
  if (complete_) return;
  cc_.OnCnp();
}

void SenderQp::ArmRto() {
  const Time rto = rto_;
  if (rto <= 0) return;
  // Called on ACK progress: reset the exponential backoff.
  rto_backoff_ = 1;
  ArmRtoAt(rto);
}

void SenderQp::ArmRtoAt(Time delay) {
  rto_timer_.Arm(*sim_, sim_->Now() + delay, TimerCarrier(Timer::kRto));
}

void SenderQp::OnRto() {
  HotFlowRow& row = *hot_;
  if (complete_ || row.snd_nxt == row.snd_una) {
    // Nothing outstanding (flow may simply not have started moving yet).
    if (!complete_ && row.snd_nxt < row.size_bytes) ArmRto();
    return;
  }
  // Go-back-N: rewind and resend everything unacknowledged. Exponential
  // backoff: long PFC pause chains can stall a flow well beyond one RTO
  // without any loss — re-blasting on a fixed period would only add load.
  ++rto_count_;
  Log(LogLevel::kWarn, sim_->Now(),
      "flow %u: RTO, go-back-N from %llu", spec_.id,
      static_cast<unsigned long long>(row.snd_una));
  row.snd_nxt = row.snd_una;
  next_send_time_ = sim_->Now();
  if (rto_backoff_ < 64) rto_backoff_ *= 2;
  ArmRtoAt(rto_ * rto_backoff_);
  TrySend();
}

void SenderQp::MarkComplete() {
  complete_ = true;
  hot_->flags |= HotFlowRow::kComplete;
  completion_time_ = sim_->Now();
  // A pending start or pacing event sees complete_ and does nothing; the
  // RTO and DCQCN's periodic timers disarm, so drained scenarios
  // terminate.
  rto_timer_.Disarm();
  cc_.Shutdown();
}

void SenderQp::Abort() {
  if (!complete_) MarkComplete();
}

void SenderQp::Complete() {
  MarkComplete();
  host_->NotifyFlowComplete(this);
}

}  // namespace fncc
