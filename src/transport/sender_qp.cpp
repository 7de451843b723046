#include "transport/sender_qp.hpp"

#include <algorithm>
#include <cassert>

#include "net/packet_pool.hpp"
#include "sim/log.hpp"
#include "transport/host.hpp"

namespace fncc {

SenderQp::SenderQp(Host* host, const FlowSpec& spec,
                   const CcConfig& cc_config, HotFlowRow* hot)
    : host_(host),
      sim_(host->sim()),
      hot_(hot),
      spec_(spec),
      cc_(cc_config, sim_) {
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
  // Self-scheduled start keeps the event cancellable from this object
  // (Abort/Complete/flow-table Release), so no pending event can outlive
  // the QP. The start carries the flow-start order word (see
  // kFlowStartOrderBit): flows starting at the same timestamp in
  // different lanes must order by launch serial, not by which queue
  // minted a native counter — the serial is the same in every
  // partitioning AND whether the table id is dense or a recycled slot.
  // At equal timestamps starts therefore run after the lane's minted
  // natives, in launch order. Nothing else is scheduled here: the CC's
  // own timers (DCQCN) are armed by Start(), so their phase is the flow's
  // start and not the instant the launcher constructed the QP.
  assert(spec_.launch_serial != 0 && spec_.launch_serial < kFlowStartOrderBit);
  start_event_ = sim_->ScheduleAtOrdered(
      spec_.start_time,
      kNativeOrderBit | kFlowStartOrderBit | spec_.launch_serial,
      TypedEvent{.run = &SenderQp::StartEvent,
                 .drop = nullptr,
                 .p0 = this,
                 .p1 = nullptr,
                 .arg = 0});
}

void SenderQp::StartEvent(void* qp, void* /*unused*/, std::uint64_t /*arg*/) {
  auto* self = static_cast<SenderQp*>(qp);
  self->start_event_ = kInvalidEventId;
  self->Start();
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

void SenderQp::PaceEvent(void* qp, void* /*unused*/, std::uint64_t /*arg*/) {
  auto* self = static_cast<SenderQp*>(qp);
  self->send_event_ = kInvalidEventId;
  self->TrySend();
}

void SenderQp::RtoEvent(void* qp, void* /*unused*/, std::uint64_t /*arg*/) {
  auto* self = static_cast<SenderQp*>(qp);
  self->rto_event_ = kInvalidEventId;
  self->OnRto();
}

void SenderQp::TrySend() {
  if (in_try_send_) return;  // re-entrant via the CC update hook
  in_try_send_ = true;
  Simulator* sim = sim_;
  HotFlowRow& row = *hot_;
  while (!complete_ && row.snd_nxt < row.size_bytes && !WindowBlocked()) {
    const Time now = sim->Now();
    if (now < next_send_time_) {
      if (send_event_ == kInvalidEventId) {
        send_event_ = sim->ScheduleAt(
            next_send_time_, TypedEvent{.run = &SenderQp::PaceEvent,
                                        .drop = nullptr,
                                        .p0 = this,
                                        .p1 = nullptr,
                                        .arg = 0});
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
  Simulator* sim = sim_;
  // Fused cancel + schedule keeps the slot and the typed payload; only when
  // the timer already fired (or was never armed) is a fresh event needed.
  rto_event_ = sim->Reschedule(rto_event_, delay);
  if (rto_event_ == kInvalidEventId) {
    rto_event_ = sim->Schedule(delay, TypedEvent{.run = &SenderQp::RtoEvent,
                                                 .drop = nullptr,
                                                 .p0 = this,
                                                 .p1 = nullptr,
                                                 .arg = 0});
  }
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

void SenderQp::CancelTimers() {
  Simulator* sim = sim_;
  sim->Cancel(start_event_);
  sim->Cancel(send_event_);
  sim->Cancel(rto_event_);
  start_event_ = kInvalidEventId;
  send_event_ = kInvalidEventId;
  rto_event_ = kInvalidEventId;
}

void SenderQp::MarkComplete() {
  complete_ = true;
  hot_->flags |= HotFlowRow::kComplete;
  completion_time_ = sim_->Now();
}

void SenderQp::Abort() {
  if (complete_) return;
  MarkComplete();
  CancelTimers();
  cc_.Shutdown();
}

void SenderQp::Complete() {
  MarkComplete();
  CancelTimers();
  // DCQCN keeps periodic timers; stop them so drained scenarios terminate.
  cc_.Shutdown();
  host_->NotifyFlowComplete(this);
}

}  // namespace fncc
