#include "transport/host.hpp"

#include <cassert>

#include "net/packet_pool.hpp"
#include "sim/log.hpp"

namespace fncc {

Host::Host(Simulator* sim, NodeId id, std::string name, HostConfig config,
           std::shared_ptr<FlowTable> flows)
    : Endpoint(sim, id, std::move(name)),
      config_(config),
      nic_(sim),
      flows_(flows != nullptr ? std::move(flows)
                              : std::make_shared<FlowTable>()) {
  set_deliver_event(&Host::DeliverPacketEvent);
  set_prefetch_event(&Host::PrefetchDeliveries);
}

void Host::DeliverPacketEvent(void* host, void* pkt, std::uint64_t in_port) {
  // Qualified call: Host is final, so this resolves (and inlines) without
  // a vtable load — the per-delivery fast path.
  static_cast<Host*>(host)->Host::ReceivePacket(
      WrapRawPacket(static_cast<Packet*>(pkt)), static_cast<int>(in_port));
}

void Host::PrefetchDeliveries(void* host, void* const* pkts, int n) {
  auto* self = static_cast<Host*>(host);
  const FlowTable& flows = *self->flows_;
  // Sort the hints by slot index so the prefetches walk the SoA arrays in
  // address order (adjacent slots share lines and pages). Insertion sort:
  // n <= kMaxDeliveryBatch and the batches are nearly-random, tiny.
  struct Hint {
    std::uint32_t slot;
    FlowId flow;
    bool data;
  };
  Hint hints[Simulator::kMaxDeliveryBatch];
  int m = 0;
  for (int i = 0; i < n; ++i) {
    const auto* pkt = static_cast<const Packet*>(pkts[i]);
    if (pkt->type == PacketType::kPfcPause ||
        pkt->type == PacketType::kPfcResume) {
      continue;  // no per-flow state
    }
    const Hint h{FlowTable::SlotIndex(pkt->flow), pkt->flow,
                 pkt->type == PacketType::kData};
    int j = m++;
    for (; j > 0 && hints[j - 1].slot > h.slot; --j) hints[j] = hints[j - 1];
    hints[j] = h;
  }
  for (int i = 0; i < m; ++i) {
    if (hints[i].data) {
      flows.PrefetchData(hints[i].flow);
    } else {
      flows.PrefetchAck(hints[i].flow);  // ACK and CNP both hit the hot row
    }
  }
}

SenderQp* Host::StartFlow(const FlowSpec& spec, const CcConfig& cc_config) {
  assert(spec.src == this->id() && "flow must originate here");
  SenderQp* qp = flows_->Register(this, spec, cc_config);
  qp_list_.push_back(qp);
  return qp;
}

SenderQp* Host::qp(FlowId flow) const {
  FlowSlot* s = flows_->Lookup(flow);
  if (s == nullptr) return nullptr;
  SenderQp* q = s->qp();
  return (q != nullptr && q->host() == this) ? q : nullptr;
}

void Host::TransmitFromQp(PacketPtr pkt) { nic_.Enqueue(std::move(pkt)); }

void Host::ForgetQp(SenderQp* qp) { std::erase(qp_list_, qp); }

void Host::ReceivePacket(PacketPtr pkt, int /*in_port*/) {
  switch (pkt->type) {
    case PacketType::kPfcPause:
      nic_.SetPaused(true);
      return;
    case PacketType::kPfcResume:
      nic_.SetPaused(false);
      return;
    case PacketType::kData:
      HandleData(std::move(pkt));
      return;
    case PacketType::kAck: {
      // One indexed load to the flow's 64-byte hot row; the common case
      // (advance + CC update + window re-check) completes against it. The
      // qp null check covers a matching-generation id whose slot has no
      // live sender (released, not yet re-registered); the src check
      // covers ids minted by another host sharing the table.
      HotFlowRow* row = flows_->HotLookup(pkt->flow);
      if (row != nullptr && row->qp != nullptr && row->src == id()) {
        SenderQp::HandleAckHot(*row, *pkt);
      }
      return;
    }
    case PacketType::kCnp: {
      HotFlowRow* row = flows_->HotLookup(pkt->flow);
      if (row != nullptr && row->qp != nullptr && row->src == id()) {
        row->qp->HandleCnp();
      }
      return;
    }
  }
}

void Host::HandleData(PacketPtr pkt) {
  // Registered flows resolve to their slot's receiver half; ids whose
  // slot index the table never minted (hand-crafted test traffic) use the
  // overflow map. Data that names a minted slot but fails the generation
  // check is treated as late data of a *released* flow and dropped:
  // resurrecting it as an overflow tenant would re-count it into N
  // forever (the sender is gone — there is nothing useful to ACK).
  RecvCtx* ctx_ptr;
  if (FlowSlot* s = flows_->Lookup(pkt->flow)) {
    // Late go-back-N duplicates are dropped the same way from one settle
    // delay after the sender saw the final ACK: nothing waits for their
    // ACK, the harness releases no slot earlier, and a completion that
    // old reads the same at every partitioning and thread count.
    if (s->recv.done &&
        s->sender_done_at.load(std::memory_order_relaxed) <=
            sim()->Now() - sim()->settle_delay()) {
      ++stale_flow_packets_;
      return;
    }
    ctx_ptr = &s->recv;
  } else if (flows_->IsStale(pkt->flow)) {
    ++stale_flow_packets_;
    return;
  } else {
    ctx_ptr = &overflow_recv_[pkt->flow];
  }
  RecvCtx& ctx = *ctx_ptr;
  if (!ctx.claimed) {
    ctx.claimed = true;
    ctx.claimed_by = this;
    ++active_inbound_;  // a new inbound QP connection
  }

  if (pkt->seq == ctx.rcv_nxt) {
    ctx.rcv_nxt += pkt->payload_bytes;
    if (pkt->last_of_flow) ctx.total_bytes = pkt->seq + pkt->payload_bytes;
  } else if (pkt->seq > ctx.rcv_nxt) {
    ++out_of_order_;
    // A gap: something was dropped upstream (only possible in mis-tuned
    // lossy scenarios). Discard; the sender's RTO will go-back-N. Re-ACK
    // so the sender learns the receive point quickly.
    Log(LogLevel::kWarn, sim()->Now(), "%s: flow %u gap: got %llu want %llu",
        name().c_str(), pkt->flow,
        static_cast<unsigned long long>(pkt->seq),
        static_cast<unsigned long long>(ctx.rcv_nxt));
  }
  // (seq < rcv_nxt: duplicate from go-back-N; just re-ACK.)

  if (config_.attach_int_to_ack) {
    ctx.last_int = pkt->int_stack;
  }
  ctx.last_path_id = pkt->path_id;

  MaybeSendCnp(*pkt, ctx);

  const bool flow_finished =
      !ctx.done && ctx.total_bytes > 0 && ctx.rcv_nxt >= ctx.total_bytes;
  ++ctx.pkts_since_ack;
  const bool force_ack = flow_finished || pkt->last_of_flow ||
                         pkt->seq != ctx.rcv_nxt - pkt->payload_bytes;
  if (ctx.pkts_since_ack >= config_.ack_every || force_ack) {
    SendAck(*pkt, ctx);
  }
  if (flow_finished) {
    ctx.done = true;
    --active_inbound_;  // QP connection torn down
  }
}

void Host::SendAck(const Packet& data, RecvCtx& ctx) {
  ctx.pkts_since_ack = 0;
  PacketPtr ack = sim()->packet_pool().Acquire();
  ack->type = PacketType::kAck;
  ack->flow = data.flow;
  ack->src = id();
  ack->dst = data.src;
  ack->sport = data.dport;  // reverse five-tuple: symmetric ECMP pairs it
  ack->dport = data.sport;  // with the data path
  ack->size_bytes = kAckBytes;
  ack->seq = ctx.rcv_nxt;
  ack->req_path_id = ctx.last_path_id;  // Fig. 7: request path's XOR id
  if (config_.echo_timestamp) ack->t_sent = data.t_sent;
  if (config_.report_concurrent_flows) {
    ack->concurrent_flows =
        static_cast<std::uint16_t>(std::min(active_inbound_, 0xFFFF));
  }
  if (config_.attach_int_to_ack) {
    // HPCC: the receiver echoes the request path's INT (request order).
    ack->int_stack = ctx.last_int;
    ack->int_reversed = false;
    ack->size_bytes += static_cast<std::uint32_t>(ctx.last_int.size()) *
                       kIntBytesPerHop;
  }
  nic_.Enqueue(std::move(ack));
}

void Host::MaybeSendCnp(const Packet& data, RecvCtx& ctx) {
  if (!data.ecn_ce) return;
  if (sim()->Now() - ctx.last_cnp < config_.cnp_interval) return;
  ctx.last_cnp = sim()->Now();
  PacketPtr cnp = sim()->packet_pool().Acquire();
  cnp->type = PacketType::kCnp;
  cnp->flow = data.flow;
  cnp->src = id();
  cnp->dst = data.src;
  cnp->sport = data.dport;
  cnp->dport = data.sport;
  cnp->size_bytes = kCnpBytes;
  nic_.Enqueue(std::move(cnp));
}

void Host::NotifyFlowComplete(SenderQp* qp) {
  if (FlowSlot* s = flows_->Lookup(qp->spec().id)) {
    s->sender_done_at.store(sim()->Now(), std::memory_order_relaxed);
  }
  if (on_flow_complete) on_flow_complete(*qp);
}

}  // namespace fncc
