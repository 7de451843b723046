// Sender-side queue pair: segments a flow into MTU packets, enforces the
// CC algorithm's window and pacing rate, and tracks completion.
//
// The per-ACK state does not live here: the seq/ack cursors, flow size
// and the CC's rate/window words live in the flow table's HotFlowRow (one
// cache line per flow — see transport/hot_flow.hpp), and HandleAckHot()
// processes an ACK against that row, touching this object only for the CC
// update and the slow tail (RTO rearm, pacing, completion). The CC state
// itself is inline (CongestionControl), not behind a pointer.
//
// Every timer event of a QP (start, pacing, RTO, abort and the CC's
// timers) names the flow by its FlowId and resolves it through
// FlowTable::Lookup when it pops, so an event that outlives the QP — its
// slot released and perhaps handed to a new flow — is inert. Nothing is ever cancelled: Abort,
// Complete and the table's teardown only mark state.
#pragma once

#include <cstdint>

#include "core/congestion_control.hpp"
#include "net/packet.hpp"
#include "sim/lazy_timer.hpp"
#include "sim/simulator.hpp"
#include "transport/flow.hpp"
#include "transport/hot_flow.hpp"

namespace fncc {

class FlowTable;
class Host;

class SenderQp {
 public:
  /// Registers with the simulator: schedules its own Start() at
  /// spec.start_time. spec.id must already be minted in `table`, `hot`
  /// must be the table's row for the minted slot and `cc_config` its
  /// resolved, interned config (only FlowTable::Register constructs QPs;
  /// the row and the config outlive the QP by table invariant).
  SenderQp(Host* host, FlowTable* table, const FlowSpec& spec,
           const CcConfig& cc_config, HotFlowRow* hot);
  SenderQp(const SenderQp&) = delete;
  SenderQp& operator=(const SenderQp&) = delete;

  /// Begins transmission (self-scheduled at spec.start_time).
  void Start();

  /// The ACK hot path, static on purpose: the receive side resolves the
  /// flow's HotFlowRow (one indexed load) and processes the common case —
  /// cumulative advance, CC update, window re-check — entirely against
  /// that row. `row.qp` must be non-null (the caller's liveness check).
  static void HandleAckHot(HotFlowRow& row, const Packet& ack);

  void HandleAck(const Packet& ack) { HandleAckHot(*hot_, ack); }
  void HandleCnp();

  /// Stops the flow immediately (used by staggered long-lived flows, e.g.
  /// the Fig. 13e fairness experiment). Does not fire on_flow_complete.
  void Abort();
  /// Schedules Abort() at absolute time `t`, in the calling thread's active
  /// lane. Like every timer of the QP it names the flow, so a slot
  /// released (and perhaps recycled) before `t` makes it a no-op.
  void AbortAt(Time t);

  [[nodiscard]] Host* host() const { return host_; }
  [[nodiscard]] const FlowSpec& spec() const { return spec_; }
  [[nodiscard]] bool started() const { return started_; }
  [[nodiscard]] bool complete() const { return complete_; }
  [[nodiscard]] Time fct() const { return completion_time_ - spec_.start_time; }

  [[nodiscard]] std::uint64_t snd_nxt() const { return hot_->snd_nxt; }
  [[nodiscard]] std::uint64_t snd_una() const { return hot_->snd_una; }
  [[nodiscard]] std::uint64_t inflight_bytes() const {
    return hot_->snd_nxt - hot_->snd_una;
  }

  /// Current pacing rate — the signal Fig. 9/13 plot per sender.
  [[nodiscard]] double pacing_rate_gbps() const { return cc_.rate_gbps(); }
  [[nodiscard]] const CongestionControl& cc() const { return cc_; }

  /// Go-back-N retransmissions triggered (0 in a healthy lossless run).
  [[nodiscard]] std::uint64_t retransmit_events() const { return rto_count_; }

  /// ACKs whose return path crossed a different switch set than the
  /// request path (Fig. 7 pathID comparison). Non-zero means routing is
  /// asymmetric and FNCC's return-path INT is not trustworthy.
  [[nodiscard]] std::uint64_t asymmetric_acks() const {
    return asymmetric_acks_;
  }

 private:
  // The QP's own timers. Their carriers route to TimerEvent and the CC's
  // to CcTimerEvent, both keyed by this flow's FlowId (TimerRoute).
  enum class Timer : std::uint32_t { kStart, kPace, kRto, kAbort };
  static void TimerEvent(void* table, void* unused, std::uint64_t arg);
  static void CcTimerEvent(void* table, void* unused, std::uint64_t arg);
  /// The live QP `arg`'s FlowId names in `table`, or null once released.
  static SenderQp* Resolve(void* table, std::uint64_t arg);
  [[nodiscard]] TypedEvent TimerCarrier(Timer timer) const;
  // CC update hook (DCQCN's asynchronous rate increases).
  static void OnCcUpdate(void* qp);

  void TrySend();
  void SendOnePacket();
  [[nodiscard]] bool WindowBlocked() const;
  void ArmRto();
  /// Re-arms the RTO `delay` from now (the per-ACK rearm: no event is
  /// scheduled while the pending carrier is due no later).
  void ArmRtoAt(Time delay);
  void OnRto();
  void Complete();
  /// Marks the flow finished and stops its timers.
  void MarkComplete();

  Host* host_;
  // Cached so teardown paths (flow-table destruction marking QPs aborted)
  // never dereference host_ — the owning Host may already be gone when
  // the last host's table reference destroys the remaining QPs.
  Simulator* sim_;
  FlowTable* table_;  // resolves this flow's timer events
  HotFlowRow* hot_;   // this flow's row; cursors/size/CC words live there
  FlowSpec spec_;

  Time next_send_time_ = 0;
  LazyTimer rto_timer_;
  std::uint64_t rto_count_ = 0;
  int rto_backoff_ = 1;  // doubles on each RTO without progress
  std::uint64_t asymmetric_acks_ = 0;
  // Cached at construction (host config / cc config are immutable after):
  // the send and RTO paths read them without chasing host_ or the config.
  Time rto_ = 0;
  std::uint32_t mtu_bytes_ = 0;

  bool started_ = false;
  bool complete_ = false;
  bool in_try_send_ = false;  // re-entrancy guard (CC update hook)
  bool pace_pending_ = false;  // a pacing event is in the queue
  Time completion_time_ = 0;

  // Last member: the largest block (the CC union), after the hot scalars.
  CongestionControl cc_;
};

}  // namespace fncc
