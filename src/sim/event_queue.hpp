// Hybrid event scheduler: a hierarchical timing wheel for near-horizon
// events (sim/timing_wheel.hpp — serialization, propagation, CC rate
// timers) with a binary heap retained as the overflow level for far
// timers. Both sides hold the same {t, seq, event} entries and share one
// schedule-sequence counter, so the pop order is the exact global
// (time, seq) order — FIFO among simultaneous events — regardless of which
// structure holds an event.
//
// The queue only pushes and pops: nothing is cancelled or moved once
// scheduled. A re-armable timer keeps its deadline in its owner and lets a
// carrier event re-file or fall inert when it pops (sim/lazy_timer.hpp).
//
// Every event is a TypedEvent (sim/timing_wheel.hpp): a bare function
// pointer plus two pointer words and a 64-bit argument, with an optional
// drop hook that releases the payload of an event still pending when the
// queue is destroyed. Scheduling copies the record into its entry: nothing
// is type-erased, and once the wheel and heap have grown to the pending
// count it allocates nothing.
#pragma once

#include <cassert>
#include <cstdint>
#include <vector>

#include "sim/time.hpp"
#include "sim/timing_wheel.hpp"

namespace fncc {

/// Bit 63 of an event's order word (the `seq` half of the (t, seq) total
/// order). Events scheduled through the ordinary Schedule paths mint
/// (kNativeOrderBit | counter) from a per-queue sequence counter — FIFO
/// among equal timestamps, exactly the old behavior. Link deliveries
/// instead carry an explicit partition-invariant word through
/// ScheduleOrdered: (directed-edge index << 32) | per-edge FIFO counter,
/// bit 63 clear. At equal times, therefore, all deliveries sort before all
/// native events, deliveries order by wire position (edge, then arrival
/// number) rather than by which queue minted them, and natives keep their
/// per-queue FIFO. That rule is what keeps pop order — and every simulation
/// output — independent of how the fabric is partitioned into event lanes
/// (Simulator::Partition): a delivery's word is the same no matter which
/// lane's queue it lands in.
inline constexpr std::uint64_t kNativeOrderBit = 1ull << 63;

/// Bit 62, set (together with kNativeOrderBit) on flow-start events. The
/// third order-word class: starts are natives that can fire at the same
/// timestamp in different lanes, so — like deliveries — they must carry a
/// partition-invariant word instead of a minted per-queue counter. The
/// word is kNativeOrderBit | kFlowStartOrderBit | the flow's dense launch
/// serial (FlowSpec::launch_serial): unique among starts (serials are
/// dense), disjoint from deliveries (bit 63: edge indices stay below
/// 2^30, so a delivery never sets bits 62/63) and from minted natives
/// (per-queue counters never reach 2^62). At equal timestamps, then:
/// deliveries first (by wire position), minted natives next (per-queue
/// FIFO), flow starts last (by launch order) — the same total order in
/// every partitioning, which is what lets the harness launcher (whose
/// recycled FlowTable ids are NOT launch-ordered) fan out over exec
/// domains. Any new native source that can fire at equal timestamps in
/// different domains must mint its own invariant word the same way.
inline constexpr std::uint64_t kFlowStartOrderBit = 1ull << 62;

/// Timed-event scheduler. Events with equal timestamps run in scheduling
/// order (stable), which the packet pipeline relies on.
class EventQueue {
 public:
  EventQueue() = default;
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;
  /// Drops every event still pending (TypedEvent::drop): the only place a
  /// drop hook runs.
  ~EventQueue();

  /// Schedules `ev` at absolute time `t`.
  void Schedule(Time t, const TypedEvent& ev) { Push(t, MintOrder(), ev); }

  /// Schedules `ev` at absolute time `t` with an explicit order word
  /// instead of a freshly minted one (see kNativeOrderBit). The word must
  /// be unique per queue among pending events at the same `t` — the
  /// link-delivery path guarantees this with per-edge FIFO counters, a
  /// re-filed timer with a word it minted here (MintOrder).
  void ScheduleOrdered(Time t, std::uint64_t order, const TypedEvent& ev) {
    Push(t, order, ev);
  }

  /// Mints the next native order word (kNativeOrderBit | counter): the
  /// word a Schedule call made now would carry. A lazy timer mints its
  /// word when it is armed and files it later through ScheduleOrdered.
  std::uint64_t MintOrder() { return kNativeOrderBit | next_seq_++; }

  /// True when no runnable event remains.
  [[nodiscard]] bool Empty() const { return wheel_.size() == 0 && heap_.empty(); }

  /// Time of the earliest runnable event; kTimeInfinity when empty.
  /// Non-const: peeking may advance the wheel cursor (lazily, without
  /// changing the observable order).
  [[nodiscard]] Time NextTime() {
    const SchedEntry* w = wheel_.Peek();
    const Time tw = w != nullptr ? w->t : kTimeInfinity;
    const Time th = heap_.empty() ? kTimeInfinity : heap_.front().t;
    return tw < th ? tw : th;
  }

  /// Extracts the earliest event, setting `t` to its timestamp and, when
  /// `order` is non-null, the event's order word — callers use (t, order)
  /// to position the event's side effects in the global sequence. The
  /// caller runs the returned event; the queue no longer owns it.
  /// Precondition: !Empty().
  [[nodiscard]] TypedEvent PopNext(Time* t, std::uint64_t* order = nullptr);

  [[nodiscard]] std::size_t size() const {
    return wheel_.size() + heap_.size();
  }

 private:
  /// Enters `{t, order, ev}` into the wheel or the overflow heap.
  void Push(Time t, std::uint64_t order, const TypedEvent& ev);

  /// Removes and returns the heap's root. Precondition: !heap_.empty().
  SchedEntry HeapPop();

  std::vector<SchedEntry> heap_;  // overflow level: beyond the wheel horizon
  TimingWheel wheel_;
  std::uint64_t next_seq_ = 0;
};

}  // namespace fncc
