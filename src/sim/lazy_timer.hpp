// A re-armable timer on a push/pop-only event queue: the owner keeps the
// deadline and its order word, and one carrier event at a time sits in the
// queue on the timer's behalf.
//
// Arm() mints the order word at once (Simulator::MintOrder), exactly the
// word a fresh Schedule would have taken, so the timer fires at the same
// (t, order) as a cancel + schedule re-arm would. When the new deadline is
// no earlier than the pending carrier, nothing is scheduled: that carrier
// re-files itself when it pops. An earlier deadline gets a fresh carrier,
// and the old one falls inert when it pops. A carrier is live only while
// its own (t, order) key is the one the timer recorded when it filed it —
// keys are unique per lane, so that key is the token. Disarm() only clears
// the deadline.
//
// A carrier is filed at most kMaxLead ahead of the clock and hops on
// until the deadline is within reach. A timer's owner cannot take its
// carrier back, so this bounds how long a finished flow's carrier holds a
// queue slot: with a 5 ms RTO filed at the deadline, the carriers of every
// flow finished in the last 5 ms stay queued (+5.5 MiB peak RSS at the
// arrival rate of the hadoop benchmark workload).
//
// A carrier outlives a disarmed timer, so it names its owner by an id the
// owner can resolve and find gone (FlowTable::Lookup for a flow's timers),
// never by a raw pointer: a TimerRoute packs that id and the timer's
// number into the carrier's argument.
#pragma once

#include <cassert>
#include <cstdint>

#include "sim/simulator.hpp"

namespace fncc {

/// Where an owner's timer carriers go: the carrier of timer `which` is
/// run(p0, nullptr, key | which << 32). `run` resolves Key(arg) — a
/// FlowId for a flow's timers — and dispatches on Which(arg).
struct TimerRoute {
  TypedEvent::Fn run = nullptr;
  void* p0 = nullptr;
  std::uint32_t key = 0;

  [[nodiscard]] TypedEvent Carrier(std::uint32_t which) const {
    return TypedEvent{.run = run,
                      .drop = nullptr,
                      .p0 = p0,
                      .p1 = nullptr,
                      .arg = key | static_cast<std::uint64_t>(which) << 32};
  }
  static std::uint32_t Key(std::uint64_t arg) {
    return static_cast<std::uint32_t>(arg);
  }
  static std::uint32_t Which(std::uint64_t arg) {
    return static_cast<std::uint32_t>(arg >> 32);
  }
};

class LazyTimer {
 public:
  /// The furthest ahead of the clock a carrier is filed.
  static constexpr Time kMaxLead = 250 * kMicrosecond;

  /// (Re-)arms the timer for absolute time `t` (not before now).
  void Arm(Simulator& sim, Time t, const TypedEvent& carrier) {
    assert(t >= sim.Now() && "a timer cannot expire in the past");
    deadline_ = t;
    order_ = sim.MintOrder();
    if (t < carrier_at_) File(sim, carrier);
  }

  /// Stops the timer; a pending carrier falls inert when it pops.
  void Disarm() { deadline_ = kTimeInfinity; }

  [[nodiscard]] bool armed() const { return deadline_ != kTimeInfinity; }

  /// Called by the owner when one of this timer's carriers pops. True: the
  /// timer expires now (it is disarmed; the owner runs the expiry and may
  /// re-arm). False: the carrier was stale or disarmed, or it re-filed
  /// itself on toward the deadline.
  bool Expired(Simulator& sim, const TypedEvent& carrier) {
    const Simulator::OrderKey key = sim.CurrentOrderKey();
    if (key.t != carrier_at_ || key.order != carrier_order_) return false;
    carrier_at_ = kTimeInfinity;
    if (deadline_ == kTimeInfinity) return false;
    if (key.t == deadline_ && key.order == order_) {
      deadline_ = kTimeInfinity;
      return true;
    }
    File(sim, carrier);  // a hop, or re-armed since this carrier was filed
    return false;
  }

 private:
  void File(Simulator& sim, const TypedEvent& carrier) {
    const Time reach = sim.Now() + kMaxLead;
    carrier_at_ = deadline_ < reach ? deadline_ : reach;
    carrier_order_ = order_;
    sim.ScheduleAtOrdered(carrier_at_, order_, carrier);
  }

  Time deadline_ = kTimeInfinity;
  std::uint64_t order_ = 0;
  // The pending live carrier's key; kTimeInfinity when none is pending.
  Time carrier_at_ = kTimeInfinity;
  std::uint64_t carrier_order_ = 0;
};

}  // namespace fncc
