#include "sim/simulator.hpp"

#include <algorithm>
#include <cassert>
#include <vector>

// The sim kernel is otherwise below the net layer; the packet arena is the
// one deliberate exception so every component of a run shares one pool with
// run lifetime (see README.md, "Layer map").
#include "net/packet_pool.hpp"

namespace fncc {

Simulator::Simulator() {
  pools_.push_back(std::make_unique<PacketPool>());
  lane0_.pool = pools_.front().get();
  lanes_.push_back(&lane0_);
}

Simulator::~Simulator() {
  // A partitioned run leaves the constructing thread's active lane pointing
  // into this simulator; clear it so a later simulator on this thread does
  // not inherit a dangling lane.
  if (std::find(lanes_.begin(), lanes_.end(), t_active_lane_) !=
      lanes_.end()) {
    t_active_lane_ = nullptr;
  }
}

std::uint64_t Simulator::pool_total_created() const {
  std::uint64_t n = 0;
  for (const auto& p : pools_) n += p->total_created();
  return n;
}

std::uint64_t Simulator::pool_acquires() const {
  std::uint64_t n = 0;
  for (const auto& p : pools_) n += p->acquires();
  return n;
}

std::uint64_t Simulator::pool_int_blocks_created() const {
  std::uint64_t n = 0;
  for (const auto& p : pools_) n += p->int_blocks_created();
  return n;
}

void Simulator::Partition(int lanes) {
  assert(!multi_ && "Partition called twice");
  assert(lane0_.queue.Empty() && lane0_.now == 0 &&
         "Partition must precede any scheduling (build the fabric after)");
  if (lanes <= 1) return;
  for (int i = 1; i < lanes; ++i) {
    pools_.push_back(std::make_unique<PacketPool>());
    auto lane = std::make_unique<Lane>();
    lane->pool = pools_.back().get();
    lane->id = i;
    lanes_.push_back(lane.get());
    extra_lanes_.push_back(std::move(lane));
  }
  mailboxes_.resize(static_cast<std::size_t>(lanes));
  multi_ = true;
  // The constructing thread keeps working (building the fabric, launching
  // flows): give it lane 0 so un-scoped setup code stays well-defined.
  t_active_lane_ = &lane0_;
}

void Simulator::RegisterMailbox(int dst_lane, void* ctx, MailboxDrainFn drain,
                                MailboxMinTimeFn min_time,
                                MailboxPendingFn pending) {
  assert(multi_ && dst_lane >= 0 && dst_lane < num_lanes());
  mailboxes_[static_cast<std::size_t>(dst_lane)].push_back(
      Mailbox{ctx, drain, min_time, pending});
}

void Simulator::Run() {
  ClearStop();
  if (multi_) {
    RunMulti(kTimeInfinity, /*settle=*/false);
    return;
  }
  Lane& l = lane0_;
  while (!stop_requested() && !l.queue.Empty()) {
    Time t = 0;
    auto cb = l.queue.PopNext(&t, &l.cur_order);
    assert(t >= l.now && "time went backwards");
    l.now = t;
    ++l.events_processed;
    cb();
  }
}

void Simulator::RunUntil(Time t) {
  ClearStop();
  if (multi_) {
    RunMulti(t, /*settle=*/true);
    return;
  }
  Lane& l = lane0_;
  while (!stop_requested() && !l.queue.Empty() && l.queue.NextTime() <= t) {
    Time et = 0;
    auto cb = l.queue.PopNext(&et, &l.cur_order);
    assert(et >= l.now && "time went backwards");
    l.now = et;
    ++l.events_processed;
    cb();
  }
  if (!stop_requested() && l.now < t) l.now = t;
}

Time Simulator::NextEventTime() {
  Time next = kTimeInfinity;
  for (Lane* l : lanes_) {
    if (l->queue.Empty()) continue;
    const Time t = l->queue.NextTime();
    if (t < next) next = t;
  }
  // Buffered cross-lane handoffs bound the next window too: the window
  // starting at `next` drains them into their lanes before running, so a
  // buffered delivery earlier than every queued event must open (and size)
  // the window exactly as if it were already queued. This is what makes
  // the fused drain-then-run window sequence identical to the historical
  // run-then-drain one.
  for (const auto& lane_boxes : mailboxes_) {
    for (const Mailbox& m : lane_boxes) {
      const Time t = m.min_time(m.ctx);
      if (t < next) next = t;
    }
  }
  return next;
}

Time Simulator::WindowClose(Time start, Time limit) const {
  Time close = lookahead_ >= kTimeInfinity - start ? kTimeInfinity
                                                   : start + lookahead_;
  if (limit != kTimeInfinity && limit + 1 < close) close = limit + 1;
  // A zero-width window cannot make progress; the harness guards against
  // zero cross-lane latency, so this only backstops hand-built setups.
  assert(close > start && "cross-lane lookahead must be positive");
  return close > start ? close : start + 1;
}

void Simulator::RunLaneWindow(int id, Time close) {
  ActiveLaneScope scope(this, id);
  Lane& l = *lanes_[static_cast<std::size_t>(id)];
  // No per-event stop check: a window always runs to completion so that
  // where a Stop() lands is deterministic (the window barrier).
  while (!l.queue.Empty() && l.queue.NextTime() < close) {
    Time et = 0;
    auto cb = l.queue.PopNext(&et, &l.cur_order);
    assert(et >= l.now && "time went backwards");
    l.now = et;
    ++l.events_processed;
    cb();
  }
}

void Simulator::DrainLaneMailboxes(int id) {
  ActiveLaneScope scope(this, id);
  for (const Mailbox& m : mailboxes_[static_cast<std::size_t>(id)]) {
    m.drain(m.ctx);
  }
}

void Simulator::SettleLanes(Time t) {
  if (stop_requested()) return;
  for (Lane* l : lanes_) {
    if (l->now < t) l->now = t;
  }
}

// Serial reference implementation of the window protocol; the persistent
// worker engine in exec/domain_scheduler.cpp runs the same fused windows
// with a barrier in place of the sequential loop, so both produce
// identical pop orders. Each window drains the previous window's sealed
// handoffs (per lane, before that lane runs), runs every lane to `close`,
// then flips the outbox phase to seal this window's sends. A Stop() lands
// after the flip — sends stay sealed, and because NextEventTime counts
// them, a later run resumes exactly where an unstopped run would have.
void Simulator::RunMulti(Time bound, bool settle) {
  for (;;) {
    const Time start = NextEventTime();
    if (start == kTimeInfinity || start > bound) break;
    const Time close = WindowClose(start, bound);
    ++windows_executed_;
    for (Lane* l : lanes_) {
      DrainLaneMailboxes(l->id);
      RunLaneWindow(l->id, close);
    }
    FlipOutboxPhase();
    if (stop_requested()) break;
  }
  if (settle) {
    SettleLanes(bound);
  } else if (!stop_requested()) {
    // Run-to-exhaustion: the serial loop reports the last executed
    // event's time, so align every lane to the furthest one.
    Time last = 0;
    for (Lane* l : lanes_) {
      if (l->now > last) last = l->now;
    }
    SettleLanes(last);
  }
}

}  // namespace fncc
