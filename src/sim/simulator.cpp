#include "sim/simulator.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>
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

void Simulator::set_int_block_hops(int hops) {
  for (const auto& p : pools_) p->set_int_block_hops(hops);
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

void Simulator::RunEvents(Lane& l, Time close) {
  while (!l.queue.Empty() && l.queue.NextTime() < close) {
    Time t = 0;
    auto cb = l.queue.PopNext(&t, &l.cur_order);
    assert(t >= l.now && "time went backwards");
    l.now = t;
    ++l.events_processed;
    cb();
  }
}

void Simulator::RequireUnpartitioned() const {
  if (multi_) {
    throw std::logic_error(
        "a partitioned Simulator runs through exec/DomainScheduler, not "
        "Simulator::Run/RunUntil");
  }
}

void Simulator::Run() {
  RequireUnpartitioned();
  RunEvents(lane0_, kTimeInfinity);
}

void Simulator::RunUntil(Time t) {
  RequireUnpartitioned();
  RunEvents(lane0_, t == kTimeInfinity ? t : t + 1);
  if (lane0_.now < t) lane0_.now = t;
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
  RunEvents(*lanes_[static_cast<std::size_t>(id)], close);
}

void Simulator::DrainLaneMailboxes(int id) {
  ActiveLaneScope scope(this, id);
  for (const Mailbox& m : mailboxes_[static_cast<std::size_t>(id)]) {
    m.drain(m.ctx);
  }
}

void Simulator::SettleLanes(Time t) {
  for (Lane* l : lanes_) {
    if (l->now < t) l->now = t;
  }
}

}  // namespace fncc
