#include "exec/domain_scheduler.hpp"

#include <bit>
#include <utility>

#include "exec/pdes_stats.hpp"

namespace fncc {

DomainScheduler::DomainScheduler(Simulator* sim, int num_threads,
                                 PdesStats* stats)
    : sim_(sim), stats_(stats), lanes_(sim->num_lanes()) {
  participants_ = num_threads < lanes_ ? num_threads : lanes_;
  if (participants_ < 1) participants_ = 1;
  if (stats_ != nullptr) {
    stats_->lanes = lanes_;
    stats_->participants = participants_;
    stats_->lane_windows.assign(static_cast<std::size_t>(lanes_), 0);
    stats_->lane_events.assign(static_cast<std::size_t>(lanes_), 0);
    stats_->thread_lane_windows.assign(
        static_cast<std::size_t>(participants_), 0);
    stats_->thread_steals.assign(static_cast<std::size_t>(participants_), 0);
    stats_->thread_barrier_spins.assign(
        static_cast<std::size_t>(participants_), 0);
    stats_->thread_barrier_sleeps.assign(
        static_cast<std::size_t>(participants_), 0);
    lane_events_seen_.assign(static_cast<std::size_t>(lanes_), 0);
  }
  if (!sim_->partitioned()) return;
  barrier_ = std::make_unique<WindowBarrier>(participants_);
  workers_.reserve(static_cast<std::size_t>(participants_ - 1));
  for (int id = 1; id < participants_; ++id) {
    workers_.emplace_back([this, id] { RunLoop(id); });
  }
}

DomainScheduler::~DomainScheduler() {
  if (workers_.empty()) return;
  // Workers are parked at the barrier (every RunUntil exit leaves them
  // there, exceptional or not). One more arrival releases them into the
  // stop_workers_ check. The flag is only ever set inside a completion
  // callback — here when this arrival is the last, or in PrepareWindow's
  // shutdown guard when a straggler worker arrives after us — so workers
  // read it strictly via a barrier release. They must NOT act on
  // shutdown_ directly: a worker released from the final window could
  // observe the store below before re-arriving and exit a cycle early,
  // leaving this arrival waiting forever.
  shutdown_.store(true, std::memory_order_release);
  barrier_->ArriveAndWait([this] { stop_workers_ = true; });
  for (std::thread& w : workers_) w.join();
}

void DomainScheduler::RunUntil(Time t) {
  if (!sim_->partitioned()) {
    sim_->RunUntil(t);
    return;
  }
  // Anything the coordinator scheduled into lane queues since the last
  // call (e.g. the streaming launcher's flow starts and abort timers) is
  // already in place: the first PrepareWindow's NextEventTime reads every
  // lane queue, so the opening window is bounded by pending launches
  // exactly as by leftover events — conservative lookahead never skips a
  // scheduled start.
  bound_ = t;
  entry_ = true;  // published to PrepareWindow by the coordinator's arrival
  RunLoop(0);
  if (has_error_.load(std::memory_order_acquire)) {
    std::exception_ptr err = std::exchange(error_, nullptr);
    has_error_.store(false, std::memory_order_release);
    std::rethrow_exception(err);
  }
  sim_->SettleLanes(t);
}

void DomainScheduler::RunLoop(int thread_id) {
  for (;;) {
    const WindowBarrier::Arrival arrival =
        barrier_->ArriveAndWait([this] { PrepareWindow(); });
    if (stats_ != nullptr) NoteArrival(thread_id, arrival);
    if (stop_workers_) return;
    if (done_.load(std::memory_order_relaxed)) {
      if (thread_id == 0) return;  // coordinator: back to RunUntil
      continue;                    // worker: park for the next RunUntil
    }
    RunWindowPhase(thread_id);
  }
}

void DomainScheduler::PrepareWindow() {
  // Destructor handshake, straggler-as-last flavor: the dtor stored
  // shutdown_ before arriving (its RMW on the arrival counter publishes
  // it to ours), so this relaxed load is exact. Open no window; tell
  // every released participant — including the waiting dtor's workers —
  // to exit.
  if (shutdown_.load(std::memory_order_relaxed)) {
    stop_workers_ = true;
    return;
  }
  if (entry_) {
    // Entering RunUntil: the sealed buffers may still hold handoffs from
    // the previous run (exhausted at its bound). Flipping here
    // would hide them behind the active phase, so don't — the first
    // window's drains pick them up where they sit.
    entry_ = false;
  } else {
    FinishWindowStats();
    sim_->FlipOutboxPhase();  // seal the window that just ran
  }
  if (has_error_.load(std::memory_order_relaxed)) {
    done_.store(true, std::memory_order_relaxed);
    return;
  }
  const Time start = sim_->NextEventTime();
  if (start == kTimeInfinity || start > bound_) {
    done_.store(true, std::memory_order_relaxed);
    return;
  }
  close_ = sim_->WindowClose(start, bound_);
  ticket_.store(0, std::memory_order_relaxed);
  sim_->NoteWindowExecuted();
  done_.store(false, std::memory_order_relaxed);
}

void DomainScheduler::RunWindowPhase(int thread_id) {
  try {
    const Time close = close_;
    int claimed = 0;
    for (;;) {
      const int lane = ticket_.fetch_add(1, std::memory_order_relaxed);
      if (lane >= lanes_) break;
      // Drain-then-run, per lane: the sealed handoffs addressed to this
      // lane must be in its queue before its events execute (their
      // delivery times can fall inside this window).
      sim_->DrainLaneMailboxes(lane);
      sim_->RunLaneWindow(lane, close);
      ++claimed;
    }
    if (stats_ != nullptr && claimed > 0) {
      // Per-thread slots: no two participants share an index.
      stats_->thread_lane_windows[static_cast<std::size_t>(thread_id)] +=
          static_cast<std::uint64_t>(claimed);
      stats_->thread_steals[static_cast<std::size_t>(thread_id)] +=
          static_cast<std::uint64_t>(claimed - 1);
    }
  } catch (...) {
    bool expected = false;
    if (has_error_.compare_exchange_strong(expected, true,
                                           std::memory_order_acq_rel)) {
      error_ = std::current_exception();
    }
    // Fall through to the barrier: the other participants finish their
    // claimed lanes of this window, PrepareWindow sees the flag and parks
    // everyone.
  }
}

void DomainScheduler::FinishWindowStats() {
  if (stats_ == nullptr) return;
  std::uint64_t total = 0;
  for (int i = 0; i < lanes_; ++i) {
    const std::uint64_t events = sim_->lane_events_processed(i);
    const std::uint64_t delta =
        events - lane_events_seen_[static_cast<std::size_t>(i)];
    if (delta > 0) {
      ++stats_->lane_windows[static_cast<std::size_t>(i)];
    }
    lane_events_seen_[static_cast<std::size_t>(i)] = events;
    stats_->lane_events[static_cast<std::size_t>(i)] = events;
    total += delta;
  }
  ++stats_->windows;
  stats_->events += total;
  int bucket = std::bit_width(total);
  if (bucket >= PdesStats::kHistBuckets) bucket = PdesStats::kHistBuckets - 1;
  ++stats_->events_per_window_log2[static_cast<std::size_t>(bucket)];
}

void DomainScheduler::NoteArrival(int thread_id,
                                  WindowBarrier::Arrival arrival) {
  if (arrival == WindowBarrier::Arrival::kSpun) {
    ++stats_->thread_barrier_spins[static_cast<std::size_t>(thread_id)];
  } else if (arrival == WindowBarrier::Arrival::kSlept) {
    ++stats_->thread_barrier_sleeps[static_cast<std::size_t>(thread_id)];
  }
}

}  // namespace fncc
