// The driver of a lane-partitioned Simulator — its only one: conservative-
// PDES windows executed by the calling thread plus worker threads that live
// for the whole point. An unpartitioned Simulator is passed straight to
// Simulator::RunUntil.
//
// The historical engine submitted one pool job per lane per phase
// and paid two full Submit+Wait round-trips per window — job-queue mutex
// traffic, condvar broadcasts, and a cold worker restart, hundreds of
// thousands of times per point. Here the workers persist across windows
// and across RunUntil calls, parked at a sense-reversing barrier
// (exec/window_barrier.hpp), and a window costs exactly ONE barrier cycle:
//
//   prologue (last arriver, single-threaded): flip the outbox phase —
//     sealing the previous window's cross-lane sends — then compute the
//     next window's close from NextEventTime (which counts sealed
//     handoffs, so the window sequence is identical to the historical
//     run-then-drain protocol);
//   work (all participants): claim lanes from a shared atomic ticket; for
//     each claimed lane, drain its sealed mailboxes, then run its events
//     to the close. Run and drain fuse safely because sends append to the
//     double-buffered outboxes' *active* phase while drains read the
//     *sealed* phase (net/egress_port.hpp).
//
// The ticket is also the work-stealing mechanism: a thread that finishes
// its first lane early keeps claiming not-yet-started lanes. Stealing is
// whole-lane — every event still executes in its owning lane's queue under
// that lane's scope, so the determinism invariants (edge-named order
// words, per-lane arenas) are untouched; only which *thread* runs a lane
// changes, which is already asserted output-invariant.
//
// Exceptions: the first exception (in completion order) is captured,
// later ones are dropped, every other lane still finishes its window, the
// workers park at the barrier, and the coordinating thread rethrows from
// RunUntil — leaving the scheduler reusable and destructible.
#pragma once

#include <atomic>
#include <exception>
#include <memory>
#include <thread>
#include <vector>

#include "exec/window_barrier.hpp"
#include "sim/simulator.hpp"
#include "sim/time.hpp"

namespace fncc {

struct PdesStats;

class DomainScheduler {
 public:
  /// A partitioned simulator runs the window engine with
  /// min(num_threads, lanes) participants (at least one): the calling
  /// thread plus that many minus one workers, so one participant starts no
  /// thread and runs each window's prologue inline. An unpartitioned one
  /// runs plain Simulator::RunUntil. `stats` (optional) enables window
  /// telemetry.
  DomainScheduler(Simulator* sim, int num_threads, PdesStats* stats = nullptr);
  ~DomainScheduler();
  DomainScheduler(const DomainScheduler&) = delete;
  DomainScheduler& operator=(const DomainScheduler&) = delete;

  /// Runs events with timestamp <= t, then settles every lane clock to
  /// exactly t — same contract as Simulator::RunUntil. Callable repeatedly
  /// (the harness advances in chunks); workers stay parked in between.
  /// Between calls the coordinator may mutate lane state under explicit
  /// ActiveLaneScopes — the streaming launcher schedules flow starts and
  /// abort timers into their owning lanes and releases completed flows'
  /// slots (reading the lane's clock) this way. The barrier's arrival
  /// chain makes those writes visible to the workers at the next cycle,
  /// and because launches are enqueued before the next call, the window
  /// prologue's NextEventTime always counts pending starts — the
  /// lookahead can never open a window past a scheduled launch.
  void RunUntil(Time t);

 private:
  /// The barrier completion: runs single-threaded between windows on
  /// whichever participant arrived last. Seals the finished window's
  /// sends, accounts its telemetry, and either opens the next window
  /// (resetting the ticket) or flags the run as done.
  void PrepareWindow();
  /// One window's worth of work for one participant: claim lanes from the
  /// ticket until it runs dry; drain-then-run each claimed lane.
  void RunWindowPhase(int thread_id);
  /// Barrier-loop shared by the coordinator (thread 0, inside RunUntil)
  /// and the persistent workers (threads 1..participants-1).
  void RunLoop(int thread_id);
  void FinishWindowStats();
  void NoteArrival(int thread_id, WindowBarrier::Arrival arrival);

  Simulator* sim_;
  PdesStats* stats_;  // null = telemetry off
  int lanes_ = 1;
  int participants_ = 1;
  std::unique_ptr<WindowBarrier> barrier_;
  std::vector<std::thread> workers_;

  // Window state. Plain fields are written only inside PrepareWindow (or
  // by the coordinator before it arrives) and read only after the barrier
  // release — the barrier's acq_rel arrival chain is their
  // synchronization. done_ and shutdown_ are atomic because a released
  // worker may still be reading them while the coordinator starts (or the
  // destructor ends) the next cycle.
  Time bound_ = 0;
  Time close_ = 0;
  bool entry_ = true;  // first barrier cycle of a RunUntil: nothing to seal
  /// Tells released workers to exit their RunLoop. Written ONLY inside a
  /// barrier completion (the dtor's, or PrepareWindow's shutdown guard),
  /// read only after a release — workers must never key off shutdown_
  /// directly, which the destructor stores mid-cycle (a worker reading it
  /// early would skip its final arrival and strand the dtor's wait).
  bool stop_workers_ = false;
  std::atomic<bool> done_{true};
  std::atomic<bool> shutdown_{false};
  std::atomic<int> ticket_{0};

  // First-exception-wins capture: the CAS winner stores, PrepareWindow
  // observes the flag at the next barrier, RunUntil rethrows.
  std::atomic<bool> has_error_{false};
  std::exception_ptr error_;

  // Telemetry snapshots (only touched when stats_ != nullptr).
  std::vector<std::uint64_t> lane_events_seen_;
};

}  // namespace fncc
