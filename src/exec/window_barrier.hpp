// Sense-reversing centralized barrier for the persistent-lane PDES window
// engine (exec/domain_scheduler.cpp).
//
// One window = one barrier cycle. All participants — the coordinating
// thread inside DomainScheduler::RunUntil plus its persistent workers —
// arrive; the last arriver runs a completion callback (the single-threaded
// window prologue: flip outbox phase, compute the next window close) and
// then releases everyone by bumping the generation counter. Compared with
// the job-pool Submit+Wait pair the old scheduler paid per window, a
// cycle costs each participant one fetch_add and (at worst) one futex
// sleep/wake — no job-queue mutex, no condvar broadcast per phase, and no
// cold restart of the worker loop.
//
// The generation counter is the sense: a participant snapshots it before
// arriving and waits for it to change, so the barrier is immediately
// reusable for the next window with no reset phase. Arrival uses acq_rel
// RMWs, which chains every participant's pre-arrival writes into the
// completion callback and, via the generation bump, into every
// participant's post-release reads — that edge is what makes the
// plain-field window state (close time, done flag) and the sealed outbox
// buffers safely visible without further synchronization.
#pragma once

#include <atomic>
#include <cstdint>

namespace fncc {

class WindowBarrier {
 public:
  /// How a participant got through the barrier — telemetry for the
  /// `output.pdes_stats` layer (barrier-wait counters).
  enum class Arrival {
    kLast,   // ran the completion and released the others
    kSpun,   // released while still spinning
    kSlept,  // had to block on the generation futex
  };

  explicit WindowBarrier(int participants) : participants_(participants) {}
  WindowBarrier(const WindowBarrier&) = delete;
  WindowBarrier& operator=(const WindowBarrier&) = delete;

  [[nodiscard]] int participants() const { return participants_; }

  /// Arrives and blocks until all `participants` have arrived. The last
  /// arriver runs *its own* `on_last` before releasing the others — every
  /// caller must therefore pass an equivalent completion (the scheduler's
  /// coordinator and workers both pass the window prologue; the destructor
  /// relies on the prologue's shutdown guard when a straggling worker ends
  /// up last).
  template <typename F>
  Arrival ArriveAndWait(F&& on_last) {
    const std::uint32_t gen = generation_.load(std::memory_order_acquire);
    const auto arrived = arrived_.fetch_add(1, std::memory_order_acq_rel) + 1;
    if (arrived == static_cast<std::uint32_t>(participants_)) {
      on_last();
      Release();
      return Arrival::kLast;
    }
    return WaitForRelease(gen);
  }

  Arrival ArriveAndWait() {
    return ArriveAndWait([] {});
  }

 private:
  /// Resets the arrival count and bumps the generation, releasing every
  /// waiter. Reset happens before release: a released participant may
  /// arrive for the next cycle immediately.
  void Release();

  /// Spins briefly, then blocks on the generation futex until it moves past
  /// `gen`. Non-template slow path, out of line (window_barrier.cpp).
  Arrival WaitForRelease(std::uint32_t gen);

  const int participants_;
  std::atomic<std::uint32_t> arrived_{0};
  // Monotonic cycle counter; wraps after 2^32 windows, far beyond any
  // point's window count (a wrap mid-wait could alias the snapshot).
  std::atomic<std::uint32_t> generation_{0};
};

}  // namespace fncc
