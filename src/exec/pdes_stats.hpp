// Opt-in window telemetry for the persistent-lane PDES engine
// (`output.pdes_stats = true` in a spec or as an fncc_run override).
// Collected by exec/DomainScheduler, written by the harness as a separate
// `<point>_pdes_stats.json`.
//
// The window-shape numbers (windows, per-lane windows, events-per-window
// histogram) are deterministic at a fixed partitioning — the window
// sequence is itself a function of the event stream. The thread-attributed
// numbers (who ran which lane, who waited how at the barrier) depend on
// scheduling and core count, so the whole file is machine-variant by
// contract: it is never listed in manifests and never part of equivalence
// assertions (like the pool_packets_* telemetry, see ROADMAP conventions).
#pragma once

#include <array>
#include <cstdint>
#include <vector>

namespace fncc {

struct PdesStats {
  /// Histogram buckets: bucket b counts windows whose total executed
  /// events had bit_width b, i.e. [2^(b-1), 2^b) events (bucket 0 = idle
  /// windows, which the engine never schedules but the bucket keeps the
  /// mapping total).
  static constexpr int kHistBuckets = 24;

  int lanes = 0;
  /// Barrier participants: the coordinating thread plus its persistent
  /// workers, min(threads, lanes). 1 means the telemetry ran on the
  /// single-participant engine (no cross-thread effects to observe).
  int participants = 0;

  std::uint64_t windows = 0;  // windows executed
  std::uint64_t events = 0;   // events executed across all windows
  /// Windows in which the lane executed at least one event — the
  /// load-balance picture work stealing feeds on.
  std::vector<std::uint64_t> lane_windows;
  /// Final per-lane event counts.
  std::vector<std::uint64_t> lane_events;
  std::array<std::uint64_t, kHistBuckets> events_per_window_log2{};
  /// Lane-pair outboxes (Network::outboxes) and the heap bytes their
  /// buffers hold at the end of the point.
  std::uint64_t outbox_pairs = 0;
  std::uint64_t outbox_bytes = 0;

  // Per-participant (index 0 = the coordinating thread):
  /// Lane-windows this thread executed (claimed from the shared ticket).
  std::vector<std::uint64_t> thread_lane_windows;
  /// Claims beyond the thread's first in a window — lane-windows it took
  /// over after finishing one, i.e. successful steals.
  std::vector<std::uint64_t> thread_steals;
  /// Barrier releases observed while still spinning / after blocking on
  /// the generation futex.
  std::vector<std::uint64_t> thread_barrier_spins;
  std::vector<std::uint64_t> thread_barrier_sleeps;
};

}  // namespace fncc
