// DomainScheduler regression tests for the persistent-lane engine's
// failure path: ThreadPool::Wait's first-exception-wins contract must
// survive the move to parked workers. A lane callback that throws mid-
// window must propagate out of RunUntil on the coordinating thread, the
// other lanes must still finish their window, and the scheduler must
// remain both reusable (the next RunUntil works) and destructible (the
// worker handshake can't deadlock on an error'd run).
#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <string>
#include <vector>

#include "exec/domain_scheduler.hpp"
#include "exec/pdes_stats.hpp"
#include "sim/simulator.hpp"
#include "sim/time.hpp"

namespace fncc {
namespace {

struct ThrowError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

void ScheduleInLane(Simulator& sim, int lane, Time t,
                    EventQueue::Callback cb) {
  Simulator::ActiveLaneScope scope(&sim, lane);
  sim.ScheduleAt(t, std::move(cb));
}

TEST(DomainSchedulerTest, LaneExceptionPropagatesFromRunUntil) {
  Simulator sim;
  sim.Partition(2);
  std::vector<int> ran;
  ScheduleInLane(sim, 0, Microseconds(1), [&ran] { ran.push_back(0); });
  ScheduleInLane(sim, 1, Microseconds(1), [] {
    throw ThrowError("lane 1 exploded");
  });

  DomainScheduler sched(&sim, 4);
  EXPECT_THROW(sched.RunUntil(Microseconds(10)), ThrowError);
  // Lane 0's event belongs to the same window and still ran — an error
  // stops the run at the window boundary, it does not abandon peers
  // mid-window (the ThreadPool::Wait behavior).
  EXPECT_EQ(ran, std::vector<int>{0});
}

TEST(DomainSchedulerTest, SchedulerReusableAfterThrow) {
  Simulator sim;
  sim.Partition(2);
  ScheduleInLane(sim, 0, Microseconds(1), [] {
    throw ThrowError("first window");
  });

  DomainScheduler sched(&sim, 4);
  EXPECT_THROW(sched.RunUntil(Microseconds(10)), ThrowError);

  // Same scheduler, fresh events: the error state must have been fully
  // reset when RunUntil rethrew.
  std::vector<int> ran;
  ScheduleInLane(sim, 0, Microseconds(20), [&ran] { ran.push_back(0); });
  ScheduleInLane(sim, 1, Microseconds(20), [&ran] { ran.push_back(1); });
  sched.RunUntil(Microseconds(30));
  EXPECT_EQ(ran.size(), 2u);
  EXPECT_EQ(sim.Now(), Microseconds(30));
}

TEST(DomainSchedulerTest, DestructibleImmediatelyAfterThrow) {
  Simulator sim;
  sim.Partition(4);
  for (int lane = 0; lane < 4; ++lane) {
    ScheduleInLane(sim, lane, Microseconds(1), [] {
      throw ThrowError("every lane throws");
    });
  }
  {
    DomainScheduler sched(&sim, 4);
    // All four lanes throw in the same window; exactly one exception
    // (whichever CAS won) reaches the caller, the rest are swallowed.
    EXPECT_THROW(sched.RunUntil(Microseconds(10)), ThrowError);
    // Scope exit right here: the destructor's shutdown handshake must not
    // hang on workers that just went through the error path.
  }
}

TEST(DomainSchedulerTest, RepeatedRunUntilReusesParkedWorkers) {
  // The harness shape: many chunked RunUntil calls against one scheduler.
  Simulator sim;
  sim.Partition(2);
  std::atomic<int> ran = 0;
  for (int i = 1; i <= 50; ++i) {
    ScheduleInLane(sim, i % 2, Microseconds(i), [&ran] { ++ran; });
  }
  DomainScheduler sched(&sim, 2);
  for (int chunk = 1; chunk <= 5; ++chunk) {
    sched.RunUntil(Microseconds(10 * chunk));
    EXPECT_EQ(ran, 10 * chunk);
    EXPECT_EQ(sim.Now(), Microseconds(10 * chunk));
  }
}

TEST(DomainSchedulerTest, WindowTelemetryCountsLanesAndWindows) {
  Simulator sim;
  sim.Partition(2);
  sim.set_domain_lookahead(Microseconds(1));
  std::atomic<int> ran = 0;
  for (int i = 1; i <= 8; ++i) {
    ScheduleInLane(sim, i % 2, Microseconds(i), [&ran] { ++ran; });
  }
  PdesStats stats;
  DomainScheduler sched(&sim, 2, &stats);
  sched.RunUntil(Microseconds(20));
  EXPECT_EQ(ran, 8);
  EXPECT_EQ(stats.lanes, 2);
  EXPECT_EQ(stats.participants, 2);
  EXPECT_EQ(stats.windows, sim.windows_executed());
  EXPECT_GT(stats.windows, 0u);
  EXPECT_EQ(stats.events, sim.events_processed());
  ASSERT_EQ(stats.lane_events.size(), 2u);
  EXPECT_EQ(stats.lane_events[0] + stats.lane_events[1],
            sim.events_processed());
  // Every executed lane-window was claimed by some thread.
  std::uint64_t claimed = 0;
  for (std::uint64_t v : stats.thread_lane_windows) claimed += v;
  EXPECT_EQ(claimed, stats.windows * 2);
}

TEST(DomainSchedulerTest, StatsAloneForceWindowEngineSingleThreaded) {
  // stats + one thread must still produce telemetry (the engine runs
  // persistent with one participant instead of falling back to the plain
  // serial path).
  Simulator sim;
  sim.Partition(2);
  sim.set_domain_lookahead(Microseconds(1));
  int ran = 0;
  ScheduleInLane(sim, 0, Microseconds(1), [&ran] { ++ran; });
  ScheduleInLane(sim, 1, Microseconds(2), [&ran] { ++ran; });
  PdesStats stats;
  DomainScheduler sched(&sim, 1, &stats);
  sched.RunUntil(Microseconds(10));
  EXPECT_EQ(ran, 2);
  EXPECT_EQ(stats.participants, 1);
  EXPECT_GT(stats.windows, 0u);
}

}  // namespace
}  // namespace fncc
