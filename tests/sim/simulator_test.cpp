#include "sim/simulator.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "../test_util.hpp"
#include "sim/rng.hpp"
#include "sim/time.hpp"

namespace fncc {
namespace {

TEST(SimulatorTest, ClockAdvancesWithEvents) {
  Simulator sim;
  Time seen = -1;
  sim.Schedule(100, test::Fn([&] { seen = sim.Now(); }));
  sim.Run();
  EXPECT_EQ(seen, 100);
  EXPECT_EQ(sim.Now(), 100);
}

TEST(SimulatorTest, NestedScheduling) {
  Simulator sim;
  std::vector<Time> times;
  sim.Schedule(10, test::Fn([&] {
    times.push_back(sim.Now());
    sim.Schedule(5, test::Fn([&] { times.push_back(sim.Now()); }));
  }));
  sim.Run();
  EXPECT_EQ(times, (std::vector<Time>{10, 15}));
}

TEST(SimulatorTest, RunUntilStopsAtBoundary) {
  Simulator sim;
  int count = 0;
  for (int i = 1; i <= 10; ++i) {
    sim.Schedule(i * 10, test::Fn([&] { ++count; }));
  }
  sim.RunUntil(50);
  EXPECT_EQ(count, 5);
  EXPECT_EQ(sim.Now(), 50);
  sim.RunUntil(100);
  EXPECT_EQ(count, 10);
}

TEST(SimulatorTest, RunUntilAdvancesClockWhenIdle) {
  Simulator sim;
  sim.RunUntil(Microseconds(10));
  EXPECT_EQ(sim.Now(), Microseconds(10));
}

// A partitioned simulator runs only through exec/DomainScheduler: Run and
// RunUntil refuse it, in every build type, without running an event.
TEST(SimulatorTest, PartitionedRunThrows) {
  Simulator sim;
  sim.Partition(2);
  int count = 0;
  sim.Schedule(1, test::Fn([&] { ++count; }));
  EXPECT_THROW(sim.Run(), std::logic_error);
  EXPECT_THROW(sim.RunUntil(10), std::logic_error);
  EXPECT_EQ(count, 0);
  EXPECT_EQ(sim.Now(), 0);
}

TEST(SimulatorTest, NegativeDelayClampsToNow) {
  Simulator sim;
  Time seen = -1;
  sim.Schedule(50, test::Fn([&] {
    sim.Schedule(-10, test::Fn([&] { seen = sim.Now(); }));
  }));
  sim.Run();
  EXPECT_EQ(seen, 50);
}

TEST(SimulatorTest, CountsProcessedEvents) {
  Simulator sim;
  for (int i = 0; i < 7; ++i) sim.Schedule(i, test::Fn([] {}));
  sim.Run();
  EXPECT_EQ(sim.events_processed(), 7u);
}

TEST(TimeTest, UnitConversionsRoundTrip) {
  EXPECT_EQ(Microseconds(1.5), 1'500'000);
  EXPECT_EQ(Nanoseconds(1), 1'000);
  EXPECT_DOUBLE_EQ(ToMicroseconds(Microseconds(250)), 250.0);
  EXPECT_DOUBLE_EQ(ToSeconds(kSecond), 1.0);
}

TEST(TimeTest, SerializationDelayExactAtCommonRates) {
  // 1518 B at 100 Gbps = 121.44 ns.
  EXPECT_EQ(SerializationDelay(1518, 100.0), 121'440);
  EXPECT_EQ(SerializationDelay(1518, 200.0), 60'720);
  EXPECT_EQ(SerializationDelay(1518, 400.0), 30'360);
  EXPECT_EQ(SerializationDelay(0, 100.0), 0);
}

TEST(TimeTest, BdpMatchesHandComputation) {
  // 100 Gbps * 12 us = 150 KB.
  EXPECT_NEAR(BdpBytes(100.0, Microseconds(12)), 150'000.0, 1.0);
}

TEST(RngTest, DeterministicAcrossInstances) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(a.Uniform(), b.Uniform());
  }
}

TEST(RngTest, SeedsDiffer) {
  Rng a(1), b(2);
  bool any_diff = false;
  for (int i = 0; i < 10; ++i) {
    if (a.Uniform() != b.Uniform()) any_diff = true;
  }
  EXPECT_TRUE(any_diff);
}

TEST(RngTest, ExponentialMeanApproximatelyCorrect) {
  Rng rng(7);
  double sum = 0;
  constexpr int kN = 200'000;
  for (int i = 0; i < kN; ++i) sum += rng.Exponential(3.0);
  EXPECT_NEAR(sum / kN, 3.0, 0.05);
}

TEST(RngTest, UniformIntCoversRangeInclusive) {
  Rng rng(9);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.UniformInt(0, 3);
    EXPECT_GE(v, 0);
    EXPECT_LE(v, 3);
    saw_lo |= (v == 0);
    saw_hi |= (v == 3);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

}  // namespace
}  // namespace fncc
