#include "sim/event_queue.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <random>
#include <set>
#include <utility>
#include <vector>

namespace fncc {
namespace {

TEST(EventQueueTest, EmptyInitially) {
  EventQueue q;
  EXPECT_TRUE(q.Empty());
  EXPECT_EQ(q.size(), 0u);
  EXPECT_EQ(q.NextTime(), kTimeInfinity);
}

TEST(EventQueueTest, PopsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.Schedule(30, [&] { order.push_back(3); });
  q.Schedule(10, [&] { order.push_back(1); });
  q.Schedule(20, [&] { order.push_back(2); });
  while (!q.Empty()) {
    Time t = 0;
    q.PopNext(&t)();
  }
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueueTest, SimultaneousEventsRunFifo) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 16; ++i) {
    q.Schedule(5, [&order, i] { order.push_back(i); });
  }
  while (!q.Empty()) {
    Time t = 0;
    q.PopNext(&t)();
  }
  for (int i = 0; i < 16; ++i) EXPECT_EQ(order[i], i);
}

TEST(EventQueueTest, ReportsPopTime) {
  EventQueue q;
  q.Schedule(42, [] {});
  EXPECT_EQ(q.NextTime(), 42);
  Time t = 0;
  q.PopNext(&t);
  EXPECT_EQ(t, 42);
}

TEST(EventQueueTest, MintedWordOrdersLikeAScheduleMadeAtMintTime) {
  // A word minted now and filed later (a lazy timer's re-file) sorts
  // exactly where a Schedule made at mint time would have: after natives
  // minted before it, before natives minted after it, and after every
  // explicit delivery word at the same timestamp.
  EventQueue q;
  static std::vector<int>* sink;
  std::vector<int> order;
  sink = &order;
  const auto push = [](int v) {
    return TypedEvent{.run = [](void*, void*, std::uint64_t arg) {
                        sink->push_back(static_cast<int>(arg));
                      },
                      .drop = nullptr,
                      .p0 = nullptr,
                      .p1 = nullptr,
                      .arg = static_cast<std::uint64_t>(v)};
  };
  q.Schedule(5, push(1));
  const std::uint64_t word = q.MintOrder();
  EXPECT_NE(word & kNativeOrderBit, 0u);
  q.Schedule(5, push(3));
  q.ScheduleOrdered(5, word, push(2));
  q.ScheduleOrdered(5, std::uint64_t{7} << 32, push(0));  // a delivery
  while (!q.Empty()) {
    Time t = 0;
    std::uint64_t popped = 0;
    q.PopNext(&t, &popped)();
    if (order.back() == 2) {
      EXPECT_EQ(popped, word);
    }
  }
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST(EventQueueTest, MoveOnlyCallbacksSupported) {
  EventQueue q;
  auto payload = std::make_unique<int>(7);
  int got = 0;
  q.Schedule(1, [p = std::move(payload), &got] { got = *p; });
  Time t = 0;
  q.PopNext(&t)();
  EXPECT_EQ(got, 7);
}

TEST(EventQueueTest, PendingCallbacksReleasedAtTeardown) {
  // The queue only drops payloads at teardown: a pending event's captures
  // (e.g. a pooled packet) live until it runs or the queue dies.
  auto token = std::make_shared<int>(42);
  std::weak_ptr<int> watch = token;
  {
    EventQueue q;
    q.Schedule(1, [] {});
    q.Schedule(1000, [t = std::move(token)] { (void)*t; });
    Time t = 0;
    q.PopNext(&t)();
    EXPECT_EQ(watch.use_count(), 1);
  }
  EXPECT_TRUE(watch.expired());
}

TEST(EventQueueTest, ScheduleRunStress) {
  // Randomized schedule/pop against a reference (t, seq) model: exercises
  // slot recycling, heap order and FIFO stability. Every event runs
  // exactly once, in reference order.
  EventQueue q;
  std::mt19937 rng(0x5eed);
  std::set<std::pair<Time, std::uint64_t>> ref;  // (t, token)
  std::vector<std::uint64_t> executed;
  std::uint64_t next_token = 0;
  Time now = 0;

  const auto pop = [&] {
    Time t = 0;
    q.PopNext(&t)();
    ASSERT_FALSE(ref.empty());
    EXPECT_EQ(t, ref.begin()->first);
    EXPECT_EQ(executed.back(), ref.begin()->second);
    ref.erase(ref.begin());
    EXPECT_GE(t, now);
    now = t;
  };
  for (int round = 0; round < 400; ++round) {
    if (rng() % 100 < 60 || q.Empty()) {
      const Time at = now + 1 + static_cast<Time>(rng() % 50);
      const std::uint64_t token = next_token++;
      q.Schedule(at, [&executed, token] { executed.push_back(token); });
      ref.emplace(at, token);
    } else {
      for (int i = 0; i < 3 && !q.Empty(); ++i) pop();
    }
    EXPECT_EQ(q.size(), ref.size());
  }
  while (!q.Empty()) pop();
  EXPECT_TRUE(ref.empty());
  EXPECT_EQ(executed.size(), next_token);
}

TEST(EventQueueTest, FifoStableAcrossSlotRecycling) {
  // Recycled slots must not disturb the FIFO order of simultaneous events
  // (ordering is by schedule sequence, not by slot value).
  EventQueue q;
  std::vector<int> order;
  q.Schedule(1, [] {});
  q.Schedule(1, [] {});
  Time t = 0;
  q.PopNext(&t)();
  q.PopNext(&t)();  // frees two low slots; next schedules reuse them LIFO
  for (int i = 0; i < 8; ++i) {
    q.Schedule(5, [&order, i] { order.push_back(i); });
  }
  while (!q.Empty()) {
    Time t = 0;
    q.PopNext(&t)();
  }
  ASSERT_EQ(order.size(), 8u);
  for (int i = 0; i < 8; ++i) EXPECT_EQ(order[i], i);
}

TEST(EventQueueTest, StressInterleavedSchedulePop) {
  EventQueue q;
  int executed = 0;
  for (int round = 0; round < 50; ++round) {
    for (int i = 0; i < 20; ++i) {
      q.Schedule(round * 100 + i, [&] { ++executed; });
    }
    for (int i = 0; i < 10; ++i) {
      Time t = 0;
      q.PopNext(&t)();
    }
  }
  while (!q.Empty()) {
    Time t = 0;
    q.PopNext(&t)();
  }
  EXPECT_EQ(executed, 50 * 20);
}

}  // namespace
}  // namespace fncc
