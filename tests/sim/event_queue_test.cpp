#include "sim/event_queue.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <random>
#include <set>
#include <utility>
#include <vector>

#include "../test_util.hpp"

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
  q.Schedule(30, test::Fn([&] { order.push_back(3); }));
  q.Schedule(10, test::Fn([&] { order.push_back(1); }));
  q.Schedule(20, test::Fn([&] { order.push_back(2); }));
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
    q.Schedule(5, test::Fn([&order, i] { order.push_back(i); }));
  }
  while (!q.Empty()) {
    Time t = 0;
    q.PopNext(&t)();
  }
  for (int i = 0; i < 16; ++i) EXPECT_EQ(order[i], i);
}

TEST(EventQueueTest, ReportsPopTime) {
  EventQueue q;
  q.Schedule(42, test::Fn([] {}));
  EXPECT_EQ(q.NextTime(), 42);
  Time t = 0;
  q.PopNext(&t)();
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

TEST(EventQueueTest, PendingCallbacksReleasedAtTeardown) {
  // The queue drops payloads only at teardown: every event still pending
  // drops exactly once wherever it waits — the unconsumed part of the
  // wheel's live drain, a level-0, level-1 or level-2 bucket, a bucket
  // spanning several chunks, or the overflow heap — and an event that ran
  // never drops, not even while its entry still sits in the consumed part
  // of the drain.
  constexpr int kIds = 10;
  struct Tally {
    std::vector<int> runs = std::vector<int>(kIds);
    std::vector<int> drops = std::vector<int>(kIds);
  };
  Tally tally;
  const auto counted = [&tally](int id) {
    return TypedEvent{.run =
                          [](void* p, void*, std::uint64_t a) {
                            ++static_cast<Tally*>(p)->runs[a];
                          },
                      .drop =
                          [](void* p, void*, std::uint64_t a) {
                            ++static_cast<Tally*>(p)->drops[a];
                          },
                      .p0 = &tally,
                      .p1 = nullptr,
                      .arg = static_cast<std::uint64_t>(id)};
  };
  constexpr Time kTick = Time{1} << TimingWheel::kTickShift;
  constexpr Time kHorizon = Time{1} << 30;
  constexpr int kBulk = 2 * static_cast<int>(TimingWheel::kChunkEntries) + 1;
  // A closure's captures are released the same way (test::Fn's drop).
  auto token = std::make_shared<int>(42);
  std::weak_ptr<int> watch = token;
  {
    EventQueue q;
    // With the cursor at tick 0: ids 0-3 share tick 0's level-0 bucket.
    for (int id = 0; id < 4; ++id) q.Schedule(10 * (id + 1), counted(id));
    q.Schedule(5 * kTick, counted(4));     // another level-0 bucket
    for (int i = 0; i < kBulk; ++i) {      // one bucket over three chunks
      q.Schedule(7 * kTick + i, counted(5));
    }
    q.Schedule(100 * kTick, counted(6));   // a level-1 bucket
    q.Schedule(5000 * kTick, counted(7));  // a level-2 bucket
    q.Schedule(3 * kHorizon, counted(8));  // the overflow heap
    q.Schedule(2 * kHorizon, test::Fn([t = std::move(token)] { (void)*t; }));
    Time t = 0;
    q.PopNext(&t)();  // drains tick 0's bucket and runs 0
    q.PopNext(&t)();  // runs 1; 2 and 3 wait behind it in the live drain
    // Tick 0's bucket is consumed while its drain is live, so a new event
    // at tick 0 goes to the heap.
    q.Schedule(50, counted(9));
    EXPECT_EQ(q.size(), static_cast<std::size_t>(kBulk + 8));
    EXPECT_EQ(tally.runs, (std::vector<int>{1, 1, 0, 0, 0, 0, 0, 0, 0, 0}));
    EXPECT_EQ(tally.drops, std::vector<int>(kIds));
    EXPECT_EQ(watch.use_count(), 1);
  }
  EXPECT_EQ(tally.runs, (std::vector<int>{1, 1, 0, 0, 0, 0, 0, 0, 0, 0}));
  EXPECT_EQ(tally.drops,
            (std::vector<int>{0, 0, 1, 1, 1, kBulk, 1, 1, 1, 1}));
  EXPECT_TRUE(watch.expired());
}

TEST(EventQueueTest, ScheduleRunStress) {
  // Randomized schedule/pop against a reference (t, seq) model: exercises
  // the merge of wheel and heap, heap order and FIFO stability. Every
  // event runs exactly once, in reference order.
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
      q.Schedule(at,
                 test::Fn([&executed, token] { executed.push_back(token); }));
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
  // Events scheduled after earlier ones popped keep the FIFO order of
  // simultaneous events (ordering is by schedule sequence alone).
  EventQueue q;
  std::vector<int> order;
  q.Schedule(1, test::Fn([] {}));
  q.Schedule(1, test::Fn([] {}));
  Time t = 0;
  q.PopNext(&t)();
  q.PopNext(&t)();
  for (int i = 0; i < 8; ++i) {
    q.Schedule(5, test::Fn([&order, i] { order.push_back(i); }));
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
      q.Schedule(round * 100 + i, test::Fn([&] { ++executed; }));
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
