// Hybrid-scheduler coverage: wheel <-> overflow-heap boundary crossing,
// FIFO stability for simultaneous events across wheel levels and the heap,
// typed events, and a stress mirroring the event-queue one but driven
// across the wheel horizon, with words minted before they are filed (the
// lazy-timer re-file). The TimingWheelTest cases drive the wheel alone:
// multi-chunk buckets at every level against a reference (t, seq) order,
// the chunk high-water bound, and one bucket past 2^20 entries.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <random>
#include <set>
#include <tuple>
#include <vector>

#include "sim/event_queue.hpp"
#include "sim/timing_wheel.hpp"
#include "../test_util.hpp"

namespace fncc {
namespace {

constexpr Time kTick = Time{1} << TimingWheel::kTickShift;
// The wheel horizon: events this far past the cursor overflow to the heap.
constexpr Time kHorizon =
    kTick << (TimingWheel::kLevels * TimingWheel::kSlotBits);

void DrainAll(EventQueue& q, Time* now = nullptr) {
  Time last = now != nullptr ? *now : 0;
  while (!q.Empty()) {
    Time t = 0;
    q.PopNext(&t)();
    EXPECT_GE(t, last) << "time went backwards";
    last = t;
  }
  if (now != nullptr) *now = last;
}

TEST(TimingWheelQueueTest, FarEventsOverflowAndStillRunInOrder) {
  EventQueue q;
  std::vector<int> order;
  const auto push = [&order](int v) {
    return test::Fn([&order, v] { order.push_back(v); });
  };
  q.Schedule(3 * kHorizon, push(3));       // heap
  q.Schedule(10, push(0));                 // wheel, level 0
  q.Schedule(kHorizon - kTick, push(2));   // wheel, level 2
  q.Schedule(50 * kTick, push(1));         // wheel, level 1
  DrainAll(q);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

/// A typed event appending `v` to *sink (ScheduleOrdered takes typed
/// events only).
std::vector<int>* sink = nullptr;
TypedEvent PushTo(int v) {
  return TypedEvent{.run = [](void*, void*, std::uint64_t arg) {
                      sink->push_back(static_cast<int>(arg));
                    },
                    .drop = nullptr,
                    .p0 = nullptr,
                    .p1 = nullptr,
                    .arg = static_cast<std::uint64_t>(v)};
}

TEST(TimingWheelQueueTest, SameTimestampFifoAcrossLevelsAndHeap) {
  // Five events with one shared timestamp, entering through different
  // structures: wheel level 2 (far ticks), the overflow heap (filed at the
  // target while its bucket drains, with a word minted long before — the
  // lazy-timer re-file), and level 0 (after the cursor advanced close by).
  // Pop order must be the order the words were minted in, regardless of
  // entry point.
  EventQueue q;
  std::vector<int> order;
  sink = &order;
  const Time target = kHorizon - kTick;  // reachable by every level
  q.Schedule(target, test::Fn([&q, &order, target] {  // level 2
    order.push_back(0);
    // Mid-drain at the target's tick: the wheel refuses it, so it goes to
    // the heap with the word minted before event 3's.
    q.ScheduleOrdered(target, 1 | kNativeOrderBit, PushTo(1));
  }));
  ASSERT_EQ(q.MintOrder(), 1 | kNativeOrderBit);  // event 1's word
  q.Schedule(target, PushTo(2));  // level 2, same bucket
  q.Schedule(target, PushTo(3));
  // Advance the cursor near the target so the last event enters at a lower
  // level than the earlier ones did.
  q.Schedule(target - 40 * kTick, test::Fn([&q, &order, target] {
    q.Schedule(target, PushTo(4));
  }));
  DrainAll(q);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(TimingWheelQueueTest, TypedEventRunsAndDropsAtTeardown) {
  EventQueue q;
  static int runs;
  static int drops;
  runs = drops = 0;
  const TypedEvent ev{
      .run = [](void*, void*, std::uint64_t arg) { runs += int(arg); },
      .drop = [](void*, void*, std::uint64_t) { ++drops; },
      .p0 = nullptr,
      .p1 = nullptr,
      .arg = 2};
  q.Schedule(10, ev);
  q.Schedule(20, ev);
  DrainAll(q);
  EXPECT_EQ(runs, 4);
  EXPECT_EQ(drops, 0) << "a run event must not also drop";
  {
    EventQueue q2;
    q2.Schedule(10, ev);
  }
  EXPECT_EQ(drops, 1) << "queue teardown must drop pending typed events";
}

TEST(TimingWheelQueueTest, TypedAndClosureEventsInterleaveFifo) {
  EventQueue q;
  static std::vector<int>* sink;
  std::vector<int> order;
  sink = &order;
  for (int i = 0; i < 8; ++i) {
    if (i % 2 == 0) {
      q.Schedule(7, TypedEvent{.run = [](void*, void*, std::uint64_t arg) {
                                 sink->push_back(static_cast<int>(arg));
                               },
                               .drop = nullptr,
                               .p0 = nullptr,
                               .p1 = nullptr,
                               .arg = static_cast<std::uint64_t>(i)});
    } else {
      q.Schedule(7, test::Fn([&order, i] { order.push_back(i); }));
    }
  }
  DrainAll(q);
  ASSERT_EQ(order.size(), 8u);
  for (int i = 0; i < 8; ++i) EXPECT_EQ(order[i], i);
}

TEST(TimingWheelQueueTest, StressAcrossTheHorizon) {
  // Mirrors EventQueueTest.ScheduleRunStress, but delays span wheel levels
  // 0/1/2 and the overflow heap, and a third of the events are filed with
  // a word minted rounds earlier (how a lazy timer re-files), so buckets
  // and drains see words out of insertion order. Every pop must be the
  // reference's first (t, word).
  EventQueue q;
  std::mt19937 rng(0xABA5EED);
  using Key = std::pair<Time, std::uint64_t>;  // (t, order word)
  std::set<Key> ref;
  std::vector<std::uint64_t> minted;  // words minted but not yet filed
  static std::uint64_t last_arg;
  const TypedEvent ev{
      .run = [](void*, void*, std::uint64_t arg) { last_arg = arg; },
      .drop = nullptr,
      .p0 = nullptr,
      .p1 = nullptr,
      .arg = 0};
  Time now = 0;

  const auto random_delay = [&]() -> Time {
    switch (rng() % 4) {
      case 0:
        return 1 + static_cast<Time>(rng() % (10 * kTick));  // level 0
      case 1:
        return static_cast<Time>(rng() % (60 * kTick));  // level 0/1
      case 2:
        return static_cast<Time>(rng() % kHorizon);  // any level
      default:
        return kHorizon + static_cast<Time>(rng() % kHorizon);  // heap
    }
  };
  const auto pop = [&] {
    Time t = 0;
    std::uint64_t word = 0;
    q.PopNext(&t, &word)();
    ASSERT_FALSE(ref.empty());
    EXPECT_EQ(Key(t, word), *ref.begin());
    EXPECT_EQ(last_arg, word) << "the payload filed with this word ran";
    ref.erase(ref.begin());
    EXPECT_GE(t, now);
    now = t;
  };

  for (int round = 0; round < 3000; ++round) {
    const int op = static_cast<int>(rng() % 100);
    const Time at = now + random_delay();
    if (op < 30 || q.Empty()) {
      TypedEvent e = ev;
      const std::uint64_t word = q.MintOrder();
      e.arg = word;
      q.ScheduleOrdered(at, word, e);  // a Schedule, word made visible
      ref.emplace(at, word);
    } else if (op < 45) {
      minted.push_back(q.MintOrder());
    } else if (op < 60 && !minted.empty()) {
      const std::size_t i = rng() % minted.size();
      TypedEvent e = ev;
      e.arg = minted[i];
      q.ScheduleOrdered(at, minted[i], e);
      ref.emplace(at, minted[i]);
      minted.erase(minted.begin() + static_cast<std::ptrdiff_t>(i));
    } else {
      for (int i = 0; i < 3 && !q.Empty(); ++i) pop();
    }
    EXPECT_EQ(q.size(), ref.size());
  }
  while (!q.Empty()) pop();
  EXPECT_TRUE(ref.empty());
}

TEST(TimingWheelQueueTest, HeapRunAheadThenNearScheduling) {
  // When only far (heap) events exist, popping them drags the wheel cursor
  // forward; near events scheduled from those callbacks must still run at
  // exact times and in order.
  EventQueue q;
  std::vector<Time> times;
  for (int i = 1; i <= 3; ++i) {
    const Time base = i * 2 * kHorizon;
    q.Schedule(base, test::Fn([&q, &times, base] {
      q.Schedule(base + 3,
                 test::Fn([&times, base] { times.push_back(base + 3); }));
      q.Schedule(base + 1,
                 test::Fn([&times, base] { times.push_back(base + 1); }));
    }));
  }
  DrainAll(q);
  ASSERT_EQ(times.size(), 6u);
  EXPECT_TRUE(std::is_sorted(times.begin(), times.end()));
}

// ------------------------------------------------------------ wheel alone

constexpr std::uint32_t kChunk = TimingWheel::kChunkEntries;

/// A TimingWheel mirrored by a reference set ordered by (t, seq): every
/// pop must be the reference's first entry.
class WheelModel {
 public:
  /// Inserts an entry at `t` with the next sequence number.
  void Add(Time t) { AddWithSeq(t, next_seq_++); }
  /// Inserts an entry at `t` with an explicit (unique) sequence number.
  void AddWithSeq(Time t, std::uint64_t seq) {
    ASSERT_TRUE(wheel_.Accepts(t));
    const SchedEntry e{t, seq, TypedEvent{.arg = next_token_++}};
    wheel_.Insert(e);
    ref_.emplace(e.t, e.seq, e.ev.arg);
    ASSERT_EQ(wheel_.size(), ref_.size());
  }
  /// Pops the earliest entry, checking it against the reference.
  void PopOne() {
    ASSERT_FALSE(ref_.empty());
    const SchedEntry e = wheel_.Pop();
    const auto& [t, seq, token] = *ref_.begin();
    ASSERT_EQ(e.t, t);
    ASSERT_EQ(e.seq, seq);
    ASSERT_EQ(e.ev.arg, token);
    ref_.erase(ref_.begin());
    now_tick_ = static_cast<std::uint64_t>(e.t) >> TimingWheel::kTickShift;
  }

  /// A time whose tick opens the bucket after the cursor's at `level`
  /// (the cursor is the last popped entry's tick), or -1 when that bucket
  /// is not in the cursor's current level-(level+1) revolution.
  [[nodiscard]] Time NextBucketStart(int level) const {
    const int shift = level * TimingWheel::kSlotBits;
    const std::uint64_t tick = ((now_tick_ >> shift) + 1) << shift;
    if ((tick >> (shift + TimingWheel::kSlotBits)) !=
        (now_tick_ >> (shift + TimingWheel::kSlotBits))) {
      return -1;
    }
    return static_cast<Time>(tick << TimingWheel::kTickShift);
  }

  [[nodiscard]] std::size_t pending() const { return ref_.size(); }
  [[nodiscard]] std::uint64_t next_seq() const { return next_seq_; }
  TimingWheel& wheel() { return wheel_; }

 private:
  using Key = std::tuple<Time, std::uint64_t, std::uint64_t>;
  TimingWheel wheel_;
  std::set<Key> ref_;
  std::uint64_t next_seq_ = 1u << 20;  // room below for out-of-order seqs
  std::uint64_t next_token_ = 0;  // carried in each entry's ev.arg
  std::uint64_t now_tick_ = 0;
};

TEST(TimingWheelTest, MultiChunkBucketsMatchReferenceOrderAtEveryLevel) {
  // Each round fills the next bucket of every level with 150-250 entries
  // (five to eight chunks; many share a timestamp), a fifth of them with a
  // sequence number below every other entry's (a word minted before it
  // was filed), then pops a stretch — so multi-chunk
  // buckets drain at level 0 and cascade from levels 1 and 2 with their
  // insertion order disagreeing with seq. Every pop must match the
  // reference (t, seq) order.
  WheelModel m;
  std::mt19937 rng(0xC4u);
  const Time span[] = {kTick, 64 * kTick, 4096 * kTick};
  int multi_chunk_buckets[TimingWheel::kLevels] = {};
  std::uint64_t old_seq = 0;  // counts up below WheelModel's own seqs
  int out_of_order = 0;
  for (int round = 0; round < 60; ++round) {
    for (int level = 0; level < TimingWheel::kLevels; ++level) {
      const Time start = m.NextBucketStart(level);
      if (start < 0) continue;
      const int n = 150 + static_cast<int>(rng() % 101);
      for (int i = 0; i < n; ++i) {
        // Times repeat (a handful of distinct offsets) to exercise the
        // FIFO tie-break.
        const Time offset = static_cast<Time>(rng() % 24) * (span[level] / 24);
        if (rng() % 5 == 0) {
          ASSERT_NO_FATAL_FAILURE(m.AddWithSeq(start + offset, old_seq++));
          ++out_of_order;
        } else {
          ASSERT_NO_FATAL_FAILURE(m.Add(start + offset));
        }
      }
      ++multi_chunk_buckets[level];
    }
    const int pops = 50 + static_cast<int>(rng() % 400);
    for (int i = 0; i < pops && m.pending() > 0; ++i) {
      ASSERT_NO_FATAL_FAILURE(m.PopOne());
    }
  }
  while (m.pending() > 0) ASSERT_NO_FATAL_FAILURE(m.PopOne());
  EXPECT_EQ(m.wheel().size(), 0u);
  EXPECT_EQ(m.wheel().occupied_buckets(), 0);
  for (const int n : multi_chunk_buckets) EXPECT_GE(n, 5);
  EXPECT_GE(out_of_order, 1000);
}

TEST(TimingWheelTest, ChunkHighWaterTracksPendingNotHistory) {
  // Chunks come from one free list, so the most ever carved is bounded by
  // the pending entries and occupied buckets at the worst moment:
  // ceil(pending / kChunkEntries) + occupied buckets. Repeating the same
  // schedule reuses them instead of growing per-bucket capacity.
  WheelModel m;
  std::size_t bound = 0;
  const auto observe = [&] {
    const auto occupied =
        static_cast<std::size_t>(m.wheel().occupied_buckets());
    bound = std::max(bound, (m.pending() + kChunk - 1) / kChunk + occupied);
  };
  std::size_t first_round_chunks = 0;
  for (int round = 0; round < 8; ++round) {
    // 130 + 1 + 64 + 65 entries in four level-0 buckets, 200 in one
    // level-1 bucket and 300 in one level-2 bucket.
    const Time l0 = m.NextBucketStart(0);
    const Time l1 = m.NextBucketStart(1);
    const Time l2 = m.NextBucketStart(2);
    ASSERT_GE(l0, 0);
    ASSERT_GE(l1, 0);
    ASSERT_GE(l2, 0);
    const int counts[] = {130, 1, 64, 65};
    for (int b = 0; b < 4 && l0 + b * kTick < l1; ++b) {
      for (int i = 0; i < counts[b]; ++i) m.Add(l0 + b * kTick + i);
    }
    for (int i = 0; i < 200; ++i) m.Add(l1 + (i % 64) * kTick);
    for (int i = 0; i < 300; ++i) m.Add(l2 + (i % 50) * 64 * kTick + i);
    observe();
    if (round == 0) {
      // At the peak the buckets hold exactly ceil(n_b / kChunkEntries)
      // chunks each (5 + 1 + 2 + 3 + 7 + 10 at 32 entries a chunk).
      std::size_t exact = 0;
      for (const std::size_t n : {130u, 1u, 64u, 65u, 200u, 300u}) {
        exact += (n + kChunk - 1) / kChunk;
      }
      EXPECT_EQ(m.wheel().chunks_created(), exact);
    }
    while (m.pending() > 0) {
      ASSERT_NO_FATAL_FAILURE(m.PopOne());
      observe();
    }
    EXPECT_LE(m.wheel().chunks_created(), bound);
    if (round == 0) first_round_chunks = m.wheel().chunks_created();
  }
  EXPECT_EQ(m.wheel().chunks_created(), first_round_chunks)
      << "a repeated schedule must reuse the free list";
}

// Registered as the unlabelled `sim_slow` ctest entry: ~117 MB of chunks
// and drain.
TEST(TimingWheelLimitTest, BucketPastTwoToTheTwentyDrainsInOrder) {
  // One bucket has no entry limit: 2^20 + 1 entries (one more than the
  // old per-bucket index field could hold) in one level-0 bucket, spread
  // over the tick with every fourth entry's seq below all the others
  // (re-filed words), drain in exact (t, seq) order: strictly increasing
  // keys, every entry exactly once.
  constexpr std::uint32_t kEntries = (1u << 20) + 1;
  constexpr std::uint64_t kNewer = 1u << 21;  // the other seqs start here
  TimingWheel wheel;
  for (std::uint32_t i = 0; i < kEntries; ++i) {
    wheel.Insert(SchedEntry{.t = static_cast<Time>(i % kTick),
                            .seq = i % 4 == 0 ? i : kNewer + i,
                            .ev = TypedEvent{.arg = i}});
  }
  EXPECT_EQ(wheel.size(), kEntries);
  EXPECT_EQ(wheel.occupied_buckets(), 1);
  std::vector<bool> seen(kEntries);
  std::uint32_t out_of_order = 0;
  std::uint32_t wrong_entry = 0;
  SchedEntry prev = wheel.Pop();
  seen[prev.ev.arg] = true;
  for (std::uint32_t n = 1; n < kEntries; ++n) {
    const SchedEntry e = wheel.Pop();
    if (e.t < prev.t || (e.t == prev.t && e.seq <= prev.seq)) ++out_of_order;
    const std::uint64_t i = e.ev.arg;
    const std::uint64_t want_seq = i % 4 == 0 ? i : kNewer + i;
    if (i >= kEntries || seen[i] || e.seq != want_seq ||
        e.t != static_cast<Time>(i % kTick)) {
      ++wrong_entry;
    } else {
      seen[i] = true;
    }
    prev = e;
  }
  EXPECT_EQ(out_of_order, 0u);
  EXPECT_EQ(wrong_entry, 0u);
  EXPECT_EQ(wheel.size(), 0u);
  EXPECT_EQ(wheel.Peek(), nullptr);
}

}  // namespace
}  // namespace fncc
