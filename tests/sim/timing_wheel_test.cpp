// Hybrid-scheduler coverage: wheel <-> overflow-heap boundary crossing,
// FIFO stability for simultaneous events across wheel levels, typed
// events, the fused Reschedule fast path, and an ABA stress mirroring the
// event-queue one but driven across the wheel horizon. The TimingWheelTest
// cases drive the wheel alone: multi-chunk buckets at every level against a
// reference (t, seq) order, the chunk high-water bound, and the full-bucket
// error.
#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <map>
#include <memory>
#include <random>
#include <set>
#include <tuple>
#include <vector>

#include "sim/event_queue.hpp"
#include "sim/timing_wheel.hpp"

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
  q.Schedule(3 * kHorizon, [&] { order.push_back(3); });  // heap
  q.Schedule(10, [&] { order.push_back(0); });            // wheel, level 0
  q.Schedule(kHorizon - kTick, [&] { order.push_back(2); });  // wheel, level 2
  q.Schedule(50 * kTick, [&] { order.push_back(1); });        // wheel, level 1
  DrainAll(q);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST(TimingWheelQueueTest, HeapEventCancelledAndRearmedIntoWheel) {
  // The boundary crossing the RTO pattern produces: schedule far (heap),
  // cancel, rearm near (wheel) — and the reverse.
  EventQueue q;
  std::vector<int> order;
  const EventId far = q.Schedule(2 * kHorizon, [&] { order.push_back(9); });
  q.Schedule(kTick, [&] { order.push_back(1); });
  EXPECT_TRUE(q.Cancel(far));
  q.Schedule(2 * kTick, [&] { order.push_back(2); });  // near: wheel
  const EventId near = q.Schedule(3 * kTick, [&] { order.push_back(8); });
  EXPECT_TRUE(q.Cancel(near));
  q.Schedule(2 * kHorizon, [&] { order.push_back(4); });  // far again: heap
  DrainAll(q);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 4}));
}

TEST(TimingWheelQueueTest, RescheduleMovesAcrossTheBoundary) {
  EventQueue q;
  std::vector<int> order;
  // Wheel -> heap.
  const EventId a = q.Schedule(kTick, [&] { order.push_back(1); });
  EXPECT_TRUE(q.Reschedule(a, 2 * kHorizon));
  // Heap -> wheel.
  const EventId b = q.Schedule(3 * kHorizon, [&] { order.push_back(2); });
  EXPECT_TRUE(q.Reschedule(b, 2 * kTick));
  q.Schedule(kTick, [&] { order.push_back(3); });
  DrainAll(q);
  EXPECT_EQ(order, (std::vector<int>{3, 2, 1}));
}

TEST(TimingWheelQueueTest, RescheduleKeepsIdValidAndPayload) {
  EventQueue q;
  int runs = 0;
  const EventId id = q.Schedule(10, [&] { ++runs; });
  EXPECT_TRUE(q.Reschedule(id, 500));
  EXPECT_TRUE(q.Reschedule(id, 50 * kTick));  // id stays valid across rearms
  EXPECT_EQ(q.size(), 1u);
  Time t = 0;
  q.PopNext(&t)();
  EXPECT_EQ(t, 50 * kTick);
  EXPECT_EQ(runs, 1);
  EXPECT_FALSE(q.Reschedule(id, 10)) << "ran events must not rearm";
  EXPECT_FALSE(q.Cancel(id));
}

TEST(TimingWheelQueueTest, RescheduleGoesToBackOfFifoAmongEqualTimes) {
  // A rearmed event behaves exactly like cancel + schedule: it yields to
  // events already scheduled for the same timestamp.
  EventQueue q;
  std::vector<int> order;
  const EventId a = q.Schedule(5, [&] { order.push_back(0); });
  q.Schedule(5, [&] { order.push_back(1); });
  EXPECT_TRUE(q.Reschedule(a, 5));
  DrainAll(q);
  EXPECT_EQ(order, (std::vector<int>{1, 0}));
}

TEST(TimingWheelQueueTest, SameTimestampFifoAcrossLevelsAndHeap) {
  // Five events with one shared timestamp, entering through different
  // structures: wheel level 1/2 (far ticks), the overflow heap (beyond the
  // horizon at schedule time... simulated by a Reschedule into range), and
  // level 0 (after the cursor advanced close by). Pop order must be the
  // global schedule order regardless of entry point.
  EventQueue q;
  std::vector<int> order;
  const Time target = kHorizon - kTick;  // reachable by every level
  q.Schedule(target, [&] { order.push_back(0); });  // level 2
  q.Schedule(target, [&] { order.push_back(1); });  // level 2, same bucket
  const EventId far = q.Schedule(3 * kHorizon, [&] { order.push_back(2); });
  EXPECT_TRUE(q.Reschedule(far, target));  // heap -> wheel, seq refreshed
  q.Schedule(target, [&] { order.push_back(3); });
  // Advance the cursor near the target so the last event enters at a lower
  // level than the earlier ones did.
  q.Schedule(target - 40 * kTick,
             [&q, &order, target] {
               q.Schedule(target, [&order] { order.push_back(4); });
             });
  DrainAll(q);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(TimingWheelQueueTest, TypedEventRunsAndDropsEagerly) {
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
  const EventId cancelled = q.Schedule(20, ev);
  EXPECT_TRUE(q.Cancel(cancelled));
  EXPECT_EQ(drops, 1) << "cancel must fire the drop hook immediately";
  DrainAll(q);
  EXPECT_EQ(runs, 2);
  EXPECT_EQ(drops, 1) << "a run event must not also drop";
  {
    EventQueue q2;
    q2.Schedule(10, ev);
  }
  EXPECT_EQ(drops, 2) << "queue teardown must drop pending typed events";
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
      q.Schedule(7, [&order, i] { order.push_back(i); });
    }
  }
  DrainAll(q);
  ASSERT_EQ(order.size(), 8u);
  for (int i = 0; i < 8; ++i) EXPECT_EQ(order[i], i);
}

TEST(TimingWheelQueueTest, AbaStressAcrossTheHorizon) {
  // Mirrors EventQueueTest.CancelRescheduleStress, but delays span wheel
  // levels 0/1/2 and the overflow heap, exercising slot recycling, drain
  // tombstones, bucket swap-removes, cascades and heap removal together.
  EventQueue q;
  std::mt19937 rng(0xABA5EED);
  std::map<std::uint64_t, EventId> live;  // token -> id
  std::vector<std::uint64_t> executed;
  std::vector<std::uint64_t> cancelled;
  std::uint64_t next_token = 0;
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
  const auto schedule = [&](Time at) {
    const std::uint64_t token = next_token++;
    live[token] =
        q.Schedule(at, [&executed, token] { executed.push_back(token); });
    return token;
  };

  for (int round = 0; round < 3000; ++round) {
    const int op = static_cast<int>(rng() % 100);
    if (op < 40 || live.empty()) {
      schedule(now + 1 + random_delay());
    } else if (op < 55) {
      auto it = live.begin();
      std::advance(it, rng() % live.size());
      EXPECT_TRUE(q.Cancel(it->second));
      EXPECT_FALSE(q.Cancel(it->second));  // idempotence
      cancelled.push_back(it->first);
      live.erase(it);
    } else if (op < 70) {
      // Fused rearm: the id must stay valid and unique to its token.
      auto it = live.begin();
      std::advance(it, rng() % live.size());
      EXPECT_TRUE(q.Reschedule(it->second, now + 1 + random_delay()));
    } else if (op < 80) {
      // Cancel + schedule (the legacy rearm shape).
      auto it = live.begin();
      std::advance(it, rng() % live.size());
      EXPECT_TRUE(q.Cancel(it->second));
      cancelled.push_back(it->first);
      live.erase(it);
      schedule(now + 1 + random_delay());
    } else {
      for (int i = 0; i < 3 && !q.Empty(); ++i) {
        Time t = 0;
        q.PopNext(&t)();
        EXPECT_GE(t, now);
        now = t;
        const std::uint64_t token = executed.back();
        EXPECT_EQ(live.erase(token), 1u) << "popped a cancelled/dead event";
      }
    }
    EXPECT_EQ(q.size(), live.size());
  }
  while (!q.Empty()) {
    Time t = 0;
    q.PopNext(&t)();
    EXPECT_GE(t, now);
    now = t;
    EXPECT_EQ(live.erase(executed.back()), 1u);
  }
  EXPECT_TRUE(live.empty());
  EXPECT_EQ(executed.size() + cancelled.size(), next_token);
  std::sort(executed.begin(), executed.end());
  EXPECT_EQ(std::unique(executed.begin(), executed.end()), executed.end());
  std::sort(cancelled.begin(), cancelled.end());
  std::vector<std::uint64_t> overlap;
  std::set_intersection(executed.begin(), executed.end(), cancelled.begin(),
                        cancelled.end(), std::back_inserter(overlap));
  EXPECT_TRUE(overlap.empty()) << "a cancelled event executed anyway";
}

TEST(TimingWheelQueueTest, HeapRunAheadThenNearScheduling) {
  // When only far (heap) events exist, popping them drags the wheel cursor
  // forward; near events scheduled from those callbacks must still run at
  // exact times and in order.
  EventQueue q;
  std::vector<Time> times;
  for (int i = 1; i <= 3; ++i) {
    const Time base = i * 2 * kHorizon;
    q.Schedule(base, [&q, &times, base] {
      q.Schedule(base + 3, [&times, base] { times.push_back(base + 3); });
      q.Schedule(base + 1, [&times, base] { times.push_back(base + 1); });
    });
  }
  DrainAll(q);
  ASSERT_EQ(times.size(), 6u);
  EXPECT_TRUE(std::is_sorted(times.begin(), times.end()));
}

// ------------------------------------------------------------ wheel alone

constexpr std::uint32_t kChunk = TimingWheel::kChunkEntries;

/// A TimingWheel with its own slot table, mirrored by a reference set
/// ordered by (t, seq): every pop must be the reference's first entry.
class WheelModel {
 public:
  WheelModel() : wheel_(&meta_) {}

  /// Inserts a fresh slot at `t`; returns it.
  std::uint32_t Add(Time t) {
    const auto slot = static_cast<std::uint32_t>(meta_.size());
    meta_.emplace_back();
    key_.emplace_back();
    Enter(slot, t);
    return slot;
  }
  /// Cancels `slot`'s entry.
  void Cancel(std::uint32_t slot) {
    wheel_.Remove(slot, meta_[slot].loc);
    meta_[slot].loc = kLocNone;
    EXPECT_EQ(ref_.erase(key_[slot]), 1u);
  }
  /// Moves `slot` to `t` with a fresh sequence number (Reschedule).
  void Move(std::uint32_t slot, Time t) {
    Cancel(slot);
    Enter(slot, t);
  }
  /// Pops the earliest entry, checking it against the reference.
  void PopOne() {
    ASSERT_FALSE(ref_.empty());
    const SchedEntry e = wheel_.Pop();
    const auto& [t, seq, slot] = *ref_.begin();
    ASSERT_EQ(e.t, t);
    ASSERT_EQ(e.seq, seq);
    ASSERT_EQ(e.slot, slot);
    ref_.erase(ref_.begin());
    meta_[e.slot].loc = kLocNone;
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

  [[nodiscard]] int Level(std::uint32_t slot) const {
    EXPECT_EQ(meta_[slot].loc & ~kLocIndexMask, kLocWheelTag);
    return static_cast<int>((meta_[slot].loc >> 28) & 0x3);
  }
  [[nodiscard]] std::uint32_t Index(std::uint32_t slot) const {
    return meta_[slot].loc & 0xF'FFFF;
  }
  [[nodiscard]] bool InWheelBucket(std::uint32_t slot) const {
    return meta_[slot].loc != kLocNone &&
           (meta_[slot].loc & ~kLocIndexMask) == kLocWheelTag;
  }
  [[nodiscard]] bool Pending(std::uint32_t slot) const {
    return meta_[slot].loc != kLocNone;
  }
  [[nodiscard]] std::size_t pending() const { return ref_.size(); }
  TimingWheel& wheel() { return wheel_; }

 private:
  void Enter(std::uint32_t slot, Time t) {
    ASSERT_TRUE(wheel_.Accepts(t));
    const SchedEntry e{t, next_seq_++, slot};
    wheel_.Insert(e);
    key_[slot] = {e.t, e.seq, e.slot};
    ref_.insert(key_[slot]);
    ASSERT_EQ(wheel_.size(), ref_.size());
  }

  using Key = std::tuple<Time, std::uint64_t, std::uint32_t>;
  std::vector<SlotMeta> meta_;
  TimingWheel wheel_;
  std::vector<Key> key_;  // by slot: the entry's current reference key
  std::set<Key> ref_;
  std::uint64_t next_seq_ = 0;
  std::uint64_t now_tick_ = 0;
};

TEST(TimingWheelTest, MultiChunkBucketsMatchReferenceOrderAtEveryLevel) {
  // Each round fills the next bucket of every level with 150-250 entries
  // (three or four chunks; many share a timestamp), then cancels and
  // reschedules entries in a middle chunk and in the tail chunk, and pops
  // a stretch — so multi-chunk buckets drain at level 0 and cascade from
  // levels 1 and 2. Every pop must match the reference (t, seq) order.
  WheelModel m;
  std::mt19937 rng(0xC4u);
  const Time span[] = {kTick, 64 * kTick, 4096 * kTick};
  int multi_chunk_buckets[TimingWheel::kLevels] = {};
  int middle_removals = 0;
  int tail_removals = 0;
  for (int round = 0; round < 60; ++round) {
    for (int level = 0; level < TimingWheel::kLevels; ++level) {
      const Time start = m.NextBucketStart(level);
      if (start < 0) continue;
      const int n = 150 + static_cast<int>(rng() % 101);
      // Entries rescheduled here earlier in the round come first.
      std::uint32_t size = 0;
      std::vector<std::uint32_t> slots;
      for (int i = 0; i < n; ++i) {
        // Times repeat (a handful of distinct offsets) to exercise the
        // FIFO tie-break.
        const Time offset = static_cast<Time>(rng() % 24) * (span[level] / 24);
        slots.push_back(m.Add(start + offset));
        ASSERT_EQ(m.Level(slots.back()), level);
        if (i == 0) size = m.Index(slots.back());
        ASSERT_EQ(m.Index(slots.back()), size++);
      }
      ++multi_chunk_buckets[level];
      // A chunk between the head and the tail: its hole is filled from
      // the tail.
      std::vector<std::uint32_t> middle;
      for (const std::uint32_t s : slots) {
        const std::uint32_t chunk = m.Index(s) / kChunk;
        if (chunk > 0 && chunk < (size - 1) / kChunk) middle.push_back(s);
      }
      ASSERT_FALSE(middle.empty());
      m.Cancel(middle[rng() % middle.size()]);
      ++middle_removals;
      const std::uint32_t moved = middle[rng() % middle.size()];
      if (m.Pending(moved)) {
        m.Move(moved, start + static_cast<Time>(rng() % span[level]));
        ++middle_removals;
      }
      // Empty the tail chunk (the middle cancel took one entry): every
      // other entry is rescheduled into another level's next bucket
      // rather than cancelled.
      const std::uint32_t tail_first = (size - 2) / kChunk * kChunk;
      for (int i = static_cast<int>(slots.size()) - 1; i >= 0; --i) {
        const std::uint32_t s = slots[static_cast<std::size_t>(i)];
        if (!m.InWheelBucket(s) || m.Index(s) < tail_first) continue;
        const int to = (level + 1 + static_cast<int>(rng() % 2)) %
                       TimingWheel::kLevels;
        const Time to_start = m.NextBucketStart(to);
        if (i % 2 == 0 || to_start < 0) {
          m.Cancel(s);
        } else {
          m.Move(s, to_start + static_cast<Time>(rng() % span[to]));
        }
        ++tail_removals;
      }
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
  EXPECT_GE(middle_removals, 60);
  EXPECT_GE(tail_removals, 60);
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
      // chunks each: 3 + 1 + 1 + 2 + 4 + 5.
      EXPECT_EQ(m.wheel().chunks_created(), 16u);
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

// Registered as the unlabelled `sim_slow` ctest entry: ~35 MB of entries
// and slot records.
TEST(TimingWheelLimitTest, FullBucketThrowsNamedErrorAndStaysIntact) {
  // One bucket can index kMaxBucketEntries entries (the loc word's 20-bit
  // field). The next insert must fail loudly, not spill its index into the
  // bucket bits where a later cancel would hit the wrong entry.
  constexpr std::uint32_t kMax = TimingWheel::kMaxBucketEntries;
  std::vector<SlotMeta> meta(kMax + 1);
  TimingWheel wheel(&meta);
  for (std::uint32_t slot = 0; slot < kMax; ++slot) {
    wheel.Insert(SchedEntry{0, slot, slot});
  }
  EXPECT_THROW(wheel.Insert(SchedEntry{0, kMax, kMax}), WheelBucketOverflow);
  EXPECT_EQ(wheel.size(), kMax) << "a refused insert leaves no trace";
  EXPECT_EQ(meta[kMax].loc, kLocNone);
  // The last entry's location is still exact: removing it makes room.
  const std::uint32_t last = kMax - 1;
  EXPECT_EQ(meta[last].loc & 0xF'FFFF, last);
  wheel.Remove(last, meta[last].loc);
  wheel.Insert(SchedEntry{0, kMax, kMax});
  EXPECT_EQ(meta[kMax].loc & 0xF'FFFF, last);
  EXPECT_EQ(wheel.size(), kMax);
  EXPECT_EQ(wheel.chunks_created(), kMax / TimingWheel::kChunkEntries);
}

}  // namespace
}  // namespace fncc
