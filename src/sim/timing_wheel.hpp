// Hierarchical timing wheel: the O(1) near-horizon half of the hybrid
// scheduler (EventQueue keeps a binary heap as the far-timer overflow
// level).
//
// Three levels of 64 buckets each, with a base tick of 2^kTickShift
// picoseconds (4.096 ns), cover a rolling horizon of 2^30 ps (~1.07 ms) —
// serialization slots, propagation delays and CC rate timers all land in
// the wheel; far timers (RTOs, idle watchdogs) overflow to the heap, which
// stays tiny as a result. Insert is O(1); cascading is O(1) amortized (an
// entry moves down at most twice); finding the next non-empty bucket is
// one ctz over a per-level occupancy word.
//
// Ordering contract (shared with EventQueue): events are totally ordered by
// (time, schedule sequence). A bucket spans many distinct timestamps, so
// buckets are unordered lists of fixed-size chunks; when the cursor
// reaches a bucket its entries are copied into a drain vector and sorted,
// which is what Peek()/Pop() serve from. The wheel refuses (`Accepts` ==
// false) events at or behind the cursor's tick while the drain is live —
// those go to the overflow heap, which EventQueue already merges with the
// wheel at pop by (t, seq) — so the global pop order is exact, identical to
// a single heap, with no mid-drain insertion path.
//
// An entry is its event: {t, seq, TypedEvent}, stored whole in the
// buckets' chunks, the drain and EventQueue's overflow heap, so a pending
// event is one record. The wheel supports push and pop only; nothing is
// ever removed from the middle.
//
// Memory follows what is pending, not what once was: every bucket's
// chunks come from one per-wheel free list (carved from slabs) and go back
// to it as soon as the bucket drains or cascades, so the wheel holds at
// most ceil(pending / kChunkEntries) + occupied-bucket chunks at any
// moment, plus a drain vector sized by the largest bucket.
#pragma once

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstdint>
#include <memory>
#include <vector>

#include "sim/time.hpp"

namespace fncc {

/// The one event record: `run(p0, p1, arg)` fires when the event is due;
/// `drop(p0, p1, arg)`, if set, runs instead when the queue is torn down
/// with the event still pending, releasing any payload `p1` owns (e.g.
/// returning a packet to its pool). `run` must be set.
struct TypedEvent {
  using Fn = void (*)(void* p0, void* p1, std::uint64_t arg);
  Fn run = nullptr;
  Fn drop = nullptr;
  void* p0 = nullptr;
  void* p1 = nullptr;
  std::uint64_t arg = 0;

  /// Runs the event (its drop hook does not fire).
  void operator()() const { run(p0, p1, arg); }
};

/// A scheduled event, in the wheel and EventQueue's overflow heap alike:
/// absolute time, order word (FIFO tie-break for simultaneous events) and
/// the event itself.
struct SchedEntry {
  Time t;
  std::uint64_t seq;
  TypedEvent ev;
};

/// The (t, seq) total order that the wheel's drain and the overflow heap
/// both keep.
inline bool Before(const SchedEntry& a, const SchedEntry& b) {
  return a.t != b.t ? a.t < b.t : a.seq < b.seq;
}

class TimingWheel {
 public:
  /// Base tick: 2^12 ps = 4.096 ns. Small enough that back-to-back ACK
  /// serializations (60 B at 100 Gbps = 4.8 ns) land in distinct buckets,
  /// large enough that one MTU serialization (~121 ns) spans ~30 ticks.
  static constexpr int kTickShift = 12;
  static constexpr int kLevels = 3;
  static constexpr int kSlotBits = 6;
  static constexpr std::uint32_t kWheelSlots = 1u << kSlotBits;  // 64
  static constexpr std::uint32_t kSlotMask = kWheelSlots - 1;
  /// Entries per bucket chunk: 32 x 56 B, so a chunk is ~1.8 KB.
  static constexpr std::uint32_t kChunkEntries = 32;

  /// True if an event at absolute time `t` belongs in the wheel given the
  /// current cursor; false means the caller keeps it in the overflow heap.
  /// Refused: far times (beyond the superblock horizon), past-cursor times,
  /// and the cursor's own tick while the drain is live (its bucket was
  /// already consumed).
  [[nodiscard]] bool Accepts(Time t) const {
    const std::uint64_t tick = Tick(t);
    if (tick > cur_) {
      return (tick >> (kLevels * kSlotBits)) ==
             (cur_ >> (kLevels * kSlotBits));
    }
    return tick == cur_ && !DrainLive();
  }

  /// Inserts an event. Precondition: Accepts(e.t).
  void Insert(const SchedEntry& e) {
    assert(Accepts(e.t));
    Place(e);
    ++count_;
  }

  /// Earliest event, or nullptr when the wheel is empty. Lazily advances the
  /// cursor / cascades levels; pointer is valid until the next mutation.
  [[nodiscard]] const SchedEntry* Peek() {
    if (count_ == 0) {
      if (!drain_.empty()) {
        drain_.clear();
        drain_head_ = 0;
      }
      return nullptr;
    }
    if (DrainLive()) [[likely]] return &drain_[drain_head_];
    return PeekSlow();
  }

  /// Extracts the earliest event. Precondition: Peek() != nullptr.
  SchedEntry Pop() {
    const SchedEntry* e = Peek();
    assert(e != nullptr && "Pop on empty wheel");
    const SchedEntry out = *e;
    ++drain_head_;
    --count_;
    return out;
  }

  /// Moves the cursor forward to `t`'s tick. Only legal while the wheel is
  /// empty (there are no entries whose relative position could change);
  /// called when the overflow heap advances time past the wheel horizon so
  /// subsequently scheduled near events use the wheel again.
  void AdvanceTo(Time t) {
    assert(count_ == 0 && "AdvanceTo with events in the wheel");
    drain_.clear();
    drain_head_ = 0;
    const std::uint64_t tick = Tick(t);
    if (tick > cur_) cur_ = tick;
  }

  [[nodiscard]] std::size_t size() const { return count_; }

  /// Calls `f(entry)` on every pending entry: the live drain from
  /// drain_head_ on, then each bucket's chunks up to the bucket's size.
  /// Consumed drain entries hold stale copies of events that already ran;
  /// they are not visited.
  template <class F>
  void ForEachPending(F&& f) const {
    for (std::size_t i = drain_head_; i < drain_.size(); ++i) f(drain_[i]);
    for (const Bucket& bucket : buckets_) ForEachIn(bucket, f);
  }

  /// Chunks ever carved == the high-water mark of chunks held by buckets
  /// at once (a chunk is carved only when the free list is empty).
  [[nodiscard]] std::size_t chunks_created() const { return chunks_created_; }
  /// Buckets currently holding at least one entry, over all levels.
  [[nodiscard]] int occupied_buckets() const {
    int n = 0;
    for (const std::uint64_t bits : bitmap_) n += std::popcount(bits);
    return n;
  }

 private:
  /// kChunkEntries entries of one bucket; `next` is the newer chunk. Free
  /// chunks are linked through `next` on the wheel's free list.
  struct Chunk {
    Chunk* next;
    SchedEntry entries[kChunkEntries];
  };
  /// A bucket's entries in insertion order: entry i lives in chunk
  /// i / kChunkEntries counted from `head`; `tail` is the one being filled.
  struct Bucket {
    Chunk* head = nullptr;
    Chunk* tail = nullptr;
    std::uint32_t size = 0;
  };
  static constexpr std::size_t kChunksPerSlab = 16;

  static std::uint64_t Tick(Time t) {
    return static_cast<std::uint64_t>(t) >> kTickShift;
  }

  [[nodiscard]] bool DrainLive() const { return drain_head_ < drain_.size(); }

  /// Appends `e` to the bucket its time selects under the current cursor.
  /// Precondition: within horizon, not behind the cursor.
  void Place(const SchedEntry& e);
  /// Copies the level-0 bucket `s` into the (empty) drain, sorted, and
  /// frees its chunks.
  void DrainBucket(std::uint32_t s);
  /// Fills the empty drain with `bucket`'s entries sorted by (t, seq). A
  /// level-0 bucket spans exactly one tick, so a stable counting sort on
  /// the sub-tick key orders it by t; equal-t runs whose insertion order
  /// disagrees with seq are then comparison-sorted. Small buckets are
  /// copied and sorted with std::sort directly.
  void SortDrain(const Bucket& bucket);
  /// Re-places every entry of bucket `s` at `level` into lower levels after
  /// the cursor entered that bucket's range.
  void CascadeBucket(int level, std::uint32_t s);
  /// Refills an empty drain from the buckets. Precondition: count_ > 0.
  void Refill();
  /// Peek's out-of-line tail: refills the spent drain.
  [[nodiscard]] const SchedEntry* PeekSlow();

  /// Calls `f(entry)` on each of `bucket`'s entries, in insertion order.
  template <class F>
  static void ForEachIn(const Bucket& bucket, F&& f) {
    std::uint32_t left = bucket.size;
    for (const Chunk* c = bucket.head; c != nullptr; c = c->next) {
      const std::uint32_t m = std::min(left, kChunkEntries);
      for (std::uint32_t i = 0; i < m; ++i) f(c->entries[i]);
      left -= m;
    }
  }

  [[nodiscard]] Bucket& BucketAt(int level, std::uint32_t s) {
    return buckets_[static_cast<std::uint32_t>(level) * kWheelSlots + s];
  }
  /// Detaches every chunk of `b` (leaving it empty) and returns the list's
  /// head; the caller frees each chunk once it has read it.
  static Chunk* Detach(Bucket& b) {
    Chunk* head = b.head;
    b = Bucket{};
    return head;
  }

  Chunk* TakeChunk() {
    if (free_ == nullptr) return CarveChunk();
    Chunk* c = free_;
    free_ = c->next;
    return c;
  }
  void FreeChunk(Chunk* c) {
    c->next = free_;
    free_ = c;
  }
  Chunk* CarveChunk();  // the next unused chunk of the newest slab
  /// Lowest set bit index >= from in the level's occupancy word, or -1.
  [[nodiscard]] int FindSet(int level, std::uint32_t from) const {
    const std::uint64_t bits = bitmap_[level] & (~0ull << from);
    return bits != 0 ? std::countr_zero(bits) : -1;
  }

  /// kLevels * kWheelSlots buckets, all filled from one chunk free list
  /// that grows only to its high-water mark, so the steady state
  /// allocates nothing.
  Bucket buckets_[kLevels * kWheelSlots];
  Chunk* free_ = nullptr;
  std::vector<std::unique_ptr<Chunk[]>> slabs_;
  std::size_t chunks_created_ = 0;
  std::uint64_t bitmap_[kLevels] = {};  // per-level bucket occupancy
  /// CascadeBucket's copy of the chunk it frees. A member, so a cascade
  /// does not value-initialize a fresh array of events per chunk.
  SchedEntry cascade_batch_[kChunkEntries];

  // Counting-sort workspace (reused; no steady-state allocation).
  std::vector<std::uint32_t> counts_;

  /// Level-0 tick cursor: every event in ticks < cur_ has been moved to the
  /// drain (or popped); the bucket at cur_ itself may refill while the
  /// drain is dead and is then rescanned.
  std::uint64_t cur_ = 0;

  /// Sorted run of due entries served by Peek/Pop. Entries before
  /// drain_head_ are consumed.
  std::vector<SchedEntry> drain_;
  std::size_t drain_head_ = 0;

  std::size_t count_ = 0;  // pending entries (buckets + unconsumed drain)
};

}  // namespace fncc
