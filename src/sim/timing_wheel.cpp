#include "sim/timing_wheel.hpp"

#include <algorithm>

namespace fncc {

void TimingWheel::Place(const SchedEntry& e) {
  const std::uint64_t tick = Tick(e.t);
  for (int level = 0; level < kLevels; ++level) {
    // Level L holds the event iff its level-(L+1) tick equals the cursor's:
    // the event lies inside the cursor's current level-L wheel revolution,
    // so its level-L bucket index cannot collide with a later lap.
    if ((tick >> ((level + 1) * kSlotBits)) ==
        (cur_ >> ((level + 1) * kSlotBits))) {
      const auto s =
          static_cast<std::uint32_t>((tick >> (level * kSlotBits)) & kSlotMask);
      Bucket& bucket = BucketAt(level, s);
      const std::uint32_t index = bucket.size % kChunkEntries;
      if (index == 0) {
        Chunk* c = TakeChunk();
        c->next = nullptr;
        (bucket.tail != nullptr ? bucket.tail->next : bucket.head) = c;
        bucket.tail = c;
      }
      bucket.tail->entries[index] = e;
      ++bucket.size;
      bitmap_[level] |= 1ull << s;
      return;
    }
  }
  assert(false && "Place: time beyond wheel horizon (Accepts not checked)");
}

TimingWheel::Chunk* TimingWheel::CarveChunk() {
  const std::size_t in_slab = chunks_created_ % kChunksPerSlab;
  if (in_slab == 0) slabs_.emplace_back(new Chunk[kChunksPerSlab]);
  ++chunks_created_;
  return &slabs_.back()[in_slab];
}

void TimingWheel::DrainBucket(std::uint32_t s) {
  assert(drain_.empty() && drain_head_ == 0);
  // The drain keeps the capacity of the largest bucket it has served and
  // chunks come back to the free list here, so the run is allocation-free
  // once the free list and the drain have reached their high-water marks.
  Bucket& bucket = BucketAt(0, s);
  SortDrain(bucket);
  for (Chunk* c = Detach(bucket); c != nullptr;) {
    Chunk* const next = c->next;
    FreeChunk(c);
    c = next;
  }
  bitmap_[0] &= ~(1ull << s);
}

void TimingWheel::SortDrain(const Bucket& bucket) {
  const std::size_t n = bucket.size;
  // Below this, one 2^kTickShift-entry prefix scan costs more than the
  // comparison sort it replaces.
  constexpr std::size_t kCountingSortMin = 256;
  if (n < kCountingSortMin) {
    ForEachIn(bucket, [this](const SchedEntry& e) { drain_.push_back(e); });
    if (!std::is_sorted(drain_.begin(), drain_.end(), Before)) {
      std::sort(drain_.begin(), drain_.end(), Before);
    }
    return;
  }
  // All entries share the bucket's tick, so the sub-tick offset is a total
  // order on t; counting-sort stability keeps equal-t entries in insertion
  // order, which for freshly minted natives IS seq order, with no
  // comparisons. Entries go from the chunks straight to their place in the
  // drain, so no second n-entry buffer is needed.
  constexpr std::uint32_t kKeys = 1u << kTickShift;
  const auto key = [](const SchedEntry& e) {
    return static_cast<std::uint32_t>(e.t) & (kKeys - 1);
  };
  counts_.assign(kKeys, 0);
  ForEachIn(bucket, [&](const SchedEntry& e) { ++counts_[key(e)]; });
  std::uint32_t sum = 0;
  for (std::uint32_t k = 0; k < kKeys; ++k) {
    const std::uint32_t c = counts_[k];
    counts_[k] = sum;
    sum += c;
  }
  drain_.resize(n);
  ForEachIn(bucket,
            [&](const SchedEntry& e) { drain_[counts_[key(e)]++] = e; });
  // Insertion order can disagree with seq inside an equal-t run: a link
  // delivery carries an explicit order word (bit 63 clear) that sorts below
  // a native word minted before it (kNativeOrderBit set), and a re-filed
  // timer carrier (see sim/lazy_timer.hpp) brings a word minted before
  // natives inserted ahead of it. Runs are short — scan for an inversion
  // and comparison-sort just the offending run.
  for (std::size_t i = 1; i < n; ++i) {
    if (drain_[i].t != drain_[i - 1].t || drain_[i].seq > drain_[i - 1].seq) {
      continue;
    }
    std::size_t b = i - 1;
    while (b > 0 && drain_[b - 1].t == drain_[i].t) --b;
    std::size_t e = i + 1;
    while (e < n && drain_[e].t == drain_[i].t) ++e;
    std::sort(drain_.begin() + static_cast<std::ptrdiff_t>(b),
              drain_.begin() + static_cast<std::ptrdiff_t>(e), Before);
    i = e;  // loop increment moves past the run's first successor
  }
}

void TimingWheel::CascadeBucket(int level, std::uint32_t s) {
  Bucket& bucket = BucketAt(level, s);
  std::uint32_t left = bucket.size;
  bitmap_[level] &= ~(1ull << s);
  for (Chunk* c = Detach(bucket); c != nullptr;) {
    // Free each chunk before re-placing its entries, so a cascade never
    // holds more chunks than the buckets it fills need.
    const std::uint32_t m = std::min(left, kChunkEntries);
    std::copy_n(c->entries, m, cascade_batch_);
    left -= m;
    Chunk* const next = c->next;
    FreeChunk(c);
    c = next;
    for (std::uint32_t i = 0; i < m; ++i) Place(cascade_batch_[i]);
  }
}

void TimingWheel::Refill() {
  assert(count_ > 0 && drain_.empty() && drain_head_ == 0);
  for (;;) {
    // Next non-empty level-0 bucket in the cursor's current revolution.
    const int s0 = FindSet(0, static_cast<std::uint32_t>(cur_ & kSlotMask));
    if (s0 >= 0) {
      cur_ = (cur_ & ~static_cast<std::uint64_t>(kSlotMask)) |
             static_cast<std::uint32_t>(s0);
      DrainBucket(static_cast<std::uint32_t>(s0));
      return;
    }
    // Level-0 revolution exhausted: enter the next non-empty level-1 bucket
    // and cascade it down; failing that, the next level-2 bucket. Cursor
    // jumps are always forward and stay inside the wheel horizon, so every
    // cascaded entry re-places cleanly.
    bool cascaded = false;
    for (int level = 1; level < kLevels && !cascaded; ++level) {
      const std::uint64_t cur_l = cur_ >> (level * kSlotBits);
      const int s =
          FindSet(level, static_cast<std::uint32_t>(cur_l & kSlotMask));
      if (s >= 0) {
        cur_ = ((cur_l & ~static_cast<std::uint64_t>(kSlotMask)) |
                static_cast<std::uint32_t>(s))
               << (level * kSlotBits);
        CascadeBucket(level, static_cast<std::uint32_t>(s));
        cascaded = true;
      }
    }
    assert(cascaded && "count_ > 0 but no occupied bucket in any level");
    if (!cascaded) return;  // defensive: avoid an infinite loop in release
  }
}

const SchedEntry* TimingWheel::PeekSlow() {
  assert(count_ > 0 && !DrainLive());
  drain_.clear();
  drain_head_ = 0;
  Refill();
  return &drain_[drain_head_];
}

}  // namespace fncc
