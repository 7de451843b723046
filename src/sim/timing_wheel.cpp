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
      std::vector<SchedEntry>& bucket = Bucket(level, s);
      assert(bucket.size() < kMaxBucketEntries && "bucket index overflow");
      (*meta_)[e.slot].loc = kLocWheelTag |
                             (static_cast<std::uint32_t>(level) << 28) |
                             (s << 20) |
                             static_cast<std::uint32_t>(bucket.size());
      bucket.push_back(e);
      bitmap_[level] |= 1ull << s;
      return;
    }
  }
  assert(false && "Place: time beyond wheel horizon (Accepts not checked)");
}

void TimingWheel::Remove(std::uint32_t slot, std::uint32_t loc) {
  const std::uint32_t tag = loc & ~kLocIndexMask;
  if (tag == kLocWheelTag) {
    const int level = static_cast<int>((loc >> 28) & 0x3);
    const std::uint32_t s = (loc >> 20) & 0xFF;
    const std::uint32_t index = loc & 0xF'FFFF;
    std::vector<SchedEntry>& bucket = Bucket(level, s);
    assert(index < bucket.size() && bucket[index].slot == slot);
    if (index + 1 != bucket.size()) {  // swap-remove; order is sorted later
      bucket[index] = bucket.back();
      (*meta_)[bucket[index].slot].loc =
          kLocWheelTag | (static_cast<std::uint32_t>(level) << 28) |
          (s << 20) | index;
    }
    bucket.pop_back();
    if (bucket.empty()) {
      bitmap_[level] &= ~(1ull << s);
      dirty_[level] &= ~(1ull << s);
    } else if (index != bucket.size()) {
      dirty_[level] |= 1ull << s;  // swap-remove broke insertion order
    }
  } else {
    assert(tag == kLocDrainTag);
    const std::uint32_t index = loc & kLocIndexMask;
    assert(index < drain_.size() && drain_[index].slot == slot);
    drain_[index].slot = kDeadSlot;  // tombstone; skipped at the head
  }
  (void)slot;
  --count_;
}

void TimingWheel::DrainBucket(std::uint32_t s) {
  assert(drain_.empty() && drain_head_ == 0);
  // Capacities circulate only through this swap, so every bucket still
  // allocates the first time an event lands in it; the run is allocation-
  // free once each bucket it uses has been filled once (measured: ~18 ms of
  // simulated time, ~505 allocations, for one switch forwarding ACKs).
  drain_.swap(Bucket(0, s));
  bitmap_[0] &= ~(1ull << s);
  const bool dirty = (dirty_[0] >> s) & 1;
  dirty_[0] &= ~(1ull << s);
  SortDrain(dirty);
  for (std::size_t j = 0; j < drain_.size(); ++j) {
    (*meta_)[drain_[j].slot].loc = kLocDrainTag | static_cast<std::uint32_t>(j);
  }
}

void TimingWheel::SortDrain(bool dirty) {
  const std::size_t n = drain_.size();
  // Below this, one 2^kTickShift-entry prefix scan costs more than the
  // comparison sort it replaces.
  constexpr std::size_t kCountingSortMin = 256;
  if (dirty || n < kCountingSortMin) {
    if (!std::is_sorted(drain_.begin(), drain_.end(), Before)) {
      std::sort(drain_.begin(), drain_.end(), Before);
    }
    return;
  }
  // All entries share the bucket's tick, so the sub-tick offset is a total
  // order on t; counting-sort stability keeps equal-t entries in array
  // order, which for a clean bucket is insertion order — for natives that
  // IS seq order, with no comparisons.
  constexpr std::uint32_t kKeys = 1u << kTickShift;
  counts_.assign(kKeys, 0);
  for (const SchedEntry& e : drain_) {
    ++counts_[static_cast<std::uint32_t>(e.t) & (kKeys - 1)];
  }
  std::uint32_t sum = 0;
  for (std::uint32_t k = 0; k < kKeys; ++k) {
    const std::uint32_t c = counts_[k];
    counts_[k] = sum;
    sum += c;
  }
  scratch_.resize(n);
  for (const SchedEntry& e : drain_) {
    scratch_[counts_[static_cast<std::uint32_t>(e.t) & (kKeys - 1)]++] = e;
  }
  drain_.swap(scratch_);
  // Insertion order can disagree with seq inside an equal-t run: a link
  // delivery carries an explicit order word (bit 63 clear) that sorts below
  // a native word minted before it (kNativeOrderBit set). Runs are short —
  // scan for an inversion and comparison-sort just the offending run.
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
  std::vector<SchedEntry>& bucket = Bucket(level, s);
  bitmap_[level] &= ~(1ull << s);
  const bool dirty = (dirty_[level] >> s) & 1;
  dirty_[level] &= ~(1ull << s);
  for (const SchedEntry& e : bucket) {
    Place(e);
    if (dirty) {
      // Taint the destination so its drain re-sorts by (t, seq).
      const std::uint32_t loc = (*meta_)[e.slot].loc;
      dirty_[(loc >> 28) & 0x3] |= 1ull << ((loc >> 20) & 0xFF);
    }
  }
  bucket.clear();
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
  assert(count_ > 0);
  while (DrainLive() && drain_[drain_head_].slot == kDeadSlot) ++drain_head_;
  if (!DrainLive()) {
    drain_.clear();
    drain_head_ = 0;
    Refill();
    // Buckets hold no tombstones, so the refilled drain's head is live.
  }
  return &drain_[drain_head_];
}

}  // namespace fncc
