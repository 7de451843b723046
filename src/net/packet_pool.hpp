// Free-list packet pool: steady-state packet traffic performs zero heap
// allocations.
//
// Ownership contract:
//   - The pool owns the storage of every packet it ever created (arena_).
//     A PacketPtr is a loan; its destructor pushes the packet back onto the
//     free list via PacketReclaimer.
//   - The pool must therefore outlive every PacketPtr it issued. Simulator
//     owns one pool and destroys it after its event queue (whose callbacks
//     are the last in-flight packet holders), so model code holding packets
//     inside scheduled events is always safe.
//   - Pool-ownership rule (parallel sweeps): a pool, and every packet it
//     issued, belong to exactly one thread at a time — PacketPool is not
//     internally synchronized. Each sweep job owns a full Simulator +
//     PacketPool + RNG built and torn down inside the job, so pools are
//     never shared across threads. Acquire() is the only way to get a
//     packet, so every packet names its pool, and the PacketPtr deleter
//     returns it there (Packet::pool).
//   - Recycled packets are indistinguishable from fresh ones: Acquire()
//     resets every field to its default, so no INT telemetry, ECN marks or
//     path ids leak across reuses.
//   - INT blocks: a packet's INT entries live in a block of kMaxIntHops
//     entries from this pool's block slabs, taken on the packet's first INT
//     push and returned to this pool's block free list when the packet is
//     released. A block belongs to exactly one packet at a time and never
//     leaves its pool's lane (cross-lane handoffs copy the entries). Both
//     free lists only grow to their high-water mark, so steady-state
//     traffic, INT-carrying or not, performs no heap allocation.
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "net/packet.hpp"

namespace fncc {

class PacketPool {
 public:
  PacketPool() = default;
  PacketPool(const PacketPool&) = delete;
  PacketPool& operator=(const PacketPool&) = delete;
  ~PacketPool();

  /// Hands out a default-initialized packet. Allocation-free when the free
  /// list is non-empty (the steady state).
  PacketPtr Acquire();

  // -- Allocation telemetry (the counters behind BENCH_micro.json) --

  /// Packets ever heap-allocated by this pool == its high-water mark of
  /// simultaneously live packets. Constant once the pool is warm.
  [[nodiscard]] std::size_t total_created() const { return arena_.size(); }
  /// Packets currently on the free list.
  [[nodiscard]] std::size_t free_count() const { return free_.size(); }
  /// Packets currently loaned out.
  [[nodiscard]] std::size_t outstanding() const {
    return arena_.size() - free_.size();
  }
  /// Total Acquire() calls served.
  [[nodiscard]] std::uint64_t acquires() const { return acquires_; }
  /// Acquires served from the free list (no heap allocation).
  [[nodiscard]] std::uint64_t recycles() const {
    return acquires_ - arena_.size();
  }
  /// INT blocks ever handed out fresh from a slab == the high-water mark
  /// of simultaneously live INT-carrying packets. 0 for a pool that never
  /// saw INT.
  [[nodiscard]] std::size_t int_blocks_created() const {
    return int_blocks_created_;
  }
  /// INT blocks currently attached to packets.
  [[nodiscard]] std::size_t int_blocks_outstanding() const {
    return int_blocks_created() - int_free_.size();
  }

 private:
  friend struct PacketReclaimer;
  friend struct Packet;

  static constexpr std::size_t kIntBlocksPerSlab = 64;

  void Release(Packet* p) noexcept {
    if (p->int_block_ != nullptr) {
      int_free_.push_back(p->int_block_);  // capacity reserved per slab
      p->int_block_ = nullptr;
    }
    free_.push_back(p);
  }
  IntEntry* AcquireIntBlock() {
    if (int_free_.empty()) return CarveIntBlock();
    IntEntry* block = int_free_.back();
    int_free_.pop_back();
    return block;
  }
  IntEntry* CarveIntBlock();  // the next unused block of the newest slab

  std::vector<std::unique_ptr<Packet>> arena_;
  std::vector<Packet*> free_;
  std::uint64_t acquires_ = 0;
  std::vector<std::unique_ptr<IntEntry[]>> int_slabs_;
  std::size_t int_blocks_created_ = 0;
  std::vector<IntEntry*> int_free_;
};

}  // namespace fncc
