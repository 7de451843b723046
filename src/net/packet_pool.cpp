#include "net/packet_pool.hpp"

#include <cassert>

namespace fncc {

PacketPool::~PacketPool() {
  // Every loaned packet must have been returned: a PacketPtr destroyed after
  // its pool would write through a dangling pool pointer. Simulator's member
  // order (pool before event queue) guarantees this for model code.
  assert(free_.size() == arena_.size() &&
         "PacketPool destroyed with packets still outstanding");
  assert(int_blocks_outstanding() == 0);
}

PacketPtr PacketPool::Acquire() {
  Packet* p;
  if (free_.empty()) {
    arena_.push_back(std::make_unique<Packet>());
    p = arena_.back().get();
  } else {
    p = free_.back();
    free_.pop_back();
    p->Reset();  // INT count, marks, path ids — everything back to defaults
  }
  p->pool = this;
  ++acquires_;
  return PacketPtr(p);
}

IntEntry* PacketPool::CarveIntBlock() {
  const std::size_t in_slab = int_blocks_created_ % kIntBlocksPerSlab;
  if (in_slab == 0) {
    int_slabs_.push_back(std::make_unique<IntEntry[]>(
        kIntBlocksPerSlab * static_cast<std::size_t>(kMaxIntHops)));
    // Room on the free list for every block the slabs hold keeps Release
    // allocation-free (it runs in a noexcept deleter).
    int_free_.reserve(int_slabs_.size() * kIntBlocksPerSlab);
  }
  ++int_blocks_created_;
  return int_slabs_.back().get() + in_slab * kMaxIntHops;
}

}  // namespace fncc
