#include "net/packet_pool.hpp"

#include <cassert>
#include <stdexcept>

namespace fncc {

PacketPool::~PacketPool() {
  // Every loaned packet must have been returned: a PacketPtr destroyed after
  // its pool would write through a dangling pool pointer. Simulator's member
  // order (pool before event queue) guarantees this for model code.
  assert(free_count_ == created_ &&
         "PacketPool destroyed with packets still outstanding");
  assert(int_blocks_outstanding() == 0);
}

PacketPtr PacketPool::Acquire() {
  Packet* p = free_;
  if (p == nullptr) {
    p = CarvePacket();
  } else {
    free_ = p->next;
    --free_count_;
    p->Reset();  // INT count, marks, path ids, link — back to defaults
  }
  p->pool = this;
  ++acquires_;
  return PacketPtr(p);
}

Packet* PacketPool::CarvePacket() {
  const std::size_t in_slab = created_ % kPacketsPerSlab;
  if (in_slab == 0) slabs_.emplace_back(new Packet[kPacketsPerSlab]);
  ++created_;
  return &slabs_.back()[in_slab];
}

void PacketPool::set_int_block_hops(int hops) {
  assert(hops >= 1 && hops <= kMaxIntHops);
  if (hops == int_block_hops_) return;
  if (int_blocks_created_ > 0) {
    throw std::logic_error(
        "PacketPool: the INT block size cannot change after a block has "
        "been carved");
  }
  int_block_hops_ = hops;
}

IntEntry* PacketPool::CarveIntBlock() {
  const auto hops = static_cast<std::size_t>(int_block_hops_);
  const std::size_t in_slab = int_blocks_created_ % kIntBlocksPerSlab;
  if (in_slab == 0) {
    int_slabs_.push_back(
        std::make_unique<IntEntry[]>(kIntBlocksPerSlab * hops));
    // Room on the free list for every block the slabs hold keeps Release
    // allocation-free (it runs in a noexcept deleter).
    int_free_.reserve(int_slabs_.size() * kIntBlocksPerSlab);
  }
  ++int_blocks_created_;
  return int_slabs_.back().get() + in_slab * hops;
}

}  // namespace fncc
