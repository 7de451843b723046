#include "net/packet.hpp"

#include <algorithm>
#include <cassert>

#include "net/packet_pool.hpp"

namespace fncc {

void Packet::AttachIntBlock() {
  assert(pool != nullptr && "INT needs a pooled packet (the block's owner)");
  int_block_ = pool->AcquireIntBlock();
}

void Packet::AssignInt(std::span<const IntEntry> entries) {
  assert(entries.size() <= static_cast<std::size_t>(kMaxIntHops));
  if (!entries.empty() && int_block_ == nullptr) AttachIntBlock();
  std::copy(entries.begin(), entries.end(), int_block_);
  int_hops = static_cast<std::uint8_t>(entries.size());
}

void Packet::CopyFrom(const PacketHeader& hdr, const IntEntry* entries) {
  PacketPool* const own = pool;
  static_cast<PacketHeader&>(*this) = hdr;
  pool = own;
  next = nullptr;
  AssignInt({entries, hdr.int_hops});
}

void PacketReclaimer::operator()(Packet* p) const noexcept {
  p->pool->Release(p);
}

}  // namespace fncc
