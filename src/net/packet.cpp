#include "net/packet.hpp"

#include <algorithm>
#include <atomic>
#include <cassert>

#include "net/packet_pool.hpp"
#include "sim/simulator.hpp"

namespace fncc {

namespace {
std::atomic<std::uint64_t> g_next_uid{1};
}

std::uint64_t NextPacketUid() {
  return g_next_uid.fetch_add(1, std::memory_order_relaxed);
}

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
  if (pool != nullptr) {
    pool->Release(p);
  } else {
    delete p;
  }
}

namespace {

// The implicit pool behind MakePacket()/ClonePacket(). When exactly one
// Simulator is alive on this thread, that Simulator's pool owns the packet
// — same lifetime and thread as every other packet of the run, so implicit
// allocations can never cross a thread or outlive their run. With no
// Simulator alive (pool micro-tests, standalone tools) the thread-default
// pool serves; with several alive the target is ambiguous, which is a bug:
// debug builds assert, release builds fall back to the thread-default pool
// (safe — it outlives everything on the thread — just unaccounted).
PacketPool& ImplicitPacketPool() {
  if (Simulator* sim = Simulator::CurrentOnThread()) {
    return sim->packet_pool();
  }
  assert(Simulator::LiveOnThread() == 0 &&
         "MakePacket()/ClonePacket() with several Simulators alive on this "
         "thread: the implicit pool is ambiguous - allocate from the "
         "intended Simulator's packet_pool() instead");
  return DefaultPacketPool();
}

}  // namespace

PacketPtr MakePacket() { return ImplicitPacketPool().Acquire(); }

PacketPtr ClonePacket(const Packet& src) {
  return ImplicitPacketPool().Clone(src);
}

}  // namespace fncc
