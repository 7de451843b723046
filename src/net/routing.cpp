#include "net/routing.hpp"

#include <algorithm>
#include <cassert>

namespace fncc {

namespace {
// 64-bit mix (splitmix64 finalizer) — cheap and well distributed.
std::uint64_t Mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}
}  // namespace

std::uint32_t EcmpHash(NodeId src, NodeId dst, std::uint16_t sport,
                       std::uint16_t dport, std::uint8_t proto,
                       std::uint32_t salt, bool symmetric) {
  NodeId a = src, b = dst;
  std::uint16_t pa = sport, pb = dport;
  if (symmetric) {
    // Normalize so the flow and its reverse hash identically. Ports must
    // follow the address swap, i.e. sort the (addr, port) endpoint pairs.
    if (a > b || (a == b && pa > pb)) {
      std::swap(a, b);
      std::swap(pa, pb);
    }
  }
  std::uint64_t key = (static_cast<std::uint64_t>(a) << 48) |
                      (static_cast<std::uint64_t>(b) << 32) |
                      (static_cast<std::uint64_t>(pa) << 16) |
                      static_cast<std::uint64_t>(pb);
  key ^= static_cast<std::uint64_t>(proto) << 56;
  return static_cast<std::uint32_t>(Mix64(key ^ salt));
}

void RoutingTable::SetNextHops(NodeId dst, const std::vector<int>& ports) {
  Route& r = routes_.at(dst);
  if (ports.empty()) {
    r = Route{};
    return;
  }
  if (ports.size() == 1) {
    r.base = static_cast<std::uint32_t>(ports[0]);
    r.count = 1;
    return;
  }
  r.base = static_cast<std::uint32_t>(pool_.size());
  r.count = static_cast<std::uint32_t>(ports.size());
  for (const int p : ports) pool_.push_back(static_cast<std::uint16_t>(p));
}

int RoutingTable::Select(const Packet& pkt, std::uint32_t salt,
                         bool symmetric) const {
  assert(pkt.dst < routes_.size());
  const Route r = routes_[pkt.dst];
  assert(r.count != 0 && "no route to destination");
  if (r.count == 1) return static_cast<int>(r.base);
  // proto is constant (RoCEv2/UDP): a data packet and its ACK must hash
  // identically or path symmetry breaks.
  constexpr std::uint8_t kProtoUdp = 17;
  const std::uint32_t h = EcmpHash(pkt.src, pkt.dst, pkt.sport, pkt.dport,
                                   kProtoUdp, salt, symmetric);
  return pool_[r.base + h % r.count];
}

}  // namespace fncc
