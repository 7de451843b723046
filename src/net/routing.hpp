// Destination-based routing with ECMP. The hash can be symmetric (sorted
// five-tuple, Fig. 5) so a data packet and its ACK pick mirror paths — the
// property FNCC's return-path INT relies on — or plain (asymmetric) for the
// ablation study.
#pragma once

#include <cstdint>
#include <vector>

#include "net/packet.hpp"

namespace fncc {

/// ECMP hash over the five-tuple. With `symmetric` the (src,dst) and
/// (sport,dport) pairs are order-normalized first, so a flow and its
/// reverse flow hash identically at every switch (given equal salt).
std::uint32_t EcmpHash(NodeId src, NodeId dst, std::uint16_t sport,
                       std::uint16_t dport, std::uint8_t proto,
                       std::uint32_t salt, bool symmetric);

/// Per-switch routing table: destination node -> set of equal-cost output
/// ports, ordered consistently (ascending peer node id) across the fabric so
/// symmetric hashing yields symmetric paths.
///
/// Storage is a flat array indexed by destination: one 8-byte Route record
/// per node, holding the output port directly when the route is unique (the
/// common case — no indirection, no hash) or an (offset, count) span into a
/// shared port pool for ECMP sets. Built once by Network::ComputeRoutes;
/// per-packet Select is one load plus, for multipath, one hash.
class RoutingTable {
 public:
  RoutingTable() = default;
  explicit RoutingTable(std::size_t num_nodes) : routes_(num_nodes) {}

  void Resize(std::size_t num_nodes) { routes_.resize(num_nodes); }

  void SetNextHops(NodeId dst, const std::vector<int>& ports);

  [[nodiscard]] bool HasRoute(NodeId dst) const {
    return dst < routes_.size() && routes_[dst].count != 0;
  }

  /// Ports held by the ECMP pool: the summed width of every multi-port
  /// route set so far (routing a fabric again appends, it does not reuse).
  [[nodiscard]] std::size_t pool_size() const { return pool_.size(); }

  /// Picks the output port for `pkt` using ECMP among the equal-cost set.
  [[nodiscard]] int Select(const Packet& pkt, std::uint32_t salt,
                           bool symmetric) const;

 private:
  struct Route {
    std::uint32_t base = 0;   // the port itself (count == 1) or pool offset
    std::uint32_t count = 0;  // 0 = no route
  };

  std::vector<Route> routes_;        // indexed by destination NodeId
  std::vector<std::uint16_t> pool_;  // ECMP port sets, contiguous
};

}  // namespace fncc
