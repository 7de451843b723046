// Shared helpers for unit tests: packet factories, a sink endpoint that
// records everything it receives, and mini-network construction.
#pragma once

#include <string>
#include <vector>

#include "net/network.hpp"
#include "net/node.hpp"
#include "net/packet.hpp"
#include "net/packet_pool.hpp"
#include "net/egress_port.hpp"
#include "net/topology.hpp"

namespace fncc::test {

/// Endpoint that stores every received packet (and honours PFC so it can
/// stand in for a host in switch-level tests).
class SinkEndpoint final : public Endpoint {
 public:
  SinkEndpoint(Simulator* sim, NodeId id, const std::string& name)
      : Endpoint(sim, id, name), nic_(sim) {}

  EgressPort& nic() override { return nic_; }

  void ReceivePacket(PacketPtr pkt, int /*in_port*/) override {
    if (pkt->type == PacketType::kPfcPause) {
      nic_.SetPaused(true);
      ++pauses;
      return;
    }
    if (pkt->type == PacketType::kPfcResume) {
      nic_.SetPaused(false);
      ++resumes;
      return;
    }
    received.push_back(std::move(pkt));
    arrival_times.push_back(sim()->Now());
  }

  std::vector<PacketPtr> received;
  std::vector<Time> arrival_times;  // received[i] arrived at [i]
  int pauses = 0;
  int resumes = 0;

 private:
  EgressPort nic_;
};

inline HostFactory SinkFactory() {
  return [](Simulator* sim, NodeId id, const std::string& name) {
    return std::make_unique<SinkEndpoint>(sim, id, name);
  };
}

/// The registered topology `name` over SinkEndpoint hosts and default
/// switches, wired but unrouted.
inline BuiltTopology BuildSinkTopology(Simulator* sim, Rng* rng,
                                       const std::string& name,
                                       const TopologyParams& params) {
  return TopologyRegistry::Build(name, sim, SinkFactory(), SwitchConfig{},
                                 rng, params);
}

inline PacketPtr MakeData(PacketPool& pool, NodeId src, NodeId dst,
                          std::uint32_t bytes, FlowId flow = 1,
                          std::uint16_t sport = 1000,
                          std::uint16_t dport = 2000) {
  PacketPtr p = pool.Acquire();
  p->type = PacketType::kData;
  p->src = src;
  p->dst = dst;
  p->flow = flow;
  p->sport = sport;
  p->dport = dport;
  p->size_bytes = bytes;
  p->payload_bytes = bytes;
  return p;
}

inline PacketPtr MakeAck(PacketPool& pool, NodeId src, NodeId dst,
                         FlowId flow = 1, std::uint16_t sport = 2000,
                         std::uint16_t dport = 1000) {
  PacketPtr p = pool.Acquire();
  p->type = PacketType::kAck;
  p->src = src;
  p->dst = dst;
  p->flow = flow;
  p->sport = sport;
  p->dport = dport;
  p->size_bytes = kAckBytes;
  return p;
}

}  // namespace fncc::test
