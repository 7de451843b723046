// Shared helpers for unit tests: a closure event (Fn), packet factories, a
// sink endpoint that records everything it receives, mini-network
// construction, and a holder that routes the timers of a CC algorithm
// tested without a flow table.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "cc/dcqcn.hpp"
#include "core/congestion_control.hpp"
#include "net/network.hpp"
#include "net/node.hpp"
#include "net/packet.hpp"
#include "net/packet_pool.hpp"
#include "net/egress_port.hpp"
#include "net/topology.hpp"

namespace fncc::test {

/// A TypedEvent that runs `fn`. The event owns a heap copy of it: `run`
/// invokes and then frees the copy, `drop` frees it when the queue is
/// destroyed with the event still pending.
inline TypedEvent Fn(std::function<void()> fn) {
  using Owned = std::function<void()>;
  return TypedEvent{
      .run =
          [](void* f, void* /*unused*/, std::uint64_t /*arg*/) {
            const std::unique_ptr<Owned> owned(static_cast<Owned*>(f));
            (*owned)();
          },
      .drop = [](void* f, void* /*unused*/,
                 std::uint64_t /*arg*/) { delete static_cast<Owned*>(f); },
      .p0 = new Owned(std::move(fn))};
}

/// A standalone CC (a DcqcnAlgorithm or a CongestionControl) whose timer
/// carriers route back through this holder, the way a SenderQp's resolve
/// through its flow table: after Destroy() — the algorithm is gone, as
/// FlowTable::Release destroys a QP — every pending carrier is inert.
/// Must outlive every run of the simulator after construction.
template <class Cc>
class CcWithTimers {
 public:
  CcWithTimers(const CcConfig& config, Simulator* sim) {
    cc_.emplace(config, sim,
                TimerRoute{.run = &CcWithTimers::Fire, .p0 = this, .key = 0});
  }
  CcWithTimers(const CcWithTimers&) = delete;
  CcWithTimers& operator=(const CcWithTimers&) = delete;

  Cc& operator*() { return *cc_; }
  Cc* operator->() { return &*cc_; }
  void Destroy() { cc_.reset(); }

 private:
  static void Fire(void* self, void* /*unused*/, std::uint64_t arg) {
    std::optional<Cc>& cc = static_cast<CcWithTimers*>(self)->cc_;
    if (!cc) return;
    const std::uint32_t which = TimerRoute::Which(arg);
    if constexpr (std::is_same_v<Cc, DcqcnAlgorithm>) {
      cc->OnTimer(static_cast<DcqcnAlgorithm::Timer>(which));
    } else {
      cc->OnTimer(which);
    }
  }

  std::optional<Cc> cc_;
};

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
