// A receiver decides whether a late duplicate of a completed flow is
// re-ACKed or dropped from the sender's completion time, which the
// sender's lane writes. Two hosts in different lanes, one link apart: a
// duplicate that reaches the receiver inside the PDES window in which the
// sender completes must get the same answer at every lane count and
// thread count — re-ACKed, because it arrives less than one settle delay
// after the completion — and one arriving later is dropped. Reading the
// sender's plain completion flag instead would answer "dropped" whenever
// the sender's lane happened to run first (always, at one thread).
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "../test_util.hpp"
#include "exec/domain_scheduler.hpp"
#include "net/network.hpp"
#include "transport/flow_table.hpp"
#include "transport/host.hpp"

namespace fncc {
namespace {

constexpr Time kLinkDelay = Microseconds(1);

struct Outcome {
  Time fct = 0;
  std::uint64_t stale_after_first = 0;
  std::uint64_t stale_after_second = 0;
};

/// One 1518-byte flow from host 0 (group 0) to host 1 (group 1). With
/// `first_dup` > 0, duplicates of its data packet are injected into the
/// receiver, from the receiver's lane, at `first_dup` and one settle
/// delay later.
Outcome RunFlow(int lanes, int threads, Time first_dup) {
  Simulator sim;
  sim.Partition(lanes);
  auto table = std::make_shared<FlowTable>();
  Network net(&sim);
  const HostFactory factory = [&table](Simulator* s, NodeId id,
                                       const std::string& name) {
    return std::make_unique<Host>(s, id, name, HostConfig{}, table);
  };
  net.SetNodeGroup(0);
  auto* tx = static_cast<Host*>(net.AddHost(factory, "tx"));
  net.SetNodeGroup(1);
  auto* rx = static_cast<Host*>(net.AddHost(factory, "rx"));
  net.Connect(tx->id(), 0, rx->id(), 0, 100.0, kLinkDelay);
  net.SealDomains();
  EXPECT_EQ(sim.settle_delay(), kLinkDelay);

  FlowSpec spec;
  spec.src = tx->id();
  spec.dst = rx->id();
  spec.sport = 1000;
  spec.dport = 2000;
  spec.size_bytes = 1518;
  CcConfig cc;
  cc.line_rate_gbps = 100.0;
  cc.base_rtt = Microseconds(4);
  SenderQp* qp;
  {
    Simulator::ActiveLaneScope scope(&sim, tx->domain());
    qp = tx->StartFlow(spec, cc);
  }
  const FlowId id = qp->spec().id;

  Outcome out;
  if (first_dup > 0) {
    Simulator::ActiveLaneScope scope(&sim, rx->domain());
    const auto dup_at = [&](Time t, std::uint64_t* stale) {
      sim.ScheduleAt(t, test::Fn([rx, tx, id, stale] {
        PacketPtr dup = test::MakeData(rx->sim()->packet_pool(), tx->id(),
                                       rx->id(), 1518, id);
        dup->last_of_flow = true;
        rx->ReceivePacket(std::move(dup), 0);
        *stale = rx->stale_flow_packets();
      }));
    };
    dup_at(first_dup, &out.stale_after_first);
    dup_at(first_dup + sim.settle_delay(), &out.stale_after_second);
  }
  DomainScheduler sched(&sim, threads);
  sched.RunUntil(Microseconds(50));
  EXPECT_TRUE(qp->complete());
  out.fct = qp->fct();
  return out;
}

TEST(CrossLaneCompletionTest, LateDuplicateDecisionIgnoresLaneOrder) {
  const Time done_at = RunFlow(1, 1, 0).fct;  // the flow starts at t = 0
  ASSERT_GT(done_at, 2 * kLinkDelay);
  // Half a settle delay after the completion: inside the window that ran
  // the completing ACK (windows are one link delay wide here).
  const Time first_dup = done_at + kLinkDelay / 2;
  for (int lanes : {1, 2}) {
    for (int threads : {1, 2}) {
      SCOPED_TRACE("lanes=" + std::to_string(lanes) +
                   " threads=" + std::to_string(threads));
      const Outcome o = RunFlow(lanes, threads, first_dup);
      EXPECT_EQ(o.fct, done_at);
      EXPECT_EQ(o.stale_after_first, 0u);   // re-ACKed
      EXPECT_EQ(o.stale_after_second, 1u);  // dropped
    }
  }
}

}  // namespace
}  // namespace fncc
