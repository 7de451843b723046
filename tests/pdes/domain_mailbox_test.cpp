// Order-word and cross-lane mailbox unit tests — the determinism
// primitives under exec/DomainScheduler. The ordering contract
// (sim/event_queue.hpp): at equal timestamps, link deliveries (explicit
// (edge << 32 | nth) words, bit 63 clear) run before native events
// (kNativeOrderBit | per-queue FIFO counter), deliveries ordered by edge
// then per-edge FIFO, natives by scheduling order. Because the words name
// a directed edge rather than a lane, the order is a partition invariant:
// a handoff re-injected at a window barrier lands exactly where a
// single-lane run would have popped it. Partitioned simulators run through
// exec/DomainScheduler, the only driver of one.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <optional>
#include <vector>

#include "../test_util.hpp"
#include "exec/domain_scheduler.hpp"
#include "net/egress_port.hpp"
#include "net/packet_pool.hpp"
#include "sim/event_queue.hpp"
#include "sim/simulator.hpp"

namespace fncc {
namespace {

using test::MakeData;
using test::SinkEndpoint;

void AppendArg(void* p0, void* /*p1*/, std::uint64_t arg) {
  static_cast<std::vector<int>*>(p0)->push_back(static_cast<int>(arg));
}

TypedEvent Tag(std::vector<int>* out, int tag) {
  return TypedEvent{.run = &AppendArg,
                    .drop = nullptr,
                    .p0 = out,
                    .p1 = nullptr,
                    .arg = static_cast<std::uint64_t>(tag)};
}

// Runs a partitioned `sim` to quiescence on the window engine (every
// scenario here finishes within a few microseconds).
void RunPartitioned(Simulator* sim) {
  DomainScheduler sched(sim, /*num_threads=*/2);
  sched.RunUntil(Milliseconds(1));
  ASSERT_EQ(sim->events_pending(), 0u);
}

void DrainAll(EventQueue& q, std::vector<int>* popped_tags = nullptr) {
  while (!q.Empty()) {
    Time t = 0;
    std::uint64_t order = 0;
    q.PopNext(&t, &order)();
    if (popped_tags != nullptr) popped_tags->push_back(0);
  }
}

// Simultaneous (t, order) arrivals: deliveries beat natives, deliveries
// sort by (edge, nth), natives keep FIFO — independent of insertion
// order. Run at a near time (timing-wheel path) and a far time (heap
// path); both structures must enforce the same contract.
TEST(DomainOrderWordTest, EqualTimeTieBreakIsEdgeThenNative) {
  for (const Time t : {Time{5'000}, Time{1} << 40}) {
    EventQueue q;
    std::vector<int> ran;
    // Natives first: they mint smaller FIFO counters than the explicit
    // words inserted after them, so popping them last exercises the
    // drain-order repair, not just stable insertion order.
    q.Schedule(t, test::Fn([&ran] { ran.push_back(100); }));
    q.Schedule(t, test::Fn([&ran] { ran.push_back(101); }));
    q.ScheduleOrdered(t, (1ull << 32) | 0, Tag(&ran, 10));  // edge 1, nth 0
    q.ScheduleOrdered(t, (0ull << 32) | 0, Tag(&ran, 0));   // edge 0, nth 0
    q.ScheduleOrdered(t, (0ull << 32) | 1, Tag(&ran, 1));   // edge 0, nth 1
    DrainAll(q);
    EXPECT_EQ(ran, (std::vector<int>{0, 1, 10, 100, 101})) << "t=" << t;
  }
}

// Same contract through the timing wheel's counting-sort drain path
// (taken for large same-tick batches): a small population of explicit
// words must still run before hundreds of earlier-inserted natives.
TEST(DomainOrderWordTest, LargeBatchDrainKeepsDeliveriesFirst) {
  EventQueue q;
  std::vector<int> ran;
  const Time t = 5'000;
  for (int i = 0; i < 300; ++i) {
    q.Schedule(t, test::Fn([&ran, i] { ran.push_back(1000 + i); }));
  }
  q.ScheduleOrdered(t, (7ull << 32) | 1, Tag(&ran, 1));
  q.ScheduleOrdered(t, (7ull << 32) | 0, Tag(&ran, 0));
  DrainAll(q);
  ASSERT_EQ(ran.size(), 302u);
  EXPECT_EQ(ran[0], 0);
  EXPECT_EQ(ran[1], 1);
  for (int i = 0; i < 300; ++i) EXPECT_EQ(ran[2 + i], 1000 + i);
}

// Two cross-lane ports transmitting packets that arrive at the sink at
// the same instant: delivery order must follow the ports' Connect order
// (their directed-edge indices), not the transmit order — matching what
// a single-queue run pops.
TEST(DomainMailboxTest, SimultaneousHandoffsDeliverInEdgeOrder) {
  Simulator sim;
  sim.Partition(2);
  SinkEndpoint sink(&sim, 0, "sink");
  EgressPort port_a(&sim);
  EgressPort port_b(&sim);
  const Time prop = Microseconds(1);
  port_a.Connect({&sink, 0}, 100.0, prop);  // lower edge index
  port_b.Connect({&sink, 0}, 100.0, prop);
  EgressPort::Outbox box(&sim, /*dst_lane=*/1);
  port_a.SetCrossLane(&box);
  port_b.SetCrossLane(&box);
  sim.set_domain_lookahead(prop);

  {
    // Transmit b before a; identical sizes finish serializing — and thus
    // arrive — at the same instant.
    Simulator::ActiveLaneScope scope(&sim, 0);
    port_b.Enqueue(MakeData(sim.packet_pool(), 1, 0, 1000, /*flow=*/2));
    port_a.Enqueue(MakeData(sim.packet_pool(), 1, 0, 1000, /*flow=*/1));
  }
  RunPartitioned(&sim);

  ASSERT_EQ(sink.received.size(), 2u);
  EXPECT_EQ(sink.received[0]->flow, 1u);  // port_a's edge index is lower
  EXPECT_EQ(sink.received[1]->flow, 2u);
  // Serialization (80 ns at 100 Gbps) + propagation.
  EXPECT_EQ(sink.arrival_times,
            (std::vector<Time>{80'000 + 1'000'000, 80'000 + 1'000'000}));
}

// The handoff re-materializes the packet in the destination lane's arena;
// every wire field must survive the copy.
TEST(DomainMailboxTest, HandoffPreservesPacketFields) {
  Simulator sim;
  sim.Partition(2);
  SinkEndpoint sink(&sim, 7, "sink");
  EgressPort port(&sim);
  port.Connect({&sink, 3}, 100.0, Microseconds(1));
  EgressPort::Outbox box(&sim, /*dst_lane=*/1);
  port.SetCrossLane(&box);
  sim.set_domain_lookahead(Microseconds(1));

  {
    Simulator::ActiveLaneScope scope(&sim, 0);
    PacketPtr p = MakeData(sim.packet_pool(), 4, 7, 1234, /*flow=*/9,
                           /*sport=*/1111, /*dport=*/2222);
    p->ecn_ce = true;
    port.Enqueue(std::move(p));
  }
  RunPartitioned(&sim);

  ASSERT_EQ(sink.received.size(), 1u);
  const Packet& got = *sink.received[0];
  EXPECT_EQ(got.src, 4u);
  EXPECT_EQ(got.dst, 7u);
  EXPECT_EQ(got.flow, 9u);
  EXPECT_EQ(got.sport, 1111);
  EXPECT_EQ(got.dport, 2222);
  EXPECT_EQ(got.size_bytes, 1234u);
  EXPECT_TRUE(got.ecn_ce);
}

// An INT-carrying ACK crossing a lane boundary: the entries arrive bit for
// bit in a block of the destination lane's pool, and the source packet's
// block goes back to the source lane's pool at the handoff.
TEST(DomainMailboxTest, HandoffCarriesIntEntriesAndReturnsTheSourceBlock) {
  Simulator sim;
  sim.Partition(2);
  SinkEndpoint sink(&sim, 7, "sink");
  EgressPort port(&sim);
  port.Connect({&sink, 3}, 100.0, Microseconds(1));
  EgressPort::Outbox box(&sim, /*dst_lane=*/1);
  port.SetCrossLane(&box);
  sim.set_domain_lookahead(Microseconds(1));
  PacketPool* src_pool = nullptr;
  PacketPool* dst_pool = nullptr;
  {
    Simulator::ActiveLaneScope scope(&sim, 1);
    dst_pool = &sim.packet_pool();
  }

  const IntEntry hops[] = {{100.0, 11, 1'518, 0},
                           {400.0, 22, 3'036, 40'000},
                           {25.0, 33, 4'554, 123'456'789}};
  {
    Simulator::ActiveLaneScope scope(&sim, 0);
    src_pool = &sim.packet_pool();
    PacketPtr ack = src_pool->Acquire();
    ack->type = PacketType::kAck;
    ack->src = 4;
    ack->dst = 7;
    ack->size_bytes = kAckBytes;
    for (const IntEntry& h : hops) ack->PushInt(h);
    ack->int_reversed = true;
    EXPECT_EQ(src_pool->int_blocks_outstanding(), 1u);
    port.Enqueue(std::move(ack));
  }
  ASSERT_NE(src_pool, dst_pool);
  RunPartitioned(&sim);

  EXPECT_GT(src_pool->int_blocks_created(), 0u);
  EXPECT_EQ(src_pool->int_blocks_outstanding(), 0u)
      << "the source block returns to the source lane's pool";
  ASSERT_EQ(sink.received.size(), 1u);
  const Packet& got = *sink.received[0];
  EXPECT_EQ(got.pool, dst_pool);
  EXPECT_EQ(dst_pool->int_blocks_outstanding(), 1u);
  EXPECT_TRUE(got.int_reversed);
  ASSERT_EQ(got.int_stack().size(), 3u);
  EXPECT_EQ(std::memcmp(got.int_stack().data(), hops, sizeof(hops)), 0);
}

// Two ports of one source lane share their lane pair's outbox: sends
// interleave in one buffer, and each packet's INT entries sit behind the
// entries of every packet pushed before it. Each delivered packet must
// still carry exactly its own entries, and packets arriving together must
// still come out in edge order, not push order.
TEST(DomainMailboxTest, SharedOutboxKeepsEachPacketsIntEntries) {
  Simulator sim;
  sim.Partition(2);
  SinkEndpoint sink(&sim, 7, "sink");
  EgressPort port_a(&sim);
  EgressPort port_b(&sim);
  const Time prop = Microseconds(1);
  port_a.Connect({&sink, 0}, 100.0, prop);  // lower edge index
  port_b.Connect({&sink, 1}, 100.0, prop);
  EgressPort::Outbox box(&sim, /*dst_lane=*/1);
  port_a.SetCrossLane(&box);
  port_b.SetCrossLane(&box);
  sim.set_domain_lookahead(prop);

  // Flow f carries int_hops(f) entries whose qlen_bytes name (f, hop).
  auto int_hops = [](FlowId f) { return static_cast<int>((f * 3) % 5); };
  auto entry = [](FlowId f, int hop) {
    return IntEntry{100.0, static_cast<Time>(hop), f,
                    f * 100 + static_cast<std::uint64_t>(hop)};
  };
  {
    // b's ACKs go first, so each equal-time pair is pushed b then a:
    // flows 1 and 2 finish serializing together, then 3 and 4.
    Simulator::ActiveLaneScope scope(&sim, 0);
    for (const FlowId f : {FlowId{2}, FlowId{1}, FlowId{4}, FlowId{3}}) {
      PacketPtr ack = test::MakeAck(sim.packet_pool(), 4, 7, f);
      for (int h = 0; h < int_hops(f); ++h) ack->PushInt(entry(f, h));
      (f % 2 == 1 ? port_a : port_b).Enqueue(std::move(ack));
    }
  }
  RunPartitioned(&sim);

  ASSERT_EQ(sink.received.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    const Packet& got = *sink.received[i];
    const FlowId f = i + 1;  // edge order within each arrival instant
    EXPECT_EQ(got.flow, f);
    std::vector<IntEntry> want;
    for (int h = 0; h < int_hops(f); ++h) want.push_back(entry(f, h));
    EXPECT_EQ(std::vector<IntEntry>(got.int_stack().begin(),
                                    got.int_stack().end()),
              want)
        << "flow " << f;
  }
  EXPECT_EQ(sink.arrival_times[0], sink.arrival_times[1]);
  EXPECT_EQ(sink.arrival_times[2], sink.arrival_times[3]);
  EXPECT_LT(sink.arrival_times[1], sink.arrival_times[2]);
}

// The partitioned run and the classic single-queue run of the same
// two-port scenario agree on delivery order and delivery times.
TEST(DomainMailboxTest, CrossLaneMatchesSingleLaneRun) {
  auto run = [](bool partitioned) {
    Simulator sim;
    if (partitioned) sim.Partition(2);
    SinkEndpoint sink(&sim, 0, "sink");
    EgressPort port_a(&sim);
    EgressPort port_b(&sim);
    const Time prop = Microseconds(1);
    port_a.Connect({&sink, 0}, 100.0, prop);
    port_b.Connect({&sink, 0}, 100.0, prop);
    std::optional<EgressPort::Outbox> box;
    if (partitioned) {
      box.emplace(&sim, /*dst_lane=*/1);
      port_a.SetCrossLane(&*box);
      port_b.SetCrossLane(&*box);
      sim.set_domain_lookahead(prop);
    }
    {
      Simulator::ActiveLaneScope scope(&sim, 0);
      port_b.Enqueue(MakeData(sim.packet_pool(), 1, 0, 1000, /*flow=*/2));
      port_a.Enqueue(MakeData(sim.packet_pool(), 1, 0, 1000, /*flow=*/1));
      port_a.Enqueue(MakeData(sim.packet_pool(), 1, 0, 500, /*flow=*/3));
    }
    if (partitioned) {
      RunPartitioned(&sim);
    } else {
      sim.Run();
    }
    std::vector<FlowId> flows;
    for (const PacketPtr& p : sink.received) flows.push_back(p->flow);
    return std::make_pair(flows, sink.arrival_times);
  };
  const auto serial = run(false);
  const auto lanes = run(true);
  EXPECT_EQ(serial.first, lanes.first);
  EXPECT_EQ(serial.second, lanes.second);
  EXPECT_EQ(serial.second.size(), 3u);
}

}  // namespace
}  // namespace fncc
