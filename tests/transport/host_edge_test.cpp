// Receiver-side edge cases: duplicates, unknown flows, ACK coalescing
// boundaries, N accounting.
#include <gtest/gtest.h>

#include "../test_util.hpp"
#include "transport/host.hpp"

namespace fncc {
namespace {

/// Host wired directly to a sink so we can hand-craft packet sequences and
/// observe every ACK it emits.
class HostEdgeTest : public ::testing::Test {
 protected:
  HostEdgeTest() : host_(&sim_, 0, "rx", HostConfig{}), sink_(&sim_, 1, "tx") {
    host_.nic().Connect({&sink_, 0}, 100.0, Nanoseconds(10));
    sink_.nic().Connect({&host_, 0}, 100.0, Nanoseconds(10));
  }

  void Deliver(std::uint64_t seq, std::uint32_t bytes, bool last = false,
               FlowId flow = 1) {
    PacketPtr p = test::MakeData(sim_.packet_pool(), 1, 0, bytes, flow);
    p->seq = seq;
    p->last_of_flow = last;
    host_.ReceivePacket(std::move(p), 0);
    sim_.RunUntil(sim_.Now() + Microseconds(1));
  }

  std::vector<const Packet*> Acks() const {
    std::vector<const Packet*> acks;
    for (const auto& p : sink_.received) {
      if (p->type == PacketType::kAck) acks.push_back(p.get());
    }
    return acks;
  }

  Simulator sim_;
  Host host_;
  test::SinkEndpoint sink_;
};

TEST_F(HostEdgeTest, InOrderDataAckedCumulatively) {
  Deliver(0, 1000);
  Deliver(1000, 1000);
  const auto acks = Acks();
  ASSERT_EQ(acks.size(), 2u);
  EXPECT_EQ(acks[0]->seq, 1000u);
  EXPECT_EQ(acks[1]->seq, 2000u);
}

TEST_F(HostEdgeTest, DuplicateDataReAcksCurrentPoint) {
  Deliver(0, 1000);
  Deliver(0, 1000);  // duplicate (go-back-N retransmit)
  const auto acks = Acks();
  ASSERT_EQ(acks.size(), 2u);
  EXPECT_EQ(acks[1]->seq, 1000u);  // not advanced twice
}

TEST_F(HostEdgeTest, GapDataDoesNotAdvanceAck) {
  Deliver(0, 1000);
  Deliver(5000, 1000);  // hole at [1000, 5000)
  const auto acks = Acks();
  ASSERT_EQ(acks.size(), 2u);
  EXPECT_EQ(acks[1]->seq, 1000u);
  EXPECT_EQ(host_.out_of_order_packets(), 1u);
}

TEST_F(HostEdgeTest, AckForUnknownFlowIgnored) {
  PacketPtr ack = test::MakeAck(sim_.packet_pool(), 1, 0, /*flow=*/77);
  host_.ReceivePacket(std::move(ack), 0);  // no QP 77: must not crash
  SUCCEED();
}

TEST_F(HostEdgeTest, CnpForUnknownFlowIgnored) {
  PacketPtr cnp = sim_.packet_pool().Acquire();
  cnp->type = PacketType::kCnp;
  cnp->flow = 88;
  cnp->size_bytes = kCnpBytes;
  host_.ReceivePacket(std::move(cnp), 0);
  SUCCEED();
}

TEST_F(HostEdgeTest, ActiveInboundCountsDistinctFlows) {
  Deliver(0, 1000, false, 1);
  Deliver(0, 1000, false, 2);
  Deliver(1000, 1000, false, 1);  // same flow again
  EXPECT_EQ(host_.active_inbound_flows(), 2);
}

TEST_F(HostEdgeTest, FlowCompletionDecrementsOnce) {
  Deliver(0, 1000, false, 1);
  Deliver(1000, 1000, true, 1);  // last segment
  EXPECT_EQ(host_.active_inbound_flows(), 0);
  // Late duplicate of the final segment must not go negative.
  Deliver(1000, 1000, true, 1);
  EXPECT_EQ(host_.active_inbound_flows(), 0);
}

TEST_F(HostEdgeTest, AcksCarryConcurrentFlowCount) {
  Deliver(0, 1000, false, 1);
  Deliver(0, 1000, false, 2);
  Deliver(0, 1000, false, 3);
  const auto acks = Acks();
  ASSERT_EQ(acks.size(), 3u);
  EXPECT_EQ(acks[0]->concurrent_flows, 1u);
  EXPECT_EQ(acks[1]->concurrent_flows, 2u);
  EXPECT_EQ(acks[2]->concurrent_flows, 3u);
}

TEST_F(HostEdgeTest, PathIdEchoedIntoAck) {
  PacketPtr p = test::MakeData(sim_.packet_pool(), 1, 0, 1000);
  p->path_id = 0xABC;
  host_.ReceivePacket(std::move(p), 0);
  sim_.RunUntil(Microseconds(2));
  const auto acks = Acks();
  ASSERT_EQ(acks.size(), 1u);
  EXPECT_EQ(acks[0]->req_path_id, 0xABC);
}

class CoalescingHostTest : public ::testing::Test {
 protected:
  CoalescingHostTest()
      : host_(&sim_, 0, "rx",
              [] {
                HostConfig config;
                config.ack_every = 4;
                return config;
              }()),
        sink_(&sim_, 1, "tx") {
    host_.nic().Connect({&sink_, 0}, 100.0, Nanoseconds(10));
    sink_.nic().Connect({&host_, 0}, 100.0, Nanoseconds(10));
  }

  Simulator sim_;
  Host host_;
  test::SinkEndpoint sink_;
};

TEST_F(CoalescingHostTest, OneAckPerMPackets) {
  for (int i = 0; i < 8; ++i) {
    PacketPtr p = test::MakeData(sim_.packet_pool(), 1, 0, 1000);
    p->seq = static_cast<std::uint64_t>(i) * 1000;
    host_.ReceivePacket(std::move(p), 0);
  }
  sim_.RunUntil(Microseconds(5));
  EXPECT_EQ(sink_.received.size(), 2u);  // 8 packets / m=4
}

TEST_F(CoalescingHostTest, LastOfFlowForcesImmediateAck) {
  PacketPtr p = test::MakeData(sim_.packet_pool(), 1, 0, 1000);
  p->seq = 0;
  p->last_of_flow = true;
  host_.ReceivePacket(std::move(p), 0);
  sim_.RunUntil(Microseconds(5));
  ASSERT_EQ(sink_.received.size(), 1u);  // despite m=4
  EXPECT_EQ(sink_.received[0]->seq, 1000u);
}

}  // namespace
}  // namespace fncc
