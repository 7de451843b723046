#include "net/egress_port.hpp"

#include <gtest/gtest.h>

#include "../test_util.hpp"

namespace fncc {
namespace {

using test::SinkEndpoint;

class EgressPortTest : public ::testing::Test {
 protected:
  void Connect(double gbps = 100.0, Time prop = Microseconds(1.5)) {
    port_.Connect({&sink_, 0}, gbps, prop);
  }
  /// A data packet of `bytes` from node 1 to the sink.
  PacketPtr Data(std::uint32_t bytes) {
    return test::MakeData(sim_.packet_pool(), 1, 0, bytes);
  }

  Simulator sim_;
  SinkEndpoint sink_{&sim_, 0, "sink"};
  EgressPort port_{&sim_};
};

TEST_F(EgressPortTest, DeliversAfterSerializationPlusPropagation) {
  Connect();
  port_.Enqueue(Data(1518));
  sim_.Run();
  ASSERT_EQ(sink_.received.size(), 1u);
  // 121.44 ns serialization + 1.5 us propagation.
  EXPECT_EQ(sim_.Now(), 121'440 + 1'500'000);
}

TEST_F(EgressPortTest, BackToBackPacketsSpacedBySerialization) {
  Connect();
  std::vector<Time> arrivals;
  port_.Enqueue(Data(1518));
  port_.Enqueue(Data(1518));
  sim_.Schedule(0, test::Fn([] {}));
  while (sink_.received.size() < 2) sim_.RunUntil(sim_.Now() + kMicrosecond);
  // Second packet finishes serializing one slot later.
  EXPECT_EQ(sim_.Now() >= 2 * 121'440 + 1'500'000, true);
}

TEST_F(EgressPortTest, QueueLengthTracksDataOnly) {
  Connect();
  port_.Enqueue(Data(1000));
  port_.Enqueue(Data(500));
  // First packet begins serializing immediately, leaving one queued.
  EXPECT_EQ(port_.qlen_bytes(), 500u);
  sim_.Run();
  EXPECT_EQ(port_.qlen_bytes(), 0u);
}

TEST_F(EgressPortTest, TxBytesAccumulate) {
  Connect();
  port_.Enqueue(Data(1000));
  port_.Enqueue(Data(500));
  sim_.Run();
  EXPECT_EQ(port_.tx_bytes(), 1500u);
}

TEST_F(EgressPortTest, PauseBlocksDataButNotControl) {
  Connect();
  port_.SetPaused(true);
  port_.Enqueue(Data(1518));
  PacketPtr ctrl = sim_.packet_pool().Acquire();
  ctrl->type = PacketType::kPfcPause;
  ctrl->size_bytes = kPfcFrameBytes;
  port_.EnqueueControl(std::move(ctrl));
  sim_.RunUntil(Microseconds(10));
  // Only the control frame got through (counted via sink_.pauses).
  EXPECT_EQ(sink_.pauses, 1);
  EXPECT_TRUE(sink_.received.empty());
  EXPECT_EQ(port_.qlen_bytes(), 1518u);

  port_.SetPaused(false);
  sim_.RunUntil(Microseconds(20));
  EXPECT_EQ(sink_.received.size(), 1u);
}

TEST_F(EgressPortTest, InFlightPacketCompletesDespitePause) {
  Connect();
  port_.Enqueue(Data(1518));  // starts serializing at t=0
  sim_.Schedule(10, test::Fn([this] { port_.SetPaused(true); }));
  sim_.RunUntil(Microseconds(10));
  EXPECT_EQ(sink_.received.size(), 1u);  // not preempted
}

TEST_F(EgressPortTest, ControlHasStrictPriority) {
  Connect();
  port_.Enqueue(Data(1518));
  port_.Enqueue(Data(1518));
  PacketPtr ctrl = sim_.packet_pool().Acquire();
  ctrl->type = PacketType::kPfcResume;
  ctrl->size_bytes = kPfcFrameBytes;
  port_.EnqueueControl(std::move(ctrl));  // queued behind in-flight pkt only
  sim_.Run();
  // The resume must arrive before the second data packet.
  ASSERT_EQ(sink_.received.size(), 2u);
  EXPECT_EQ(sink_.resumes, 1);
}

TEST_F(EgressPortTest, TransmitHookMayGrowPacket) {
  Connect();
  port_.set_transmit_hook(
      [](void*, std::uint64_t, Packet& p) { p.size_bytes += 8; }, nullptr, 0);
  port_.Enqueue(Data(1518));
  sim_.Run();
  ASSERT_EQ(sink_.received.size(), 1u);
  EXPECT_EQ(sink_.received[0]->size_bytes, 1526u);
  // Serialization covered the grown size.
  EXPECT_EQ(sim_.Now(), SerializationDelay(1526, 100.0) + 1'500'000);
  EXPECT_EQ(port_.tx_bytes(), 1526u);
}

TEST_F(EgressPortTest, HigherRateServesFaster) {
  Connect(400.0, 0);
  port_.Enqueue(Data(1518));
  sim_.Run();
  EXPECT_EQ(sim_.Now(), 30'360);  // 1518 B at 400 Gbps
}

}  // namespace
}  // namespace fncc
