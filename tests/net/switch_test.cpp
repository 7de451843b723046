#include "net/switch.hpp"

#include <gtest/gtest.h>

#include "../test_util.hpp"
#include "net/network.hpp"

namespace fncc {
namespace {

using test::SinkEndpoint;
using test::SinkFactory;

/// host0 -- sw -- host1 with configurable switch features.
class SwitchTest : public ::testing::Test {
 protected:
  void Build(SwitchConfig config, int extra_hosts = 0) {
    config.num_ports = 2 + extra_hosts;
    net_ = std::make_unique<Network>(&sim_);
    h0_ = static_cast<SinkEndpoint*>(net_->AddHost(SinkFactory(), "h0"));
    h1_ = static_cast<SinkEndpoint*>(net_->AddHost(SinkFactory(), "h1"));
    for (int i = 0; i < extra_hosts; ++i) {
      extra_.push_back(static_cast<SinkEndpoint*>(
          net_->AddHost(SinkFactory(), "hx" + std::to_string(i))));
    }
    sw_ = net_->AddSwitch("sw", config, &rng_);
    net_->ConnectAuto(h0_->id(), sw_->id(), 100.0, Microseconds(1.5));
    net_->ConnectAuto(h1_->id(), sw_->id(), 100.0, Microseconds(1.5));
    for (auto* h : extra_) {
      net_->ConnectAuto(h->id(), sw_->id(), 100.0, Microseconds(1.5));
    }
    net_->ComputeRoutes();
  }

  /// A 1518-byte data packet from `src` to h1, from this run's pool.
  PacketPtr Data(const SinkEndpoint* src, FlowId flow = 1) {
    return test::MakeData(sim_.packet_pool(), src->id(), h1_->id(), 1518,
                          flow);
  }
  /// An ACK from h1 to h0.
  PacketPtr AckToH0() {
    return test::MakeAck(sim_.packet_pool(), h1_->id(), h0_->id());
  }

  Simulator sim_;
  Rng rng_{1};
  std::unique_ptr<Network> net_;
  SinkEndpoint* h0_ = nullptr;
  SinkEndpoint* h1_ = nullptr;
  std::vector<SinkEndpoint*> extra_;
  Switch* sw_ = nullptr;
};

TEST_F(SwitchTest, ForwardsDataToDestination) {
  Build({});
  h0_->nic().Enqueue(Data(h0_));
  sim_.Run();
  ASSERT_EQ(h1_->received.size(), 1u);
  EXPECT_TRUE(h0_->received.empty());
  EXPECT_EQ(h1_->received[0]->payload_bytes, 1518u);
}

TEST_F(SwitchTest, NoIntStampingByDefault) {
  Build({});
  h0_->nic().Enqueue(Data(h0_));
  sim_.Run();
  ASSERT_EQ(h1_->received.size(), 1u);
  EXPECT_TRUE(h1_->received[0]->int_stack().empty());
  EXPECT_EQ(h1_->received[0]->size_bytes, 1518u);
}

TEST_F(SwitchTest, HpccModeStampsDataInt) {
  SwitchConfig cfg;
  cfg.stamp_data_int = true;
  Build(cfg);
  h0_->nic().Enqueue(Data(h0_));
  sim_.Run();
  ASSERT_EQ(h1_->received.size(), 1u);
  const Packet& p = *h1_->received[0];
  ASSERT_EQ(p.int_stack().size(), 1u);
  EXPECT_FALSE(p.int_reversed);
  EXPECT_DOUBLE_EQ(p.int_stack()[0].bandwidth_gbps, 100.0);
  EXPECT_EQ(p.size_bytes, 1518u + kIntBytesPerHop);
  // ACKs are not stamped in HPCC mode.
  h1_->nic().Enqueue(AckToH0());
  sim_.Run();
  ASSERT_EQ(h0_->received.size(), 1u);
  EXPECT_TRUE(h0_->received[0]->int_stack().empty());
}

TEST_F(SwitchTest, FnccModeStampsAckWithRequestPathPort) {
  SwitchConfig cfg;
  cfg.stamp_ack_int = true;
  Build(cfg);
  // Data h0 -> h1 raises tx_bytes of the egress toward h1.
  for (int i = 0; i < 3; ++i) {
    h0_->nic().Enqueue(Data(h0_));
  }
  sim_.Run();
  EXPECT_TRUE(h1_->received[0]->int_stack().empty());  // data untouched

  // The ACK from h1 must carry INT of the port toward h1 (request path).
  h1_->nic().Enqueue(AckToH0());
  sim_.Run();
  ASSERT_EQ(h0_->received.size(), 1u);
  const Packet& ack = *h0_->received[0];
  ASSERT_EQ(ack.int_stack().size(), 1u);
  EXPECT_TRUE(ack.int_reversed);
  EXPECT_EQ(ack.int_stack()[0].tx_bytes, 3u * 1518u);
  EXPECT_EQ(ack.size_bytes, kAckBytes + kIntBytesPerHop);
}

TEST_F(SwitchTest, EcnDoesNotMarkUncongestedTraffic) {
  SwitchConfig cfg;
  cfg.ecn_enabled = true;
  cfg.ecn_kmin_bytes = 1000;
  cfg.ecn_kmax_bytes = 2000;
  Build(cfg);
  // A single line-rate input cannot build an egress queue: no marks.
  for (int i = 0; i < 12; ++i) {
    h0_->nic().Enqueue(Data(h0_));
  }
  sim_.Run();
  ASSERT_EQ(h1_->received.size(), 12u);
  for (const auto& p : h1_->received) EXPECT_FALSE(p->ecn_ce);
}

TEST_F(SwitchTest, EcnMarksWhenTwoInputsConverge) {
  SwitchConfig cfg;
  cfg.ecn_enabled = true;
  cfg.ecn_kmin_bytes = 1000;
  cfg.ecn_kmax_bytes = 2000;
  Build(cfg, /*extra_hosts=*/1);
  // Two senders at line rate into one egress: queue must build and mark.
  for (int i = 0; i < 20; ++i) {
    h0_->nic().Enqueue(Data(h0_, 1));
    extra_[0]->nic().Enqueue(Data(extra_[0], 2));
  }
  sim_.Run();
  ASSERT_EQ(h1_->received.size(), 40u);
  int marked = 0;
  for (const auto& p : h1_->received) marked += p->ecn_ce ? 1 : 0;
  EXPECT_GT(marked, 0);
}

TEST_F(SwitchTest, PfcPausesAndResumesUpstream) {
  SwitchConfig cfg;
  cfg.pfc_enabled = true;
  cfg.pfc_xoff_bytes = 5'000;
  cfg.pfc_xon_bytes = 2'000;
  Build(cfg, /*extra_hosts=*/1);
  // Two line-rate inputs into one output exceed the tiny XOFF quickly.
  for (int i = 0; i < 40; ++i) {
    h0_->nic().Enqueue(Data(h0_, 1));
    extra_[0]->nic().Enqueue(Data(extra_[0], 2));
  }
  sim_.Run();
  EXPECT_GT(sw_->pause_frames_sent(), 0u);
  EXPECT_EQ(sw_->pause_frames_sent(), sw_->resume_frames_sent());
  EXPECT_GT(h0_->pauses + extra_[0]->pauses, 0);
  // Lossless: every packet eventually arrived.
  EXPECT_EQ(h1_->received.size(), 80u);
  EXPECT_EQ(sw_->drops(), 0u);
}

TEST_F(SwitchTest, PfcDisabledMeansNoPauses) {
  SwitchConfig cfg;
  cfg.pfc_enabled = false;
  Build(cfg, /*extra_hosts=*/1);
  for (int i = 0; i < 40; ++i) {
    h0_->nic().Enqueue(Data(h0_, 1));
    extra_[0]->nic().Enqueue(Data(extra_[0], 2));
  }
  sim_.Run();
  EXPECT_EQ(sw_->pause_frames_sent(), 0u);
}

TEST_F(SwitchTest, SharedBufferOverflowDrops) {
  SwitchConfig cfg;
  cfg.pfc_enabled = false;
  cfg.buffer_bytes = 10'000;  // tiny
  Build(cfg, /*extra_hosts=*/1);
  for (int i = 0; i < 100; ++i) {
    h0_->nic().Enqueue(Data(h0_, 1));
    extra_[0]->nic().Enqueue(Data(extra_[0], 2));
  }
  sim_.Run();
  EXPECT_GT(sw_->drops(), 0u);
  EXPECT_LT(h1_->received.size(), 200u);
}

TEST_F(SwitchTest, BufferAccountingReturnsToZero) {
  Build({});
  for (int i = 0; i < 10; ++i) {
    h0_->nic().Enqueue(Data(h0_));
  }
  sim_.Run();
  EXPECT_EQ(sw_->buffer_used_bytes(), 0u);
}

TEST_F(SwitchTest, RoccControllerAdvertisesBelowLineWhenCongested) {
  SwitchConfig cfg;
  cfg.rocc_enabled = true;
  cfg.rocc.qref_bytes = 1'000;
  Build(cfg, /*extra_hosts=*/1);
  // Sustain a queue: two line-rate senders into one port.
  for (int i = 0; i < 200; ++i) {
    h0_->nic().Enqueue(Data(h0_, 1));
    extra_[0]->nic().Enqueue(Data(extra_[0], 2));
  }
  sim_.RunUntil(Microseconds(100));
  // An ACK from h1 toward h0 passes the congested request-path port.
  h1_->nic().Enqueue(AckToH0());
  sim_.RunUntil(Microseconds(200));  // Run() would never drain: PI timer
  ASSERT_FALSE(h0_->received.empty());
  const Packet& ack = *h0_->received.back();
  EXPECT_GT(ack.rocc_rate_gbps, 0.0);
  EXPECT_LT(ack.rocc_rate_gbps, 100.0);
}

TEST_F(SwitchTest, IntTableRefreshIntroducesStaleness) {
  SwitchConfig cfg;
  cfg.stamp_ack_int = true;
  cfg.int_table_refresh = Microseconds(50);
  Build(cfg);
  // Traffic before the first refresh sees an empty (zero) table.
  h1_->nic().Enqueue(AckToH0());
  sim_.RunUntil(Microseconds(20));
  ASSERT_EQ(h0_->received.size(), 1u);
  EXPECT_EQ(h0_->received[0]->int_stack()[0].ts, 0);

  // After a refresh the table carries a recent timestamp.
  sim_.RunUntil(Microseconds(60));
  h1_->nic().Enqueue(AckToH0());
  sim_.RunUntil(Microseconds(80));
  ASSERT_EQ(h0_->received.size(), 2u);
  EXPECT_GE(h0_->received[1]->int_stack()[0].ts, Microseconds(50));
}

}  // namespace
}  // namespace fncc
