// A SenderQp's timers on the push/pop-only event queue (sim/lazy_timer.hpp):
// the RTO re-armed later, earlier (the backoff reset on ACK progress) and
// at the timestamp of a native event keeps the (t, order) a cancel +
// schedule re-arm gave it; and timer events a finished flow leaves behind
// resolve its stale FlowId and leave the slot's next tenant alone.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <memory>
#include <vector>

#include "../test_util.hpp"
#include "transport/flow_table.hpp"
#include "transport/host.hpp"

namespace fncc {
namespace {

CcConfig DcqcnConfig() {
  CcConfig cc;
  cc.mode = CcMode::kDcqcn;
  cc.line_rate_gbps = 100.0;
  cc.base_rtt = Microseconds(12);
  return cc;
}

FlowSpec Spec(Time start, std::uint64_t bytes) {
  FlowSpec spec;
  spec.src = 0;
  spec.dst = 1;
  spec.sport = 1000;
  spec.dport = 1001;
  spec.size_bytes = bytes;
  spec.start_time = start;
  return spec;
}

/// A sender whose packets go to a sink that never ACKs: every ACK is one
/// the test hands the QP, so the RTO's deadlines are exact.
class RtoReArmTest : public ::testing::Test {
 protected:
  RtoReArmTest() : host_(&sim_, 0, "tx", HostConfig{}), sink_(&sim_, 1, "rx") {
    host_.nic().Connect({&sink_, 0}, 100.0, Nanoseconds(10));
    sink_.nic().Connect({&host_, 0}, 100.0, Nanoseconds(10));
  }

  void Ack(SenderQp* qp, std::uint64_t seq) {
    PacketPtr ack = test::MakeAck(sim_.packet_pool(), 1, 0, qp->spec().id);
    ack->seq = seq;
    qp->HandleAck(*ack);
  }

  /// Records the QP's RTO count at `t`, from a native event scheduled now.
  void Observe(SenderQp* qp, Time t, std::vector<std::uint64_t>* seen) {
    sim_.ScheduleAt(t,
                    [qp, seen] { seen->push_back(qp->retransmit_events()); });
  }

  Simulator sim_;
  Host host_;
  test::SinkEndpoint sink_;
};

TEST_F(RtoReArmTest, ReArmLaterEarlierAndAtANativesTimestamp) {
  constexpr Time kRto = 5 * kMillisecond;  // HostConfig's default
  SenderQp* qp = host_.StartFlow(Spec(0, 4000), DcqcnConfig());
  std::vector<std::uint64_t> before;
  std::vector<std::uint64_t> after;
  Observe(qp, Milliseconds(6), &before);  // scheduled before the re-arm
  sim_.ScheduleAt(Milliseconds(1), [&] {
    Ack(qp, 1000);  // later: 5 ms -> 6 ms, the 5 ms carrier re-files
    Observe(qp, Milliseconds(6), &after);  // scheduled after the re-arm
  });
  sim_.RunUntil(Milliseconds(6) - 1);
  EXPECT_EQ(qp->retransmit_events(), 0u) << "the 5 ms carrier only re-filed";
  sim_.RunUntil(Milliseconds(6));
  // At 6 ms the RTO runs between the two natives: behind the one scheduled
  // before the re-arm, ahead of the one scheduled after it.
  EXPECT_EQ(before, std::vector<std::uint64_t>{0});
  EXPECT_EQ(after, std::vector<std::uint64_t>{1});
  EXPECT_EQ(qp->retransmit_events(), 1u);

  // The RTO re-armed itself with backoff 2, for 6 + 10 = 16 ms. Earlier:
  // ACK progress at 7 ms resets the backoff, 16 ms -> 12 ms. A fresh
  // carrier fires at 12 ms; the 16 ms one falls inert.
  sim_.ScheduleAt(Milliseconds(7), [&] { Ack(qp, 2000); });
  sim_.RunUntil(Milliseconds(7) + kRto - 1);
  EXPECT_EQ(qp->retransmit_events(), 1u);
  sim_.RunUntil(Milliseconds(7) + kRto);
  EXPECT_EQ(qp->retransmit_events(), 2u);
  // Backoff 2 again: the next RTO is due at 12 + 10 = 22 ms.
  sim_.RunUntil(Milliseconds(22) - 1);
  EXPECT_EQ(qp->retransmit_events(), 2u) << "the 16 ms carrier was inert";
  sim_.RunUntil(Milliseconds(22));
  EXPECT_EQ(qp->retransmit_events(), 3u);
  qp->Abort();
  sim_.Run();  // the disarmed RTO's carrier pops once and files nothing
  EXPECT_EQ(qp->retransmit_events(), 3u);
}

/// Two hosts on one link sharing a flow table: DCQCN flows from a to b.
struct HostPair {
  HostPair()
      : a(&sim, 0, "a", HostConfig{}, table),
        b(&sim, 1, "b", HostConfig{}, table) {
    a.nic().Connect({&b, 0}, 100.0, Microseconds(1));
    b.nic().Connect({&a, 0}, 100.0, Microseconds(1));
  }
  SenderQp* Launch(Time start, std::uint64_t bytes) {
    return a.StartFlow(Spec(start, bytes), DcqcnConfig());
  }

  Simulator sim;
  std::shared_ptr<FlowTable> table = std::make_shared<FlowTable>();
  Host a;
  Host b;
};

TEST(StaleTimerTest, CarriersOfARecycledSlotLeaveTheNewTenantAlone) {
  // A short DCQCN flow completes with its RTO carrier (5 ms) and its
  // alpha and increase carriers (55 us) still queued; its slot is released
  // and re-registered before they pop. The new tenant, long enough to see
  // its own timers fire several times, must end exactly as the same flow
  // run alone.
  constexpr Time kStart = Microseconds(30);
  constexpr std::uint64_t kBytes = 2'000'000;  // ~160 us at 100 Gb/s
  HostPair recycled;
  SenderQp* old = recycled.Launch(0, 20'000);
  const FlowId old_id = old->spec().id;
  recycled.sim.RunUntil(kStart - Microseconds(5));
  ASSERT_TRUE(old->complete());
  ASSERT_GT(recycled.sim.events_pending(), 0u) << "carriers still queued";
  recycled.table->Release(old_id);
  SenderQp* tenant = recycled.Launch(kStart, kBytes);
  ASSERT_EQ(FlowTable::SlotIndex(tenant->spec().id),
            FlowTable::SlotIndex(old_id));
  ASSERT_NE(tenant->spec().id, old_id);
  recycled.sim.Run();

  HostPair alone;
  SenderQp* solo = alone.Launch(kStart, kBytes);
  alone.sim.Run();

  ASSERT_TRUE(tenant->complete());
  ASSERT_TRUE(solo->complete());
  EXPECT_EQ(tenant->fct(), solo->fct());
  EXPECT_EQ(std::bit_cast<std::uint64_t>(tenant->pacing_rate_gbps()),
            std::bit_cast<std::uint64_t>(solo->pacing_rate_gbps()));
  ASSERT_NE(tenant->cc().dcqcn(), nullptr);
  EXPECT_LT(solo->cc().dcqcn()->alpha(), 1.0) << "its alpha timer fired";
  EXPECT_EQ(std::bit_cast<std::uint64_t>(tenant->cc().dcqcn()->alpha()),
            std::bit_cast<std::uint64_t>(solo->cc().dcqcn()->alpha()));
  EXPECT_EQ(tenant->cc().dcqcn()->timer_stage(),
            solo->cc().dcqcn()->timer_stage());
  EXPECT_EQ(tenant->retransmit_events(), solo->retransmit_events());
  EXPECT_EQ(tenant->retransmit_events(), 0u);
}

}  // namespace
}  // namespace fncc
