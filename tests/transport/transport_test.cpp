#include "transport/host.hpp"

#include <gtest/gtest.h>

#include "harness/scenario.hpp"
#include "net/topology.hpp"

namespace fncc {
namespace {

/// Two hosts through one switch; real transport both ways.
struct MiniNet {
  explicit MiniNet(const ScenarioConfig& sc)
      : rng(sc.seed),
        topo(TopologyRegistry::Build(
            "dumbbell", &sim, MakeHostFactory(sc), MakeSwitchConfig(sc), &rng,
            {.num_senders = 2, .num_switches = 1, .link = sc.link()})) {
    topo.net.ComputeRoutes(sc.ecmp_salt, sc.symmetric_ecmp);
  }

  Host* sender(int i) {
    return static_cast<Host*>(topo.net.node(topo.senders[i]));
  }
  Host* receiver() { return static_cast<Host*>(topo.net.node(topo.receiver)); }

  Simulator sim;
  Rng rng;
  BuiltTopology topo;
};

FlowSpec Spec(const MiniNet& net, std::uint64_t bytes, FlowId id = 1,
              int sender = 0) {
  FlowSpec spec;
  spec.id = id;
  spec.src = net.topo.senders[sender];
  spec.dst = net.topo.receiver;
  spec.sport = static_cast<std::uint16_t>(1000 + 2 * id);
  spec.dport = static_cast<std::uint16_t>(1001 + 2 * id);
  spec.size_bytes = bytes;
  return spec;
}

TEST(TransportTest, SingleFlowCompletesAtIdealFct) {
  ScenarioConfig sc;
  sc.mode = CcMode::kFncc;
  MiniNet net(sc);
  FlowSpec spec = Spec(net, 100 * 1518);
  SenderQp* qp = LaunchFlow(net.topo.net, sc, spec);
  net.sim.RunUntil(Milliseconds(5));
  ASSERT_TRUE(qp->complete());
  // Alone on an idle network, the measured FCT must sit within a few
  // percent of the ideal model (ACK return adds sub-ideal noise only).
  const Time ideal = qp->spec().ideal_fct;
  EXPECT_GE(qp->fct(), ideal);
  EXPECT_LE(qp->fct(), ideal * 11 / 10);
}

TEST(TransportTest, TinySingleSegmentFlow) {
  ScenarioConfig sc;
  MiniNet net(sc);
  SenderQp* qp = LaunchFlow(net.topo.net, sc, Spec(net, 75));
  net.sim.RunUntil(Milliseconds(1));
  EXPECT_TRUE(qp->complete());
}

TEST(TransportTest, FlowLargerThanWindowStillCompletes) {
  ScenarioConfig sc;
  MiniNet net(sc);
  SenderQp* qp = LaunchFlow(net.topo.net, sc, Spec(net, 3'000'000));
  net.sim.RunUntil(Milliseconds(5));
  EXPECT_TRUE(qp->complete());
  EXPECT_EQ(qp->retransmit_events(), 0u);
}

TEST(TransportTest, CompletionCallbackFires) {
  ScenarioConfig sc;
  MiniNet net(sc);
  int completions = 0;
  net.sender(0)->on_flow_complete = [&](const SenderQp& qp) {
    ++completions;
    EXPECT_EQ(qp.spec().id, 1u);
  };
  LaunchFlow(net.topo.net, sc, Spec(net, 10 * 1518));
  net.sim.RunUntil(Milliseconds(1));
  EXPECT_EQ(completions, 1);
}

TEST(TransportTest, WindowCapsInflightBytes) {
  ScenarioConfig sc;
  sc.mode = CcMode::kHpcc;
  MiniNet net(sc);
  SenderQp* qp = LaunchFlow(net.topo.net, sc, Spec(net, 10'000'000));
  // Sample inflight while running: never beyond window + one MTU.
  bool violated = false;
  for (int i = 0; i < 200; ++i) {
    net.sim.RunUntil(net.sim.Now() + Microseconds(5));
    if (qp->complete()) break;
    if (static_cast<double>(qp->inflight_bytes()) >
        qp->cc().window_bytes() + sc.mtu_bytes) {
      violated = true;
    }
  }
  EXPECT_FALSE(violated);
}

TEST(TransportTest, ReceiverTracksConcurrentFlows) {
  ScenarioConfig sc;
  MiniNet net(sc);
  LaunchFlow(net.topo.net, sc, Spec(net, 2'000'000, 1, 0));
  FlowSpec second = Spec(net, 2'000'000, 2, 1);
  second.start_time = Microseconds(100);
  LaunchFlow(net.topo.net, sc, second);
  net.sim.RunUntil(Microseconds(50));
  EXPECT_EQ(net.receiver()->active_inbound_flows(), 1);
  net.sim.RunUntil(Microseconds(200));
  EXPECT_EQ(net.receiver()->active_inbound_flows(), 2);
  net.sim.RunUntil(Milliseconds(10));
  EXPECT_EQ(net.receiver()->active_inbound_flows(), 0);  // both done
}

TEST(TransportTest, FnccAcksCarryNAndReturnPathInt) {
  ScenarioConfig sc;
  sc.mode = CcMode::kFncc;
  MiniNet net(sc);
  LaunchFlow(net.topo.net, sc, Spec(net, 1'000'000, 1, 0));
  LaunchFlow(net.topo.net, sc, Spec(net, 1'000'000, 2, 1));
  net.sim.RunUntil(Microseconds(100));
  // Inspect the sender's CC input indirectly: after 100 us of two active
  // inbound flows, the receiver must be reporting N = 2 and the switch
  // must be stamping ACK INT (visible as a below-line pacing rate once
  // congestion is signalled, or simply via lhcs counters later). Here we
  // check N through the receiver state.
  EXPECT_EQ(net.receiver()->active_inbound_flows(), 2);
}

TEST(TransportTest, CumulativeAckEveryFourPackets) {
  ScenarioConfig sc;
  sc.ack_every = 4;
  MiniNet net(sc);
  SenderQp* qp = LaunchFlow(net.topo.net, sc, Spec(net, 40 * 1518));
  net.sim.RunUntil(Milliseconds(2));
  EXPECT_TRUE(qp->complete());  // the final segment forces an ACK
}

TEST(TransportTest, CumulativeAckSweepCompletes) {
  for (int m : {1, 2, 8, 16}) {
    ScenarioConfig sc;
    sc.ack_every = m;
    MiniNet net(sc);
    SenderQp* qp = LaunchFlow(net.topo.net, sc, Spec(net, 100 * 1518));
    net.sim.RunUntil(Milliseconds(5));
    EXPECT_TRUE(qp->complete()) << "ack_every=" << m;
  }
}

TEST(TransportTest, DcqcnFlowTriggersCnpsUnderCongestion) {
  ScenarioConfig sc;
  sc.mode = CcMode::kDcqcn;
  MiniNet net(sc);
  // Two senders at line rate into one egress: ECN marks -> CNPs -> sender
  // rate dips below line.
  LaunchFlow(net.topo.net, sc, Spec(net, 20'000'000, 1, 0));
  LaunchFlow(net.topo.net, sc, Spec(net, 20'000'000, 2, 1));
  // DCQCN oscillates (CNP cut, fast recovery); sample the minimum rate
  // observed over time rather than one instant.
  double min_rate = 1e9;
  for (int i = 0; i < 100; ++i) {
    net.sim.RunUntil(net.sim.Now() + Microseconds(10));
    min_rate = std::min({min_rate, net.sender(0)->qp(1)->pacing_rate_gbps(),
                         net.sender(1)->qp(2)->pacing_rate_gbps()});
  }
  EXPECT_LT(min_rate, 90.0);
}

TEST(TransportTest, GoBackNRecoversFromForcedDrops) {
  ScenarioConfig sc;
  sc.mode = CcMode::kDcqcn;  // no window: overwhelms the tiny buffer
  sc.pfc_enabled = false;
  MiniNet net(sc);
  // Shrink every switch buffer drastically so drops actually happen.
  for (Switch* sw : net.topo.net.switches()) {
    sw->set_buffer_bytes(20'000);
  }
  LaunchFlow(net.topo.net, sc, Spec(net, 3'000'000, 1, 0));
  LaunchFlow(net.topo.net, sc, Spec(net, 3'000'000, 2, 1));
  net.sim.RunUntil(Milliseconds(100));
  EXPECT_GT(net.topo.net.TotalDrops(), 0u);
  // Both flows must still finish, via RTO go-back-N.
  EXPECT_TRUE(net.sender(0)->qp(1)->complete());
  EXPECT_TRUE(net.sender(1)->qp(2)->complete());
}

TEST(TransportTest, AbortStopsFlowSilently) {
  ScenarioConfig sc;
  MiniNet net(sc);
  int completions = 0;
  net.sender(0)->on_flow_complete = [&](const SenderQp&) { ++completions; };
  SenderQp* qp = LaunchFlow(net.topo.net, sc, Spec(net, 100'000'000));
  net.sim.RunUntil(Microseconds(100));
  qp->Abort();
  const std::uint64_t sent = qp->snd_nxt();
  net.sim.RunUntil(Microseconds(300));
  EXPECT_TRUE(qp->complete());
  EXPECT_EQ(qp->snd_nxt(), sent);  // nothing sent after abort
  EXPECT_EQ(completions, 0);      // no completion callback
}

TEST(TransportTest, PausedNicDelaysButDeliversEverything) {
  ScenarioConfig sc;
  sc.pfc_xoff_bytes = 20'000;  // aggressive PFC
  sc.pfc_xon_bytes = 10'000;
  sc.mode = CcMode::kDcqcn;    // rate-based: relies on PFC under burst
  MiniNet net(sc);
  LaunchFlow(net.topo.net, sc, Spec(net, 2'000'000, 1, 0));
  LaunchFlow(net.topo.net, sc, Spec(net, 2'000'000, 2, 1));
  net.sim.RunUntil(Milliseconds(50));
  EXPECT_GT(net.topo.net.TotalPauseFrames(), 0u);
  EXPECT_EQ(net.topo.net.TotalDrops(), 0u);
  EXPECT_TRUE(net.sender(0)->qp(1)->complete());
  EXPECT_TRUE(net.sender(1)->qp(2)->complete());
}

}  // namespace
}  // namespace fncc
