// Dense flow table: slot reuse after release, generation-mismatch
// rejection of stale FlowIds, and an ABA stress loop modeled on the
// event-queue stress in tests/sim/ (random register/release churn with a
// shadow model).
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "../test_util.hpp"
#include "harness/experiment_runner.hpp"
#include "transport/flow_table.hpp"
#include "transport/host.hpp"

namespace fncc {
namespace {

CcConfig TestCcConfig(CcMode mode = CcMode::kFncc) {
  CcConfig cc;
  cc.mode = mode;
  cc.line_rate_gbps = 100.0;
  cc.base_rtt = Microseconds(12);
  return cc;
}

/// A host wired to a sink, plus direct access to its (self-owned) table.
class FlowTableHostTest : public ::testing::Test {
 protected:
  FlowTableHostTest()
      : host_(&sim_, 0, "tx", HostConfig{}), sink_(&sim_, 1, "rx") {
    host_.nic().Connect({&sink_, 0}, 100.0, Nanoseconds(10));
    sink_.nic().Connect({&host_, 0}, 100.0, Nanoseconds(10));
  }

  SenderQp* Launch(std::uint64_t bytes) {
    FlowSpec spec;
    spec.src = 0;
    spec.dst = 1;
    spec.sport = 1000;
    spec.dport = 1001;
    spec.size_bytes = bytes;
    return host_.StartFlow(spec, TestCcConfig());
  }

  Simulator sim_;
  Host host_;
  test::SinkEndpoint sink_;
};

TEST_F(FlowTableHostTest, MintsDenseIdsInRegistrationOrder) {
  // The compatibility guarantee behind bit-identical FCT CSVs: with no
  // releases, minted ids are the dense 1..N the harness used to assign.
  for (FlowId expected = 1; expected <= 5; ++expected) {
    EXPECT_EQ(Launch(1518)->spec().id, expected);
  }
}

TEST_F(FlowTableHostTest, SlotReusedAfterRelease) {
  SenderQp* first = Launch(1518);
  const FlowId first_id = first->spec().id;
  host_.flow_table().Release(first_id);

  SenderQp* second = Launch(1518);
  const FlowId second_id = second->spec().id;
  // Same slot (low bits), new generation (high bits) -> different id.
  EXPECT_EQ(second_id & kFlowSlotMask, first_id & kFlowSlotMask);
  EXPECT_NE(second_id, first_id);
  EXPECT_EQ(FlowIdGeneration(second_id), FlowIdGeneration(first_id) + 1);
  // The table resolves only the new tenant.
  EXPECT_EQ(host_.qp(first_id), nullptr);
  EXPECT_EQ(host_.qp(second_id), second);
}

TEST_F(FlowTableHostTest, StaleAckAndCnpIgnoredAfterReuse) {
  SenderQp* first = Launch(100 * 1518);
  const FlowId stale = first->spec().id;
  sim_.RunUntil(Microseconds(5));  // let it start and send a little
  host_.flow_table().Release(stale);

  SenderQp* second = Launch(100 * 1518);
  sim_.RunUntil(Microseconds(5));
  const std::uint64_t una_before = second->snd_una();

  // A late ACK/CNP addressed to the released flow must not leak into the
  // slot's new tenant: the generation check rejects it.
  PacketPtr ack = test::MakeAck(sim_.packet_pool(), 1, 0, stale);
  ack->seq = 50 * 1518;
  host_.ReceivePacket(std::move(ack), 0);
  PacketPtr cnp = sim_.packet_pool().Acquire();
  cnp->type = PacketType::kCnp;
  cnp->flow = stale;
  cnp->size_bytes = kCnpBytes;
  host_.ReceivePacket(std::move(cnp), 0);

  EXPECT_EQ(second->snd_una(), una_before);
  EXPECT_FALSE(second->complete());
}

TEST_F(FlowTableHostTest, ReleaseForgetsQpAndUndoesReceiverClaim) {
  // Release must keep both ends consistent: the sender's qps() list loses
  // the destroyed QP (no dangling pointer into a recycled slot), and a
  // receiver that counted the flow into N but never saw its last byte
  // un-counts it.
  SenderQp* qp = Launch(100 * 1518);
  const FlowId id = qp->spec().id;
  ASSERT_EQ(host_.qps().size(), 1u);

  // Simulate the receiver half on the same (table-sharing) host: a data
  // packet claims the slot's RecvCtx and bumps active_inbound_flows.
  PacketPtr data = test::MakeData(sim_.packet_pool(), 1, 0, 1518, id);
  host_.ReceivePacket(std::move(data), 0);
  ASSERT_EQ(host_.active_inbound_flows(), 1);

  host_.flow_table().Release(id);
  EXPECT_TRUE(host_.qps().empty());
  EXPECT_EQ(host_.active_inbound_flows(), 0);
}

TEST_F(FlowTableHostTest, StaleDataDroppedNotResurrected) {
  // Late data racing a Release must not resurrect the flow through the
  // overflow map: it would re-claim into N forever (the sender is gone).
  SenderQp* qp = Launch(100 * 1518);
  const FlowId stale = qp->spec().id;
  host_.flow_table().Release(stale);

  PacketPtr data = test::MakeData(sim_.packet_pool(), 1, 0, 1518, stale);
  host_.ReceivePacket(std::move(data), 0);
  sim_.RunUntil(Microseconds(2));
  EXPECT_EQ(host_.active_inbound_flows(), 0);
  EXPECT_EQ(host_.stale_flow_packets(), 1u);
  EXPECT_TRUE(sink_.received.empty());  // no ACK for a dead flow
}

TEST_F(FlowTableHostTest, LateDuplicateOfCompletedFlowDropped) {
  // One settle delay after the sender saw the final ACK, a late go-back-N
  // duplicate is dropped like data of a released flow, so the event
  // stream does not depend on when the harness releases the slot. Before
  // that instant it is re-ACKed as usual.
  sim_.set_settle_delay(Microseconds(1));
  SenderQp* qp = Launch(1518);
  const FlowId id = qp->spec().id;
  sim_.RunUntil(Microseconds(1));  // started: the one packet is sent
  PacketPtr data = test::MakeData(sim_.packet_pool(), 1, 0, 1518, id);
  data->last_of_flow = true;
  host_.ReceivePacket(std::move(data), 0);  // receiver half: done, ACKed
  PacketPtr ack = test::MakeAck(sim_.packet_pool(), 1, 0, id);
  ack->seq = 1518;
  host_.ReceivePacket(std::move(ack), 0);  // sender completes at 1 us
  ASSERT_TRUE(qp->complete());
  const auto send_dup = [&] {
    PacketPtr dup = test::MakeData(sim_.packet_pool(), 1, 0, 1518, id);
    dup->last_of_flow = true;
    host_.ReceivePacket(std::move(dup), 0);
  };

  sim_.RunUntil(Microseconds(1) + Nanoseconds(999));
  std::size_t sent = sink_.received.size();
  send_dup();  // within the settle delay: re-ACKed
  EXPECT_EQ(host_.stale_flow_packets(), 0u);
  sim_.RunUntil(Microseconds(3));
  EXPECT_EQ(sink_.received.size(), sent + 1);

  sent = sink_.received.size();
  send_dup();  // past the settle delay: dropped
  EXPECT_EQ(host_.stale_flow_packets(), 1u);
  sim_.RunUntil(Microseconds(5));
  EXPECT_EQ(sink_.received.size(), sent);  // no re-ACK
}

TEST_F(FlowTableHostTest, ReleaseIsIdempotentOnStaleIds) {
  SenderQp* qp = Launch(1518);
  const FlowId id = qp->spec().id;
  host_.flow_table().Release(id);
  const std::size_t live = host_.flow_table().live_flows();
  host_.flow_table().Release(id);  // stale now: must be a no-op
  EXPECT_EQ(host_.flow_table().live_flows(), live);
}

TEST_F(FlowTableHostTest, ReleaseCancelsPendingStart) {
  // A flow released before its scheduled start must never fire Start()
  // on the recycled slot.
  FlowSpec spec;
  spec.src = 0;
  spec.dst = 1;
  spec.sport = 1000;
  spec.dport = 1001;
  spec.size_bytes = 10 * 1518;
  spec.start_time = Microseconds(100);
  SenderQp* qp = host_.StartFlow(spec, TestCcConfig());
  host_.flow_table().Release(qp->spec().id);
  SenderQp* next = Launch(10 * 1518);  // reuses the slot
  sim_.RunUntil(Milliseconds(1));
  EXPECT_TRUE(next->complete() || next->started());
  EXPECT_EQ(sink_.received.empty(), false);
}

TEST(FlowTableTest, GenerationWrapAliasesAfterHorizon) {
  // Documents the accepted ABA horizon: the 12-bit generation wraps after
  // 4096 release/register cycles of one slot, at which point the original
  // id aliases the slot's current tenant again.
  Simulator sim;
  FlowTable table;
  Host host(&sim, 0, "tx", HostConfig{}, nullptr);

  FlowSpec spec;
  spec.src = 0;
  spec.dst = 1;
  spec.size_bytes = 1518;
  spec.start_time = kTimeInfinity;  // never starts: pure table churn

  FlowTable& t = host.flow_table();
  const FlowId first = t.Register(&host, spec, TestCcConfig())->spec().id;
  // kFlowGenMask + 1 = 4096 release/register cycles walk the generation
  // counter all the way around.
  for (int cycle = 0; cycle < static_cast<int>(kFlowGenMask) + 1; ++cycle) {
    t.Release(t.Lookup(first) != nullptr
                  ? first  // only the final cycle resolves `first` again
                  : MakeFlowId(0, static_cast<std::uint32_t>(cycle)));
    t.Register(&host, spec, TestCcConfig());
  }
  // 4096 generations later the counter wrapped to 0: `first` resolves.
  EXPECT_NE(t.Lookup(first), nullptr);
}

TEST(FlowTableTest, InternsResolvedConfigsByValue) {
  // Register resolves each config before pooling it: value-identical flows
  // share one pooled address, a different eta gets its own, and the pooled
  // copy already holds the derived constants the algorithms read.
  for (CcMode mode : {CcMode::kHpcc, CcMode::kFncc, CcMode::kTimely}) {
    SCOPED_TRACE(CcModeName(mode));
    Simulator sim;
    Host host(&sim, 0, "tx", HostConfig{}, nullptr);
    FlowTable& table = host.flow_table();
    FlowSpec spec;
    spec.src = 0;
    spec.dst = 1;
    spec.size_bytes = 1518;
    spec.start_time = kTimeInfinity;  // pure table churn, no traffic

    const CcConfig config = TestCcConfig(mode);  // Timely thresholds: auto
    CcConfig other_eta = config;
    other_eta.eta = 0.9;
    const CcConfig& a = table.Register(&host, spec, config)->cc().config();
    const CcConfig& b = table.Register(&host, spec, config)->cc().config();
    const CcConfig& c = table.Register(&host, spec, other_eta)->cc().config();
    EXPECT_EQ(&a, &b);
    EXPECT_NE(&a, &c);
    EXPECT_EQ(table.interned_configs(), 2u);

    EXPECT_EQ(a, ResolveCcConfig(config));
    if (mode == CcMode::kTimely) {
      EXPECT_EQ(a.timely.min_rtt, Microseconds(12));
      EXPECT_EQ(a.timely.t_low, Microseconds(18));
      EXPECT_EQ(a.timely.t_high, Microseconds(60));
    } else {
      EXPECT_DOUBLE_EQ(a.hpcc_derived.t_sec, 12e-6);
      EXPECT_NEAR(a.hpcc_derived.max_window_bytes, 150'000.0, 1e-6);
      EXPECT_NEAR(a.hpcc_derived.wai_bytes, 150'000.0 * 0.05 / 4.0, 1e-6);
      EXPECT_NEAR(c.hpcc_derived.wai_bytes, 150'000.0 * 0.1 / 4.0, 1e-6);
    }
  }
}

TEST(FlowTableTest, AbaStressRandomChurn) {
  // Modeled on the event-queue ABA stress: random register/release churn
  // with a shadow map. Every live id must resolve to its own QP; every
  // released (stale) id must resolve to nothing, even after its slot was
  // re-registered arbitrarily often.
  Simulator sim;
  Host host(&sim, 0, "tx", HostConfig{}, nullptr);
  FlowTable& table = host.flow_table();

  FlowSpec spec;
  spec.src = 0;
  spec.dst = 1;
  spec.size_bytes = 1518;
  spec.start_time = kTimeInfinity;  // pure table churn, no traffic

  std::unordered_map<FlowId, SenderQp*> live;
  std::vector<FlowId> stale;
  std::uint64_t lcg = 12345;
  const auto next_rand = [&lcg] {
    lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
    return static_cast<std::uint32_t>(lcg >> 33);
  };

  for (int step = 0; step < 20'000; ++step) {
    const bool do_release = !live.empty() && next_rand() % 3 == 0;
    if (do_release) {
      auto it = live.begin();
      std::advance(it, next_rand() % live.size());
      table.Release(it->first);
      stale.push_back(it->first);
      live.erase(it);
    } else {
      SenderQp* qp = table.Register(&host, spec, TestCcConfig());
      const FlowId id = qp->spec().id;
      ASSERT_EQ(live.count(id), 0u) << "minted id collides with a live one";
      live.emplace(id, qp);
    }
  }

  EXPECT_EQ(table.live_flows(), live.size());
  for (const auto& [id, qp] : live) {
    FlowSlot* slot = table.Lookup(id);
    ASSERT_NE(slot, nullptr);
    EXPECT_EQ(slot->qp(), qp);
    EXPECT_EQ(slot->qp()->spec().id, id);
  }
  // Spot-check the stale set (all of it: lookups are cheap).
  for (FlowId id : stale) {
    EXPECT_EQ(table.Lookup(id), nullptr) << "stale id resolved: " << id;
  }
}

TEST(FlowTableTest, HotRowStaysCoherentThroughChurn) {
  // The SoA coherence contract of transport/hot_flow.hpp: after arbitrary
  // Register/Release churn, every live id's hot row mirrors its cold slot
  // (same generation, same QP, the tenant's mode/src/size), every stale id
  // fails HotLookup exactly as it fails Lookup, and a released slot's row
  // carries qp == nullptr so a matching-generation id minted later but not
  // yet registered still reads as "drop".
  Simulator sim;
  Host host(&sim, 0, "tx", HostConfig{}, nullptr);
  FlowTable& table = host.flow_table();

  FlowSpec spec;
  spec.src = 0;
  spec.dst = 1;
  spec.size_bytes = 1518;
  spec.start_time = kTimeInfinity;  // pure table churn, no traffic

  const CcMode modes[] = {CcMode::kFncc, CcMode::kSwift, CcMode::kDcqcn};
  std::unordered_map<FlowId, CcMode> live;
  std::vector<FlowId> stale;
  std::uint64_t lcg = 98765;
  const auto next_rand = [&lcg] {
    lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
    return static_cast<std::uint32_t>(lcg >> 33);
  };

  for (int step = 0; step < 5'000; ++step) {
    if (!live.empty() && next_rand() % 3 == 0) {
      auto it = live.begin();
      std::advance(it, next_rand() % live.size());
      const FlowId released = it->first;
      table.Release(released);
      stale.push_back(released);
      live.erase(it);
      // Immediately after Release the slot's bumped-generation row exists
      // but has no tenant: HotLookup resolves it and reports qp == nullptr.
      const std::uint32_t slot = FlowTable::SlotIndex(released) - 1;
      const std::uint32_t next_gen =
          (FlowIdGeneration(released) + 1) & kFlowGenMask;
      HotFlowRow* vacant = table.HotLookup(MakeFlowId(slot, next_gen));
      ASSERT_NE(vacant, nullptr);
      EXPECT_EQ(vacant->qp, nullptr);
      EXPECT_EQ(vacant->generation, next_gen);
    } else {
      const CcMode mode = modes[next_rand() % 3];
      SenderQp* qp = table.Register(&host, spec, TestCcConfig(mode));
      live.emplace(qp->spec().id, mode);
    }
  }

  for (const auto& [id, mode] : live) {
    FlowSlot* slot = table.Lookup(id);
    HotFlowRow* row = table.HotLookup(id);
    ASSERT_NE(slot, nullptr);
    ASSERT_NE(row, nullptr);
    EXPECT_EQ(row->generation, slot->generation);
    EXPECT_EQ(row->generation, FlowIdGeneration(id));
    EXPECT_EQ(row->qp, slot->qp());
    EXPECT_EQ(row->qp->cc().mode(), mode);
    EXPECT_EQ(row->src, slot->qp()->spec().src);
    EXPECT_EQ(row->size_bytes, spec.size_bytes);
  }
  for (FlowId id : stale) {
    // Stale ids that were not re-minted fail both views identically; a
    // re-minted id (generation wrapped back around) resolves both.
    EXPECT_EQ(table.HotLookup(id) == nullptr, table.Lookup(id) == nullptr)
        << "hot/cold staleness disagree for id " << id;
  }
}

TEST_F(FlowTableHostTest, StaleAckNeverTouchesHotRow) {
  // A stale-generation ACK/CNP must not read or write one byte of the
  // slot's recycled hot row: snapshot the new tenant's row, deliver stale
  // traffic, and require the row bit-identical (doubles compared as bit
  // patterns — even a rewrite of the same value would pass, but a CC
  // update through the stale id cannot produce one here because the row
  // mid-flight state makes any touch observable).
  SenderQp* first = Launch(100 * 1518);
  const FlowId stale = first->spec().id;
  sim_.RunUntil(Microseconds(5));  // let it progress: non-trivial row state
  host_.flow_table().Release(stale);

  SenderQp* second = Launch(100 * 1518);
  sim_.RunUntil(Microseconds(5));
  const FlowId fresh = second->spec().id;
  HotFlowRow* row = host_.flow_table().HotLookup(fresh);
  ASSERT_NE(row, nullptr);
  const HotFlowRow snapshot = *row;

  PacketPtr ack = test::MakeAck(sim_.packet_pool(), 1, 0, stale);
  ack->seq = 50 * 1518;
  host_.ReceivePacket(std::move(ack), 0);
  PacketPtr cnp = sim_.packet_pool().Acquire();
  cnp->type = PacketType::kCnp;
  cnp->flow = stale;
  cnp->size_bytes = kCnpBytes;
  host_.ReceivePacket(std::move(cnp), 0);

  EXPECT_EQ(row->generation, snapshot.generation);
  EXPECT_EQ(row->flags, snapshot.flags);
  EXPECT_EQ(row->src, snapshot.src);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(row->words.rate_gbps),
            std::bit_cast<std::uint64_t>(snapshot.words.rate_gbps));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(row->words.window_bytes),
            std::bit_cast<std::uint64_t>(snapshot.words.window_bytes));
  EXPECT_EQ(row->snd_nxt, snapshot.snd_nxt);
  EXPECT_EQ(row->snd_una, snapshot.snd_una);
  EXPECT_EQ(row->size_bytes, snapshot.size_bytes);
  EXPECT_EQ(row->qp, snapshot.qp);
}

TEST(FlowTableBatchTest, DeliveryBatchSizesBitIdenticalFcts) {
  // The batching invariant: net/egress_port's host-bound delivery batch is
  // a pure cache-warming lookahead — batch formation never reorders the
  // (time, seq) event stream, so every batch size yields bit-identical
  // simulation results. Compared on a fat-tree run's FCT records (the
  // figures' raw material) plus the event/counter totals.
  const auto run = [](int batch) {
    ExperimentSpec spec;
    spec.topology = "fat_tree";
    spec.topo.k = 4;
    spec.workload = "poisson";
    spec.wl.num_flows = 24;
    spec.wl.load = 0.5;
    spec.cdf = "web_search";
    spec.scenario.mode = CcMode::kFncc;
    spec.scenario.delivery_batch = batch;
    spec.run.duration = 0;
    return RunExperimentPoint(spec);
  };

  const ExperimentPointResult reference = run(1);  // batch=1: no lookahead at all
  ASSERT_GT(reference.fct.count(), 0u);
  for (int batch : {4, 64}) {
    SCOPED_TRACE("delivery_batch=" + std::to_string(batch));
    const ExperimentPointResult other = run(batch);
    EXPECT_EQ(other.flows_completed, reference.flows_completed);
    EXPECT_EQ(other.events_processed, reference.events_processed);
    EXPECT_EQ(other.pause_frames, reference.pause_frames);
    EXPECT_EQ(other.drops, reference.drops);
    ASSERT_EQ(other.fct.count(), reference.fct.count());
    for (std::size_t f = 0; f < reference.fct.count(); ++f) {
      const FlowResult& a = reference.fct.results()[f];
      const FlowResult& b = other.fct.results()[f];
      EXPECT_EQ(b.spec.id, a.spec.id) << "flow " << f;
      EXPECT_EQ(b.fct, a.fct) << "flow " << f;
      EXPECT_EQ(std::bit_cast<std::uint64_t>(b.slowdown),
                std::bit_cast<std::uint64_t>(a.slowdown))
          << "flow " << f;
    }
  }
}

TEST(FlowTableTest, SharedTableResolvesAcrossHosts) {
  // The fabric-sharing contract: the id minted at the sender's StartFlow
  // resolves at any host holding the same table (the receiver indexes the
  // same slot for its RecvCtx).
  Simulator sim;
  auto table = std::make_shared<FlowTable>();
  Host a(&sim, 0, "a", HostConfig{}, table);
  Host b(&sim, 1, "b", HostConfig{}, table);
  test::SinkEndpoint sink_a(&sim, 2, "sa"), sink_b(&sim, 3, "sb");
  a.nic().Connect({&sink_a, 0}, 100.0, Nanoseconds(10));
  sink_a.nic().Connect({&a, 0}, 100.0, Nanoseconds(10));
  b.nic().Connect({&sink_b, 0}, 100.0, Nanoseconds(10));
  sink_b.nic().Connect({&b, 0}, 100.0, Nanoseconds(10));

  FlowSpec spec;
  spec.src = 0;
  spec.dst = 1;
  spec.size_bytes = 1518;
  SenderQp* qp = a.StartFlow(spec, TestCcConfig());
  const FlowId id = qp->spec().id;

  // Owner host resolves its QP; the other host sees the slot but not the
  // QP (it is not the flow's source).
  EXPECT_EQ(a.qp(id), qp);
  EXPECT_EQ(b.qp(id), nullptr);
  EXPECT_NE(b.flow_table().Lookup(id), nullptr);
  EXPECT_EQ(b.flow_table_ptr().get(), a.flow_table_ptr().get());
}

}  // namespace
}  // namespace fncc
