#include "net/packet_pool.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdlib>
#include <new>
#include <random>
#include <stdexcept>
#include <vector>

#include "harness/experiment_runner.hpp"
#include "harness/experiment_spec.hpp"
#include "net/switch.hpp"
#include "sim/simulator.hpp"

// Heap-allocation counter for the zero-allocation checks below: every
// operator new in this test binary goes through here and is counted.
namespace {
std::atomic<std::uint64_t> g_heap_allocs{0};
}  // namespace

void* operator new(std::size_t size) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace fncc {
namespace {

TEST(PacketPoolTest, AcquireGivesDefaultPacketOwnedByThePool) {
  PacketPool pool;
  PacketPtr a = pool.Acquire();
  PacketPtr b = pool.Acquire();
  EXPECT_EQ(a->pool, &pool);
  EXPECT_NE(a.get(), b.get());
  EXPECT_EQ(a->type, PacketType::kData);
  EXPECT_TRUE(a->int_stack().empty());
  EXPECT_EQ(pool.total_created(), 2u);
  EXPECT_EQ(pool.outstanding(), 2u);
}

TEST(PacketPoolTest, RecycledPacketIsIndistinguishableFromFresh) {
  PacketPool pool;
  Packet* first_addr = nullptr;
  {
    PacketPtr p = pool.Acquire();
    first_addr = p.get();
    // Dirty every field a stale reuse could leak.
    p->type = PacketType::kAck;
    p->flow = 7;
    p->ecn_ce = true;
    p->path_id = 0xABC;
    p->req_path_id = 0xDEF;
    p->int_reversed = true;
    p->concurrent_flows = 9;
    p->rocc_rate_gbps = 50.0;
    p->last_of_flow = true;
    p->src = 1;
    p->dst = 2;
    p->sport = 3;
    p->dport = 4;
    p->seq = 5;
    p->size_bytes = 6;
    p->payload_bytes = 7;
    p->t_sent = 8;
    p->ingress_port = 9;
    for (int i = 0; i < 5; ++i) {
      p->PushInt(IntEntry{100.0, 123, 456, 789});
    }
  }  // returns to the pool

  PacketPtr q = pool.Acquire();
  EXPECT_EQ(q.get(), first_addr) << "free list should recycle the packet";
  EXPECT_EQ(pool.total_created(), 1u);
  // No telemetry or header state leaks across the reuse.
  EXPECT_TRUE(q->int_stack().empty());
  EXPECT_EQ(q->type, PacketType::kData);
  EXPECT_EQ(q->flow, 0u);
  EXPECT_FALSE(q->ecn_ce);
  EXPECT_FALSE(q->int_reversed);
  EXPECT_FALSE(q->last_of_flow);
  EXPECT_EQ(q->path_id, 0);
  EXPECT_EQ(q->req_path_id, 0);
  EXPECT_EQ(q->concurrent_flows, 0);
  EXPECT_EQ(q->rocc_rate_gbps, 0.0);
  EXPECT_EQ(q->src, kInvalidNode);
  EXPECT_EQ(q->dst, kInvalidNode);
  EXPECT_EQ(q->sport, 0);
  EXPECT_EQ(q->dport, 0);
  EXPECT_EQ(q->seq, 0u);
  EXPECT_EQ(q->size_bytes, 0u);
  EXPECT_EQ(q->payload_bytes, 0u);
  EXPECT_EQ(q->t_sent, 0);
  EXPECT_EQ(q->ingress_port, 0);
}

TEST(PacketPoolTest, CopyFromCopiesTheHeaderAndKeepsItsOwnPool) {
  // The cross-lane handoff: a packet of one pool is re-made in another.
  PacketPool src_pool;
  PacketPool dst_pool;
  PacketPtr src = src_pool.Acquire();
  src->type = PacketType::kAck;
  src->flow = 3;
  src->seq = 1'000'000;
  src->PushInt(IntEntry{400.0, 1, 2, 3});
  src->int_reversed = true;

  PacketPtr copy = dst_pool.Acquire();
  copy->CopyFrom(*src, src->int_stack().data());
  EXPECT_EQ(copy->pool, &dst_pool);
  EXPECT_EQ(dst_pool.int_blocks_outstanding(), 1u);
  EXPECT_EQ(copy->type, PacketType::kAck);
  EXPECT_EQ(copy->flow, 3u);
  EXPECT_EQ(copy->seq, 1'000'000u);
  EXPECT_TRUE(copy->int_reversed);
  ASSERT_EQ(copy->int_stack().size(), 1u);
  EXPECT_EQ(copy->int_stack()[0], (IntEntry{400.0, 1, 2, 3}));
}

TEST(PacketPoolTest, PoolSizeStaysBoundedUnderLongRun) {
  // 100k acquires with at most kDepth outstanding: the arena must stay at
  // its high-water mark, i.e. steady-state traffic allocates nothing.
  PacketPool pool;
  constexpr std::size_t kDepth = 32;
  std::mt19937 rng(7);
  std::vector<PacketPtr> inflight;
  for (int i = 0; i < 100'000; ++i) {
    if (inflight.size() < kDepth && (inflight.empty() || rng() % 2 == 0)) {
      inflight.push_back(pool.Acquire());
    } else {
      const std::size_t victim = rng() % inflight.size();
      std::swap(inflight[victim], inflight.back());
      inflight.pop_back();
    }
  }
  EXPECT_LE(pool.total_created(), kDepth);
  EXPECT_GE(pool.acquires(), 10'000u);
  EXPECT_EQ(pool.outstanding(), inflight.size());
  inflight.clear();
  EXPECT_EQ(pool.outstanding(), 0u);
  EXPECT_EQ(pool.free_count(), pool.total_created());
}

TEST(PacketPoolTest, SlabGrowthCountsExactlyTheHighWaterMark) {
  // Packets are carved from slabs of many packets, but total_created()
  // counts the packets carved, never the slab's spare room.
  PacketPool pool;
  std::vector<PacketPtr> live;
  for (int i = 0; i < 300; ++i) live.push_back(pool.Acquire());
  EXPECT_EQ(pool.total_created(), 300u);
  EXPECT_EQ(pool.outstanding(), 300u);
  std::vector<Packet*> addrs;
  for (const PacketPtr& p : live) addrs.push_back(p.get());
  std::sort(addrs.begin(), addrs.end());
  EXPECT_EQ(std::adjacent_find(addrs.begin(), addrs.end()), addrs.end())
      << "two loans share one packet";
  live.clear();
  EXPECT_EQ(pool.free_count(), 300u);
  for (int i = 0; i < 300; ++i) live.push_back(pool.Acquire());
  EXPECT_EQ(pool.total_created(), 300u) << "the free list is used first";
  live.push_back(pool.Acquire());
  EXPECT_EQ(pool.total_created(), 301u);
  EXPECT_EQ(pool.recycles(), 300u);
}

TEST(PacketPoolTest, ReleaseNeverAllocates) {
  // Release runs in a noexcept deleter: returning packets (and their INT
  // blocks) must not touch the heap, however many come back at once.
  PacketPool pool;
  std::vector<PacketPtr> live;
  for (int i = 0; i < 1000; ++i) {
    live.push_back(pool.Acquire());
    if (i % 3 == 0) live.back()->PushInt(IntEntry{1.0, i, 2, 3});
  }
  const std::uint64_t before = g_heap_allocs.load();
  for (PacketPtr& p : live) p.reset();
  EXPECT_EQ(g_heap_allocs.load() - before, 0u);
  EXPECT_EQ(pool.free_count(), 1000u);
  EXPECT_EQ(pool.int_blocks_outstanding(), 0u);
}

TEST(PacketPoolTest, SimulatorOwnsAPerRunPool) {
  Simulator sim_a;
  Simulator sim_b;
  EXPECT_NE(&sim_a.packet_pool(), &sim_b.packet_pool());
  PacketPtr p = sim_a.packet_pool().Acquire();
  EXPECT_EQ(sim_a.packet_pool().outstanding(), 1u);
  EXPECT_EQ(sim_b.packet_pool().outstanding(), 0u);
  p.reset();
  EXPECT_EQ(sim_a.packet_pool().outstanding(), 0u);
  EXPECT_EQ(sim_a.packet_pool().free_count(), 1u);
}

TEST(PacketPoolTest, PacketsHeldInScheduledEventsDrainSafely) {
  // Packets held by never-run events must flow back into the pool through
  // the events' drop hooks when the queue is destroyed before the pool
  // (Simulator member order).
  Simulator sim;
  const TypedEvent::Fn release = [](void*, void* pkt, std::uint64_t) {
    WrapRawPacket(static_cast<Packet*>(pkt));
  };
  for (int i = 0; i < 8; ++i) {
    sim.Schedule(1000,
                 TypedEvent{.run = release,
                            .drop = release,
                            .p0 = nullptr,
                            .p1 = ReleaseToRaw(sim.packet_pool().Acquire()),
                            .arg = 0});
  }
  EXPECT_EQ(sim.packet_pool().outstanding(), 8u);
  // Destroying `sim` at scope exit must not trip the pool's
  // all-packets-returned assertion.
}

// ---------------------------------------------------------------- INT blocks

constexpr IntEntry kHop{100.0, 123, 456, 789};

TEST(PacketPoolIntTest, ReleasedPacketReturnsItsBlock) {
  PacketPool pool;
  PacketPtr plain = pool.Acquire();
  EXPECT_EQ(pool.int_blocks_created(), 0u) << "no INT, no block";
  {
    PacketPtr p = pool.Acquire();
    p->PushInt(kHop);
    p->PushInt(kHop);  // the second hop reuses the packet's block
    EXPECT_EQ(pool.int_blocks_outstanding(), 1u);
  }
  EXPECT_EQ(pool.int_blocks_outstanding(), 0u);
  EXPECT_EQ(pool.int_blocks_created(), 1u);
  for (int i = 0; i < 1000; ++i) {
    PacketPtr p = pool.Acquire();
    p->PushInt(kHop);
  }
  EXPECT_EQ(pool.int_blocks_created(), 1u) << "blocks are recycled";
  EXPECT_EQ(pool.int_blocks_outstanding(), 0u);
}

TEST(PacketPoolIntTest, RecycledPacketHasAnEmptyIntStack) {
  PacketPool pool;
  Packet* addr = nullptr;
  {
    PacketPtr p = pool.Acquire();
    addr = p.get();
    for (int i = 0; i < kMaxIntHops; ++i) p->PushInt(kHop);
    EXPECT_TRUE(p->int_full());
  }
  PacketPtr q = pool.Acquire();
  ASSERT_EQ(q.get(), addr);
  EXPECT_TRUE(q->int_stack().empty());
  EXPECT_FALSE(q->int_full());
  EXPECT_EQ(pool.int_blocks_outstanding(), 0u);
  q->PushInt(IntEntry{1.0, 2, 3, 4});  // a fresh stack, one entry deep
  ASSERT_EQ(q->int_stack().size(), 1u);
  EXPECT_EQ(q->int_stack()[0], (IntEntry{1.0, 2, 3, 4}));
}

TEST(PacketPoolIntTest, CopyFromDeepCopiesExactlyTheLiveEntries) {
  PacketPool pool;
  // Leave a stale full stack in the block `src` will reuse (the block free
  // list is LIFO), so entries past src's size hold markers.
  constexpr IntEntry kStale{-1.0, -1, 1, 1};
  {
    PacketPtr old = pool.Acquire();
    for (int i = 0; i < kMaxIntHops; ++i) old->PushInt(kStale);
  }
  PacketPtr src = pool.Acquire();
  const IntEntry hops[] = {{100.0, 1, 2, 3}, {200.0, 4, 5, 6},
                           {400.0, 7, 8, 9}};
  for (const IntEntry& h : hops) src->PushInt(h);
  src->int_reversed = true;
  ASSERT_EQ(src->int_stack().data()[3], kStale);

  PacketPtr copy = pool.Acquire();
  copy->CopyFrom(*src, src->int_stack().data());
  ASSERT_EQ(copy->int_stack().size(), 3u);
  EXPECT_NE(copy->int_stack().data(), src->int_stack().data())
      << "the copy owns its own block";
  EXPECT_TRUE(copy->int_reversed);
  for (std::size_t i = 0; i < 3; ++i) EXPECT_EQ(copy->int_stack()[i], hops[i]);
  // Only the live entries moved: the copy's (fresh) block past its size
  // holds no stale marker from src's block.
  const IntEntry* block = copy->int_stack().data();
  for (int i = 3; i < kMaxIntHops; ++i) EXPECT_EQ(block[i], IntEntry{}) << i;
  EXPECT_EQ(pool.int_blocks_outstanding(), 2u);

  src.reset();  // the source's block goes back; the copy's entries stay
  EXPECT_EQ(pool.int_blocks_outstanding(), 1u);
  for (std::size_t i = 0; i < 3; ++i) EXPECT_EQ(copy->int_stack()[i], hops[i]);
  copy->PushInt(kHop);  // the copy grows independently
  EXPECT_EQ(copy->int_stack().size(), 4u);

  PacketPtr bare = pool.Acquire();
  bare->CopyFrom(*pool.Acquire(), nullptr);
  EXPECT_TRUE(bare->int_stack().empty());
  EXPECT_EQ(pool.int_blocks_outstanding(), 1u) << "no INT, no block";
}

/// Drops every delivery (a receiver that reclaims without storing).
class DropSink final : public Endpoint {
 public:
  DropSink(Simulator* sim, NodeId id) : Endpoint(sim, id, "drop"), nic_(sim) {}
  EgressPort& nic() override { return nic_; }
  void ReceivePacket(PacketPtr, int) override {}

 private:
  EgressPort nic_;
};

/// Feeds bursts of ACKs through a two-port switch and returns the heap
/// allocations of 20 bursts after a warm-up burst. With `stamp`, the ACKs
/// arrive carrying 4 upstream INT hops and the switch stamps one more
/// (FNCC); without, no packet carries INT. INT adds no wire bytes here
/// (int_bytes_per_hop = 0), so both variants schedule the identical event
/// sequence and any difference in allocations is the INT path's.
std::uint64_t SteadyAllocsForwardingAcks(bool stamp) {
  Simulator sim;
  Rng rng(1);
  SwitchConfig config;
  config.num_ports = 2;
  config.stamp_ack_int = stamp;
  config.int_bytes_per_hop = 0;
  Switch sw(&sim, 0, "sw", config, &rng);
  DropSink a(&sim, 1), b(&sim, 2);
  sw.port(0).Connect({&a, 0}, 100.0, Nanoseconds(100));
  a.nic().Connect({&sw, 0}, 100.0, Nanoseconds(100));
  sw.port(1).Connect({&b, 0}, 100.0, Nanoseconds(100));
  b.nic().Connect({&sw, 1}, 100.0, Nanoseconds(100));
  sw.routing().Resize(3);
  sw.routing().SetNextHops(1, std::array{0});
  sw.routing().SetNextHops(2, std::array{1});
  PacketPool& pool = sim.packet_pool();

  const auto burst = [&] {
    for (int i = 0; i < 64; ++i) {
      PacketPtr ack = pool.Acquire();
      ack->type = PacketType::kAck;
      ack->src = 2;
      ack->dst = 1;
      ack->size_bytes = kAckBytes;
      if (stamp) {
        for (int h = 0; h < 4; ++h) ack->PushInt(kHop);
      }
      sw.ReceivePacket(std::move(ack), 1);
    }
    sim.RunUntil(sim.Now() + Microseconds(50));
  };
  burst();  // warm-up: packets, INT blocks, queue slots
  EXPECT_EQ(pool.int_blocks_created() > 0, stamp);
  const std::size_t packets = pool.total_created();
  const std::size_t blocks = pool.int_blocks_created();
  const std::uint64_t before = g_heap_allocs.load();
  for (int round = 0; round < 20; ++round) burst();
  const std::uint64_t allocs = g_heap_allocs.load() - before;
  EXPECT_EQ(pool.total_created(), packets);
  EXPECT_EQ(pool.int_blocks_created(), blocks);
  EXPECT_EQ(pool.int_blocks_outstanding(), 0u);
  return allocs;
}

TEST(PacketPoolIntTest, StampingFnccAcksAllocatesNothingOnceWarm) {
  // After one warm-up burst every arena is at its high-water mark: the
  // packet and INT-block free lists, the event queue's slots, the wheel's
  // chunk free list and its drain. The bursts after it allocate nothing,
  // with INT stamping or without.
  EXPECT_EQ(SteadyAllocsForwardingAcks(/*stamp=*/true), 0u);
  EXPECT_EQ(SteadyAllocsForwardingAcks(/*stamp=*/false), 0u);
}

// ------------------------------------------------------- INT block sizing

TEST(PacketPoolIntTest, BlockSizeIsFixedOnceABlockIsCarved) {
  PacketPool pool;
  EXPECT_EQ(pool.int_block_hops(), kMaxIntHops);
  pool.set_int_block_hops(3);
  PacketPtr a = pool.Acquire();
  PacketPtr b = pool.Acquire();
  for (int i = 0; i < 3; ++i) {
    a->PushInt(IntEntry{1.0, i, 0, 0});
    b->PushInt(IntEntry{2.0, i, 0, 0});
  }
  EXPECT_TRUE(a->int_full());
  // Adjacent blocks of one slab do not overlap at the smaller size.
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(a->int_stack()[i], (IntEntry{1.0, i, 0, 0}));
    EXPECT_EQ(b->int_stack()[i], (IntEntry{2.0, i, 0, 0}));
  }
  EXPECT_THROW(pool.set_int_block_hops(4), std::logic_error);
  EXPECT_EQ(pool.int_block_hops(), 3);
  EXPECT_NO_THROW(pool.set_int_block_hops(3)) << "an unchanged size is fine";
}

ExperimentPointResult ShortDumbbellPoint(CcMode mode) {
  ExperimentSpec spec;  // two elephants on the default dumbbell
  spec.scenario.mode = mode;
  spec.run.duration = Microseconds(100);
  spec.run.monitor = false;
  return RunExperimentPoint(spec);
}

TEST(PacketPoolIntTest, OnlyIntCarryingModesAllocateBlocks) {
  const ExperimentPointResult dcqcn = ShortDumbbellPoint(CcMode::kDcqcn);
  EXPECT_GT(dcqcn.pool_packets_created, 0u);
  EXPECT_EQ(dcqcn.pool_int_blocks_created, 0u);
  const ExperimentPointResult fncc = ShortDumbbellPoint(CcMode::kFncc);
  EXPECT_GT(fncc.pool_int_blocks_created, 0u);
  // FNCC stamps only ACKs: far fewer blocks than packets.
  EXPECT_LT(fncc.pool_int_blocks_created, fncc.pool_packets_created);
}

}  // namespace
}  // namespace fncc
