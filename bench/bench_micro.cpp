// Micro-benchmarks (google-benchmark): throughput of the simulator's hot
// paths — event queue (wheel + heap hybrid vs. the legacy hash-set
// implementation), packet pool vs. make_unique, ECMP hashing, switch
// pipeline, HPCC/FNCC ACK processing, and end-to-end packets/second on the
// dumbbell. `run_benches.sh` captures the output as BENCH_micro.json.
#include <benchmark/benchmark.h>

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "cc/hpcc.hpp"
#include "core/fncc.hpp"
#include "harness/experiment_runner.hpp"
#include "harness/experiment_spec.hpp"
#include "legacy_event_queue.hpp"
#include "legacy_host_path.hpp"
#include "net/packet_pool.hpp"
#include "net/routing.hpp"
#include "net/switch.hpp"
#include "net/topology.hpp"
#include "sim/event_queue.hpp"
#include "stats/fct_sink.hpp"
#include "transport/host.hpp"

namespace fncc {
namespace {

// -------------------------------------------------------------- event queue
// Schedule/run churn: each queue sees the same pseudo-random timestamps. The
// legacy baseline is the pre-refactor hash-set + heap-allocating-callback
// implementation (bench/legacy_event_queue.hpp); the acceptance target for
// the refactor is >= 1.3x its events/sec. Each side schedules its own
// no-op payload: a TypedEvent here, a closure there.

void NoopEvent(void* /*p0*/, void* /*p1*/, std::uint64_t /*arg*/) {}
constexpr TypedEvent kNoop{.run = &NoopEvent};

template <typename Queue, typename Event>
void EventQueueScheduleRunLoop(benchmark::State& state, const Event& ev) {
  const int batch = static_cast<int>(state.range(0));
  for (auto _ : state) {
    Queue q;
    for (int i = 0; i < batch; ++i) {
      q.Schedule((i * 7919) % 1000, ev);
    }
    while (!q.Empty()) {
      Time t = 0;
      q.PopNext(&t)();
    }
  }
  state.SetItemsProcessed(state.iterations() * batch);
}

void BM_EventQueueScheduleRun(benchmark::State& state) {
  EventQueueScheduleRunLoop<EventQueue>(state, kNoop);
}
BENCHMARK(BM_EventQueueScheduleRun)->Arg(64)->Arg(1024)->Arg(16384);

// The same churn on one queue kept across iterations, which is how a
// simulator uses its queue: the wheel's chunk free list, its drain and
// the overflow heap stay warm, so only the cold bench above pays for their
// growth.
// Timestamps are offset from the queue's current time. Not gated.
void BM_EventQueueWarmScheduleRun(benchmark::State& state) {
  const int batch = static_cast<int>(state.range(0));
  EventQueue q;
  Time now = 0;
  for (auto _ : state) {
    for (int i = 0; i < batch; ++i) {
      q.Schedule(now + (i * 7919) % 1000, kNoop);
    }
    while (!q.Empty()) q.PopNext(&now)();
  }
  state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_EventQueueWarmScheduleRun)->Arg(64)->Arg(1024)->Arg(16384);

void BM_LegacyEventQueueScheduleRun(benchmark::State& state) {
  EventQueueScheduleRunLoop<bench::LegacyEventQueue>(state, [] {});
}
BENCHMARK(BM_LegacyEventQueueScheduleRun)->Arg(64)->Arg(1024)->Arg(16384);

// ------------------------------------------------------------- packet pool

void BM_PacketPoolAcquireRelease(benchmark::State& state) {
  // Steady-state packet service: acquire, touch, release. After the first
  // iteration warms the pool, the heap-allocation counter must stay flat —
  // asserted by the steady_heap_allocs counter reading 0.
  PacketPool pool;
  { PacketPtr warm = pool.Acquire(); }
  const std::size_t created_after_warmup = pool.total_created();
  for (auto _ : state) {
    PacketPtr p = pool.Acquire();
    p->size_bytes = kDefaultMtuBytes;
    benchmark::DoNotOptimize(p.get());
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["steady_heap_allocs"] = static_cast<double>(
      pool.total_created() - created_after_warmup);
}
BENCHMARK(BM_PacketPoolAcquireRelease);

void BM_PacketPoolIntAck(benchmark::State& state) {
  // The per-ACK INT cost on top of the plain acquire/release above: an
  // FNCC ACK crossing a 3-level fat-tree path gets 5 hops stamped, which
  // takes an INT block from the pool on the first hop and returns it with
  // the packet. Not gated; steady_heap_allocs covers packets and blocks.
  PacketPool pool;
  {
    PacketPtr warm = pool.Acquire();
    warm->PushInt(IntEntry{});
  }
  const std::size_t created_after_warmup =
      pool.total_created() + pool.int_blocks_created();
  Time ts = 0;
  for (auto _ : state) {
    PacketPtr ack = pool.Acquire();
    ack->type = PacketType::kAck;
    ack->int_reversed = true;
    for (int h = 0; h < 5; ++h) {
      ack->PushInt(IntEntry{100.0, ++ts, 12'500, 40'000});
    }
    benchmark::DoNotOptimize(ack.get());
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["steady_heap_allocs"] = static_cast<double>(
      pool.total_created() + pool.int_blocks_created() -
      created_after_warmup);
}
BENCHMARK(BM_PacketPoolIntAck);

void BM_MakeUniquePacket(benchmark::State& state) {
  // The pre-refactor allocation path: one make_unique + free per packet.
  for (auto _ : state) {
    auto p = std::make_unique<Packet>();
    p->size_bytes = kDefaultMtuBytes;
    benchmark::DoNotOptimize(p.get());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MakeUniquePacket);

void BM_PacketPoolPipelineDepth(benchmark::State& state) {
  // A window of packets in flight, serviced FIFO — the shape of an egress
  // queue. Pool size must stay at the window depth.
  const std::size_t depth = static_cast<std::size_t>(state.range(0));
  PacketPool pool;
  std::vector<PacketPtr> window;
  window.reserve(depth);
  for (std::size_t i = 0; i < depth; ++i) window.push_back(pool.Acquire());
  std::size_t head = 0;
  const std::size_t created_warm = pool.total_created();
  for (auto _ : state) {
    window[head].reset();           // oldest packet drains at the receiver
    window[head] = pool.Acquire();  // a new one enters at the sender
    head = (head + 1) % depth;
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["steady_heap_allocs"] =
      static_cast<double>(pool.total_created() - created_warm);
}
BENCHMARK(BM_PacketPoolPipelineDepth)->Arg(16)->Arg(256);

void BM_EcmpHash(benchmark::State& state) {
  std::uint32_t acc = 0;
  std::uint16_t p = 0;
  for (auto _ : state) {
    acc ^= EcmpHash(12, 97, ++p, 443, 17, 0x5eed, true);
  }
  benchmark::DoNotOptimize(acc);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EcmpHash);

CcConfig MicroCcConfig(CcMode mode) {
  CcConfig c;
  c.mode = mode;
  c.line_rate_gbps = 100.0;
  c.base_rtt = Microseconds(12);
  return ResolveCcConfig(c);
}

PacketPtr IntAck(PacketPool& pool, std::uint64_t seq, Time ts, std::uint64_t tx,
                 bool reversed) {
  PacketPtr ack = pool.Acquire();
  ack->type = PacketType::kAck;
  ack->seq = seq;
  ack->int_reversed = reversed;
  ack->concurrent_flows = 2;
  for (int h = 0; h < 3; ++h) {
    ack->PushInt(IntEntry{100.0, ts, tx, 40'000});
  }
  return ack;
}

void BM_HpccAckProcessing(benchmark::State& state) {
  const CcConfig config = MicroCcConfig(CcMode::kHpcc);
  HpccAlgorithm cc(config);
  PacketPool pool;
  std::uint64_t seq = 1;
  Time ts = 0;
  std::uint64_t tx = 0;
  for (auto _ : state) {
    ts += Microseconds(1);
    tx += 12'500;
    seq += 1518;
    cc.OnAck(*IntAck(pool, seq, ts, tx, false), seq + 150'000);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HpccAckProcessing);

void BM_FnccAckProcessing(benchmark::State& state) {
  const CcConfig config = MicroCcConfig(CcMode::kFncc);
  FnccAlgorithm cc(config);
  PacketPool pool;
  std::uint64_t seq = 1;
  Time ts = 0;
  std::uint64_t tx = 0;
  for (auto _ : state) {
    ts += Microseconds(1);
    tx += 12'500;
    seq += 1518;
    cc.OnAck(*IntAck(pool, seq, ts, tx, true), seq + 150'000);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FnccAckProcessing);

// ---------------------------------------------------- host ACK / forward path
// The per-packet receive hot path: an ACK arriving at a sender host must
// resolve its flow and run the CC update. The new path is one indexed
// flow-table load into a slot with the QP + CC state inline and a
// CcMode-tagged OnAck; the legacy baseline
// (bench/legacy_host_path.hpp) is the pre-change unordered_map find plus
// virtual dispatch through two heap objects. Target: >= 1.5x items/sec at
// the larger flow counts (gated by scripts/check_bench_regression.py).

/// Drops every delivery; stands in for a receiver so sender hosts can be
/// benched in isolation.
class BenchSink final : public Endpoint {
 public:
  BenchSink(Simulator* sim, NodeId id) : Endpoint(sim, id, "sink"), nic_(sim) {}
  EgressPort& nic() override { return nic_; }
  void ReceivePacket(PacketPtr, int) override {}  // PacketPtr dtor reclaims

 private:
  EgressPort nic_;
};

/// Deterministic shuffled visiting order: ACKs from thousands of concurrent
/// flows arrive interleaved, not round-robin in registration order — the
/// pattern that exposes each path's dependent-load chain instead of letting
/// the hardware prefetcher hide it.
std::vector<std::uint32_t> ShuffledOrder(std::uint32_t n) {
  std::vector<std::uint32_t> order(n);
  for (std::uint32_t i = 0; i < n; ++i) order[i] = i;
  if (n < 2) return order;  // the loop below underflows at n == 0
  std::uint64_t lcg = 0x9E3779B97F4A7C15ull;
  for (std::uint32_t i = n - 1; i > 0; --i) {
    lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
    std::swap(order[i], order[(lcg >> 33) % (i + 1)]);
  }
  return order;
}

/// An ACK shaped like FNCC's: 3 return-path INT hops, N = 2, no cumulative
/// progress (seq 0) so the sender's window state stays put and successive
/// ACKs keep exercising the full CC math without transmitting.
void FillBenchAck(Packet& ack, FlowId flow, Time ts) {
  ack.type = PacketType::kAck;
  ack.flow = flow;
  ack.seq = 0;
  ack.size_bytes = kAckBytes;
  ack.int_reversed = true;
  ack.concurrent_flows = 2;
  for (int h = 0; h < 3; ++h) {
    ack.PushInt(
        IntEntry{100.0, ts, 12'500u * static_cast<std::uint64_t>(h + 1),
                 40'000});
  }
}

void BM_HostAckPath(benchmark::State& state) {
  const int flows = static_cast<int>(state.range(0));
  Simulator sim;
  auto table = std::make_shared<FlowTable>();
  Host host(&sim, 0, "tx", HostConfig{}, table);
  BenchSink sink(&sim, 1);
  host.nic().Connect({&sink, 0}, 100.0, Nanoseconds(10));
  sink.nic().Connect({&host, 0}, 100.0, Nanoseconds(10));

  CcConfig cc = MicroCcConfig(CcMode::kFncc);
  std::vector<FlowId> ids;
  for (int i = 0; i < flows; ++i) {
    FlowSpec spec;
    spec.src = 0;
    spec.dst = 1;
    spec.sport = static_cast<std::uint16_t>(1000 + 2 * i);
    spec.dport = static_cast<std::uint16_t>(1001 + 2 * i);
    spec.size_bytes = 4 * static_cast<std::uint64_t>(cc.mtu_bytes);
    ids.push_back(host.StartFlow(spec, cc)->spec().id);
  }
  // Let every flow start and emit its (short) burst into the sink, so each
  // QP sits in the "all data sent, awaiting ACKs" steady state.
  sim.RunUntil(Microseconds(100));

  const std::vector<std::uint32_t> order = ShuffledOrder(ids.size());
  Time ts = 0;
  std::size_t i = 0;
  for (auto _ : state) {
    ts += Microseconds(1);
    PacketPtr ack = sim.packet_pool().Acquire();
    FillBenchAck(*ack, ids[order[i]], ts);
    host.ReceivePacket(std::move(ack), 0);
    if (++i == order.size()) i = 0;
  }
  state.SetItemsProcessed(state.iterations());
}
// 65536 is the cache-falloff regime the SoA hot rows target: 64k rows are
// 4 MB of hot state, far past L2, so the run measures the dense-row layout
// against DRAM latency rather than cache residency.
BENCHMARK(BM_HostAckPath)->Arg(64)->Arg(1024)->Arg(8192)->Arg(65536);

void BM_LegacyHostAckPath(benchmark::State& state) {
  const int flows = static_cast<int>(state.range(0));
  Simulator sim;
  bench::LegacyHostModel host;
  CcConfig cc = MicroCcConfig(CcMode::kFncc);
  std::vector<FlowId> ids;
  ids.reserve(flows);
  for (int i = 0; i < flows; ++i) {
    ids.push_back(host.AddFlow(cc, &sim, 4 * cc.mtu_bytes));
  }

  const std::vector<std::uint32_t> order = ShuffledOrder(ids.size());
  Time ts = 0;
  std::size_t i = 0;
  for (auto _ : state) {
    ts += Microseconds(1);
    PacketPtr ack = sim.packet_pool().Acquire();
    FillBenchAck(*ack, ids[order[i]], ts);
    host.ReceivePacket(std::move(ack));
    if (++i == order.size()) i = 0;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LegacyHostAckPath)->Arg(64)->Arg(1024)->Arg(8192)->Arg(65536);

void BM_SwitchForward(benchmark::State& state) {
  // One data packet through the full switch pipeline: devirtualized
  // delivery, route lookup, buffer/PFC accounting, egress serialization
  // and propagation to the peer — the per-hop cost of every simulated
  // packet. The sim drains after each packet so queues stay empty.
  Simulator sim;
  Rng rng(1);
  SwitchConfig config;
  config.num_ports = 2;
  Switch sw(&sim, 0, "sw", config, &rng);
  BenchSink a(&sim, 1), b(&sim, 2);
  sw.port(0).Connect({&a, 0}, 100.0, Nanoseconds(100));
  a.nic().Connect({&sw, 0}, 100.0, Nanoseconds(100));
  sw.port(1).Connect({&b, 0}, 100.0, Nanoseconds(100));
  b.nic().Connect({&sw, 1}, 100.0, Nanoseconds(100));
  sw.routing().Resize(3);
  sw.routing().SetNextHops(1, std::array{0});
  sw.routing().SetNextHops(2, std::array{1});

  for (auto _ : state) {
    PacketPtr pkt = sim.packet_pool().Acquire();
    pkt->type = PacketType::kData;
    pkt->flow = 1;
    pkt->src = 1;
    pkt->dst = 2;
    pkt->sport = 1000;
    pkt->dport = 1001;
    pkt->size_bytes = kDefaultMtuBytes;
    pkt->payload_bytes = kDefaultMtuBytes;
    sw.ReceivePacket(std::move(pkt), 0);
    sim.RunUntil(sim.Now() + Microseconds(1));
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["events_per_pkt"] = benchmark::Counter(
      static_cast<double>(sim.events_processed()),
      benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_SwitchForward);

void BM_ComputeRoutes(benchmark::State& state) {
  // Routing set-up for a k-ary fat-tree (arg = k): every switch's ECMP
  // table toward every host. The fabric is built once, outside the timed
  // loop; each iteration routes it again (interned sets, so the pools do
  // not grow). Ungated: a set-up cost, not a per-packet one.
  Simulator sim;
  Rng rng(1);
  const HostFactory sinks = [](Simulator* s, NodeId id, const std::string&) {
    return std::make_unique<BenchSink>(s, id);
  };
  TopologyParams params;
  params.k = static_cast<int>(state.range(0));
  BuiltTopology topo = TopologyRegistry::Build("fat_tree", &sim, sinks,
                                               SwitchConfig{}, &rng, params);
  for (auto _ : state) topo.net.ComputeRoutes();
  state.SetItemsProcessed(
      state.iterations() *
      static_cast<std::int64_t>(topo.net.switches().size() *
                                topo.net.hosts().size()));
  state.SetLabel("items = (switch, host) routes");
}
BENCHMARK(BM_ComputeRoutes)->Arg(8)->Arg(16)->Unit(benchmark::kMillisecond);

// ------------------------------------------------------- streaming pipeline
// The per-completion cost of the bounded-memory FCT path: two quantile
// sketches + size-bucket state updated per flow, no retained FlowResult.
// Stats-only (no CSV) so the number measures the online reduction, not the
// filesystem. Presence-gated in scripts/check_bench_regression.py (the
// sink has no legacy in-binary counterpart to form a ratio with, and a
// throughput gate on sketch math would mostly measure machine noise).
void BM_FctSink(benchmark::State& state) {
  FctSinkOptions options;  // stats-only: quantile sketches + bucket state
  options.bucket_edges = {10'000, 100'000, 1'000'000, 10'000'000};
  FctSink sink(options);
  FlowSpec spec;
  spec.src = 0;
  spec.dst = 1;
  std::uint64_t i = 0;
  for (auto _ : state) {
    ++i;
    spec.id = static_cast<FlowId>(i);
    spec.size_bytes = 1'000 + (i * 7919) % 2'000'000;
    spec.start_time = static_cast<Time>(i) * Microseconds(1);
    spec.ideal_fct = Microseconds(10) + static_cast<Time>((i * 104'729) %
                                                          100'000);
    const Time fct =
        spec.ideal_fct +
        static_cast<Time>((i * 15'485'863) % (400 * kMicrosecond));
    sink.Append(spec, fct);
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["sketch_buckets"] =
      static_cast<double>(sink.slowdown_sketch().bucket_count());
}
BENCHMARK(BM_FctSink);

// End-to-end streaming launch: a run-to-completion dumbbell point with
// flows pulled from the workload FlowSource one lookahead window at a
// time, each completion drained to a stats-only sink and its FlowTable
// slot recycled. items = completed flows; the register/launch/
// drain/release cycle is the whole measured loop. Small fixed-size CDF so
// the bench exercises flow churn, not bulk byte transfer.
void BM_StreamingLaunch(benchmark::State& state) {
  const int flows = static_cast<int>(state.range(0));
  ExperimentSpec spec;
  spec.name = "bench_streaming";
  spec.topology = "dumbbell";
  spec.topo.num_senders = 4;
  spec.workload = "poisson";
  spec.wl.load = 0.5;
  spec.wl.num_flows = flows;
  spec.run.duration = 0;
  spec.run.max_sim_time = 10 * kSecond;
  spec.run.monitor = false;
  spec.run.launch_window = Microseconds(100);
  const TopologyParams topo = ResolveTopologyParams(spec);
  WorkloadParams wl = ResolveWorkloadParams(spec);
  wl.cdf = SizeCdf({{4'000.0, 0.5}, {16'000.0, 1.0}});
  std::uint64_t completed = 0;
  for (auto _ : state) {
    FctSinkOptions options;
    FctSink sink(options);
    const ExperimentPointResult r =
        RunResolvedPoint(spec, topo, wl, /*intra_threads=*/1, &sink);
    completed += r.flows_completed;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(completed));
  state.SetLabel("items = completed flows");
}
BENCHMARK(BM_StreamingLaunch)->Arg(4096)->Unit(benchmark::kMillisecond);

// Streaming launch composed with the conservative-PDES partition: the
// same windowed register/launch/drain/release cycle on a fat-tree point
// partitioned into exec_domains lanes (arg), worker threads from the
// machine. items = completed flows, like BM_StreamingLaunch. Wall-time
// entries (ungated): /1 tracks the coordinator-side streaming overhead on
// a partitioned simulator, /2 and /8 the domain scaling of a streamed
// point — meaningful relative to the recording machine's hw threads.
void BM_StreamingLaunchDomains(benchmark::State& state) {
  ExperimentSpec spec;
  spec.name = "bench_streaming_domains";
  spec.topology = "fat_tree";
  spec.topo.k = 4;
  spec.workload = "poisson";
  spec.wl.load = 0.5;
  spec.wl.num_flows = 2048;
  spec.run.duration = 0;
  spec.run.max_sim_time = 10 * kSecond;
  spec.run.monitor = false;
  spec.run.launch_window = Microseconds(100);
  spec.scenario.exec_domains = static_cast<int>(state.range(0));
  const TopologyParams topo = ResolveTopologyParams(spec);
  WorkloadParams wl = ResolveWorkloadParams(spec);
  wl.cdf = SizeCdf({{4'000.0, 0.5}, {16'000.0, 1.0}});
  const int threads = DefaultThreadCount();
  std::uint64_t completed = 0;
  for (auto _ : state) {
    FctSinkOptions options;
    FctSink sink(options);
    const ExperimentPointResult r =
        RunResolvedPoint(spec, topo, wl, threads, &sink);
    completed += r.flows_completed;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(completed));
  state.SetLabel("items = completed flows");
}
BENCHMARK(BM_StreamingLaunchDomains)->Arg(1)->Arg(2)->Arg(8)
    ->Unit(benchmark::kMillisecond);

void BM_DumbbellSimulation(benchmark::State& state) {
  // End-to-end simulator throughput: events/second over a full scenario.
  // The pool counters show the allocation profile of a whole run: created
  // is the warm-up high-water mark, acquired the packets served — their
  // ratio is how many packets each heap allocation amortizes over.
  std::uint64_t events = 0;
  std::uint64_t pool_created = 0;
  std::uint64_t pool_acquired = 0;
  for (auto _ : state) {
    ExperimentSpec spec;
    spec.scenario.mode = static_cast<CcMode>(state.range(0));
    spec.wl.long_flows = {{0, 0}, {1, Microseconds(300)}};
    spec.run.duration = Microseconds(600);
    const ExperimentPointResult r = RunExperimentPoint(spec);
    events += r.events_processed;
    pool_created += r.pool_packets_created;
    pool_acquired += r.pool_packets_acquired;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(events));
  state.SetLabel("items = simulated events");
  state.counters["pool_created"] =
      benchmark::Counter(static_cast<double>(pool_created),
                         benchmark::Counter::kAvgIterations);
  state.counters["pool_acquired"] =
      benchmark::Counter(static_cast<double>(pool_acquired),
                         benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_DumbbellSimulation)
    ->Arg(static_cast<int>(CcMode::kFncc))
    ->Arg(static_cast<int>(CcMode::kHpcc))
    ->Arg(static_cast<int>(CcMode::kDcqcn))
    ->Unit(benchmark::kMillisecond);

void BM_DumbbellManyFlows(benchmark::State& state) {
  // The 64k-flow dumbbell: tens of thousands of concurrent flows share one
  // bottleneck, so every delivered batch lands on rows scattered across a
  // multi-megabyte flow table — the full-simulation counterpart of
  // BM_HostAckPath/65536. Flows are short (4 MTUs) to keep register /
  // ACK / complete churn in the mix alongside steady-state pacing.
  const int flows = static_cast<int>(state.range(0));
  constexpr int kSenders = 8;
  std::uint64_t events = 0;
  for (auto _ : state) {
    ExperimentSpec spec;
    spec.scenario.mode = CcMode::kFncc;
    spec.topo.num_senders = kSenders;
    spec.wl.size_bytes = 4ull * spec.scenario.mtu_bytes;
    // Per-flow pacing/goodput sampling is 2 events/flow/us — at 64k flows
    // that would be ~130M sampler events per simulated ms, drowning the
    // packet path this bench is about. Aggregate counters are enough here.
    spec.run.monitor = false;
    spec.wl.long_flows.reserve(flows);
    for (int i = 0; i < flows; ++i) {
      spec.wl.long_flows.push_back({i % kSenders, 0, kTimeInfinity});
    }
    spec.run.duration = Microseconds(400);
    const ExperimentPointResult r = RunExperimentPoint(spec);
    events += r.events_processed;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(events));
  state.SetLabel("items = simulated events");
}
BENCHMARK(BM_DumbbellManyFlows)->Arg(65536)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace fncc

BENCHMARK_MAIN();
