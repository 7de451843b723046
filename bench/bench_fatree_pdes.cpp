// Macro-benchmark for the conservative-PDES event-domain partition: one
// k=16 fat-tree permutation point (the specs/fat_tree_k16.exp scenario at
// bench scale) run end to end at exec_domains = 1, 2, 4 and 8, plus a
// serial reference (BM_FatTreePointSerial) that never calls
// Simulator::Partition — the exact pre-partition code path.
//
// The machine-independent facts that come out of BENCH_fatree_pdes.json:
//   - BM_FatTreePoint/1 vs BM_FatTreePointSerial/1: the overhead of the
//     partition machinery when it degenerates to one lane. This ratio is
//     what scripts/check_bench_regression.py gates (pair convention like
//     BM_HostAckPath=BM_LegacyHostAckPath); it must stay ~1.
//   - BM_FatTreePointStreamed/1 vs BM_FatTreePoint/1: the overhead of a
//     100 us launch window (windowed launches + per-window drains) over
//     launch window 0 on the same point — also ratio-gated at
//     domains=1; the /2 and /8 args record the windowed multi-domain
//     wall times alongside the window-0 ones.
//   - BM_FatTreePoint/{2,4,8} vs /1: the domain speedup. This is wall
//     time, so it scales with the worker threads actually available —
//     run_benches.sh stamps fncc_threads into the JSON context; on a
//     single hardware thread the multi-domain entries measure window +
//     handoff overhead, not speedup. The windows_per_s counter is the
//     engine's coordination throughput (one window = one barrier cycle).
//   - BM_WindowBarrier/N vs BM_LegacyWindowPair/N: one persistent-engine
//     barrier cycle against the two ThreadPool Submit+Wait round-trips it
//     replaced per window — also ratio-gated; the barrier must win.
//
// Every configuration produces bit-identical simulation output (the
// domain-equivalence suite in tests/exec pins this); only wall time may
// differ, which is exactly what this file measures.
#include <benchmark/benchmark.h>

#include <atomic>
#include <thread>
#include <vector>

#include "exec/thread_pool.hpp"
#include "exec/window_barrier.hpp"
#include "harness/experiment_runner.hpp"
#include "stats/fct_sink.hpp"

namespace {

using namespace fncc;

ExperimentSpec FatTreePointSpec(int exec_domains) {
  ExperimentSpec spec = ParseSpecText(R"(
name = fatree_pdes_bench
topology.kind = fat_tree
topology.k = 16
workload.kind = permutation
workload.size_bytes = 100000
run.duration_us = 0
run.max_sim_ms = 2000
)");
  spec.scenario.exec_domains = exec_domains;
  return spec;
}

void RunPoint(benchmark::State& state, int exec_domains, int threads) {
  std::uint64_t events = 0;
  std::uint64_t windows = 0;
  std::size_t flows = 0;
  for (auto _ : state) {
    const ExperimentPointResult r =
        RunExperimentPoint(FatTreePointSpec(exec_domains), threads);
    events = r.events_processed;
    windows += r.pdes_windows;
    flows = r.flows_completed;
    benchmark::DoNotOptimize(r.fct.count());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(events));
  state.counters["events"] = static_cast<double>(events);
  state.counters["flows"] = static_cast<double>(flows);
  state.counters["threads"] = static_cast<double>(threads);
  // Windows retired per second of wall time — the engine's native unit of
  // coordination throughput (each window = one barrier cycle). 0 for the
  // unpartitioned/serial entries, which run no window loop.
  state.counters["windows_per_s"] =
      benchmark::Counter(static_cast<double>(windows),
                         benchmark::Counter::kIsRate);
}

/// The partitioned path at 1/2/4/8 domains, worker threads from
/// FNCC_THREADS (default: hardware concurrency) clamped to the lane count.
void BM_FatTreePoint(benchmark::State& state) {
  RunPoint(state, static_cast<int>(state.range(0)),
           ThreadPool::DefaultThreadCount());
}
// Record with --benchmark_min_warmup_time=0.5 (run_benches.sh and the CI
// step both pass it): each entry's ~1s iterations are long enough that
// min_time is met on the very first one, so without a warm-up the first
// benchmark in the binary is recorded cold (page faults, allocator
// growth) while the serial reference at the end runs warm, skewing the
// gated /1 ratio by >15%. The flag form keeps benchmark names stable —
// the ->MinWarmUpTime() builder would rename entries to
// .../min_warmup_time:0.5 and break the gate's name pairing.
BENCHMARK(BM_FatTreePoint)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

/// Serial reference: single lane, single thread, plain Simulator::RunUntil
/// — the legacy counterpart for the regression gate's /1 ratio.
void BM_FatTreePointSerial(benchmark::State& state) {
  RunPoint(state, static_cast<int>(state.range(0)), 1);
}
BENCHMARK(BM_FatTreePointSerial)->Arg(1)->Unit(benchmark::kMillisecond);

/// The same point with a 100 us launch window: flows pulled from the
/// workload source one window at a time, completions drained per window
/// to a stats-only FctSink, FlowTable slots recycled.
/// BM_FatTreePointStreamed/1 vs BM_FatTreePoint/1 is the gated
/// machine-independent window-100-vs-window-0 ratio (both run the same
/// events in the same binary; only the launch/drain cadence differs). The
/// /2 and /8 args are wall-time entries like BM_FatTreePoint's —
/// deliberately ungated, meaningful relative to fncc_hw_threads.
void BM_FatTreePointStreamed(benchmark::State& state) {
  const int exec_domains = static_cast<int>(state.range(0));
  const int threads = ThreadPool::DefaultThreadCount();
  ExperimentSpec spec = FatTreePointSpec(exec_domains);
  spec.run.monitor = false;
  spec.run.launch_window = Microseconds(100);
  std::uint64_t events = 0;
  std::uint64_t windows = 0;
  std::size_t flows = 0;
  for (auto _ : state) {
    FctSinkOptions options;  // stats-only: sketches, no CSV, no records
    FctSink sink(options);
    const ExperimentPointResult r = RunExperimentPoint(spec, threads, &sink);
    events = r.events_processed;
    windows += r.pdes_windows;
    flows = r.flows_completed;
    benchmark::DoNotOptimize(sink.count());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(events));
  state.counters["events"] = static_cast<double>(events);
  state.counters["flows"] = static_cast<double>(flows);
  state.counters["threads"] = static_cast<double>(threads);
  state.counters["windows_per_s"] =
      benchmark::Counter(static_cast<double>(windows),
                         benchmark::Counter::kIsRate);
}
BENCHMARK(BM_FatTreePointStreamed)->Arg(1)->Arg(2)->Arg(8)
    ->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// Window-coordination microbenchmarks: the per-window synchronization cost
// in isolation, with zero simulation work. One persistent-engine window is
// ONE WindowBarrier cycle; one legacy engine window was TWO ThreadPool
// Submit+Wait round-trips (run phase + drain phase). The regression gate
// pairs them (BM_WindowBarrier=BM_LegacyWindowPair at matching arg): the
// barrier cycle must stay cheaper than the pair it replaced. Arg = the
// participant count; on fewer hardware threads both benchmarks measure the
// same oversubscribed-scheduler regime, so the ratio remains meaningful.

/// One barrier cycle per iteration. Workers mirror DomainScheduler::RunLoop:
/// park at the barrier, re-arrive immediately (no window work), exit via the
/// completion-published stop flag.
void BM_WindowBarrier(benchmark::State& state) {
  const int participants = static_cast<int>(state.range(0));
  WindowBarrier barrier(participants);
  std::atomic<bool> shutdown{false};
  bool stop = false;  // written only in completions, read after release
  const auto completion = [&] {
    if (shutdown.load(std::memory_order_relaxed)) stop = true;
  };
  std::vector<std::thread> workers;
  for (int i = 1; i < participants; ++i) {
    workers.emplace_back([&] {
      while (true) {
        barrier.ArriveAndWait(completion);
        if (stop) return;
      }
    });
  }
  for (auto _ : state) {
    barrier.ArriveAndWait(completion);
  }
  shutdown.store(true, std::memory_order_release);
  barrier.ArriveAndWait(completion);
  for (std::thread& w : workers) w.join();
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_WindowBarrier)->Arg(2)->Arg(4)->UseRealTime();

/// The replaced protocol's skeleton: per iteration, two rounds of
/// (one no-op job per participant, then Wait) on a ThreadPool of the same
/// size — the run-phase and drain-phase round-trips of the old
/// DomainScheduler window.
void BM_LegacyWindowPair(benchmark::State& state) {
  const int participants = static_cast<int>(state.range(0));
  ThreadPool pool(participants);
  for (auto _ : state) {
    for (int phase = 0; phase < 2; ++phase) {
      for (int i = 0; i < participants; ++i) {
        pool.Submit([] { benchmark::DoNotOptimize(0); });
      }
      pool.Wait();
    }
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LegacyWindowPair)->Arg(2)->Arg(4)->UseRealTime();

}  // namespace

BENCHMARK_MAIN();
