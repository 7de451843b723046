// Launch windows composed with multi-domain conservative PDES: a
// streamed run (run.launch_window > 0) fanned out over
// scenario.exec_domains must reproduce the window-0 ("eager") single-lane
// reference byte for byte — FCT records, counters, and the streamed CSV — at every
// exec_domains x threads combination. The load-bearing invariant is the
// flow-start order word (sim/event_queue.hpp kFlowStartOrderBit): the
// streaming launcher recycles FlowTable slots, so FlowIds are NOT
// launch-ordered, and the old spec.id tie-break for equal-time native
// completions in different lanes would merge records in slot order, not
// launch order. The dense launch serial restores a partition-invariant
// key; these tests pin it.
#include <gtest/gtest.h>
#include <sys/resource.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "harness/experiment_runner.hpp"
#include "harness/experiment_spec.hpp"
#include "stats/csv.hpp"
#include "stats/fct_sink.hpp"

namespace fncc {
namespace {

std::string Slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

void ExpectCountersEqual(const ExperimentPointResult& got,
                         const ExperimentPointResult& ref) {
  EXPECT_EQ(got.flows_total, ref.flows_total);
  EXPECT_EQ(got.flows_completed, ref.flows_completed);
  EXPECT_EQ(got.retransmits, ref.retransmits);
  EXPECT_EQ(got.drops, ref.drops);
  EXPECT_EQ(got.pause_frames, ref.pause_frames);
  EXPECT_EQ(got.asymmetric_acks, ref.asymmetric_acks);
  EXPECT_EQ(got.lhcs_triggers, ref.lhcs_triggers);
  EXPECT_EQ(got.late_data_drops, ref.late_data_drops);
  EXPECT_EQ(got.events_processed, ref.events_processed);
}

void ExpectRecordsEqual(const ExperimentPointResult& got,
                        const ExperimentPointResult& ref) {
  ASSERT_EQ(got.fct.count(), ref.fct.count());
  for (std::size_t i = 0; i < ref.fct.count(); ++i) {
    const FlowResult& a = ref.fct.results()[i];
    const FlowResult& b = got.fct.results()[i];
    EXPECT_EQ(b.spec.id, a.spec.id) << "record " << i;
    EXPECT_EQ(b.spec.src, a.spec.src) << "record " << i;
    EXPECT_EQ(b.spec.dst, a.spec.dst) << "record " << i;
    EXPECT_EQ(b.spec.size_bytes, a.spec.size_bytes) << "record " << i;
    EXPECT_EQ(b.spec.start_time, a.spec.start_time) << "record " << i;
    EXPECT_EQ(b.fct, a.fct) << "record " << i;
    EXPECT_DOUBLE_EQ(b.slowdown, a.slowdown) << "record " << i;
  }
}

/// Runs `base` streamed (launch_window = 100 us) at the given partition,
/// draining completions into a CSV-writing FctSink, and checks counters
/// plus CSV bytes against the eager reference.
void ExpectStreamedMatchesEager(const ExperimentSpec& base,
                                const ExperimentPointResult& ref,
                                const std::string& ref_csv, int domains,
                                int threads) {
  ExperimentSpec streaming = base;
  streaming.run.launch_window = Microseconds(100);
  streaming.scenario.exec_domains = domains;
  ValidateSpec(streaming);

  const std::string csv = testing::TempDir() + "streaming_pdes_d" +
                          std::to_string(domains) + "_t" +
                          std::to_string(threads) + ".csv";
  FctSinkOptions options;
  options.csv_path = csv;
  FctSink sink(options);
  const ExperimentPointResult got =
      RunExperimentPoint(streaming, threads, &sink);
  ASSERT_TRUE(sink.Finish());
  ExpectCountersEqual(got, ref);
  EXPECT_EQ(got.fct.count(), 0u);  // streamed through the sink, not retained
  EXPECT_EQ(sink.count(), ref.fct.count());
  EXPECT_EQ(Slurp(csv), Slurp(ref_csv));
  std::remove(csv.c_str());
}

/// Returns the reference run, for checks on what the point exercised.
ExperimentPointResult RunStreamedDomainMatrix(const ExperimentSpec& base) {
  ExperimentPointResult ref = RunExperimentPoint(base);
  EXPECT_GT(ref.flows_completed, 0u);
  const std::string ref_csv = testing::TempDir() + "streaming_pdes_ref.csv";
  EXPECT_TRUE(WriteFctCsv(ref_csv, ref.fct));
  for (int domains : {1, 2, 8}) {
    for (int threads : {1, 4}) {
      SCOPED_TRACE("domains=" + std::to_string(domains) +
                   " threads=" + std::to_string(threads));
      ExpectStreamedMatchesEager(base, ref, ref_csv, domains, threads);
    }
  }
  std::remove(ref_csv.c_str());
  return ref;
}

TEST(StreamingPdesTest, PoissonFatTreeByteIdenticalAcrossDomainMatrix) {
  // Per-pod partition of a k=4 fat-tree under a size-mixed poisson load;
  // sources spread over all pods, so completions land in every lane.
  ExperimentSpec spec = ParseSpecText(R"(
name = streaming_pdes_poisson
topology.kind = fat_tree
topology.k = 4
workload.kind = poisson
workload.num_flows = 120
workload.cdf = web_search
workload.load = 0.5
run.duration_us = 0
run.max_sim_ms = 50
run.monitor = false
)");
  ValidateSpec(spec);
  RunStreamedDomainMatrix(spec);
}

TEST(StreamingPdesTest, DcqcnLateDuplicatesByteIdenticalAcrossDomainMatrix) {
  // DCQCN at 25 Gb/s and full load: PFC pause chains outlast the 5 ms
  // RTO, so go-back-N duplicates reach receivers after their sender has
  // completed — often with sender and receiver in different lanes that
  // run at once within a window. Whether such a duplicate is re-ACKed or
  // dropped must follow simulated time alone (Host::HandleData's settle
  // rule), never which lane ran first.
  ExperimentSpec spec = ParseSpecText(R"(
name = streaming_pdes_dcqcn
topology.kind = fat_tree
topology.k = 4
workload.kind = poisson
workload.num_flows = 150
workload.cdf = web_search
workload.load = 1
scenario.mode = DCQCN
scenario.link_gbps = 25
run.duration_us = 0
run.max_sim_ms = 100
run.monitor = false
)");
  ValidateSpec(spec);
  const ExperimentPointResult ref = RunStreamedDomainMatrix(spec);
  EXPECT_GT(ref.retransmits, 0u);
  EXPECT_GT(ref.late_data_drops, 0u);
}

TEST(StreamingPdesTest, TraceFatTreeByteIdenticalAcrossDomainMatrix) {
  // Trace replay with four equal-start flows per batch — one per pod —
  // so equal-timestamp natives regularly appear in different lanes, and
  // batches short enough that the streaming drain recycles the same few
  // FlowTable slots all run long.
  const std::string trace = testing::TempDir() + "streaming_pdes_trace.csv";
  {
    std::ofstream out(trace);
    for (int b = 0; b < 60; ++b) {
      const double start_us = static_cast<double>(b) * 20.0;
      for (int pod = 0; pod < 4; ++pod) {
        const int src = pod * 4 + (b % 4);
        const int dst = ((pod + 1) % 4) * 4 + ((b + 1) % 4);
        out << start_us << ',' << src << ',' << dst << ','
            << (1000 + (b % 3) * 30000) << '\n';
      }
    }
  }
  ExperimentSpec spec;
  spec.name = "streaming_pdes_trace";
  spec.topology = "fat_tree";
  spec.topo.k = 4;
  spec.workload = "trace";
  spec.wl.trace_file = trace;
  spec.run.duration = 0;
  spec.run.max_sim_time = 100 * kMillisecond;
  spec.run.monitor = false;
  ValidateSpec(spec);
  RunStreamedDomainMatrix(spec);
  std::remove(trace.c_str());
}

TEST(StreamingPdesTest, RecycledSlotsKeepLaunchOrderAcrossLanes) {
  // The point that would have tripped the old spec.id tie-break: pairs of
  // symmetric same-size flows launched at the same instant in different
  // pods, strictly sequentially, so (1) each batch's completions collide
  // at equal timestamps in two different lanes and (2) every batch
  // relaunches into slots recycled from the previous batch — the LIFO
  // free list hands them out in reverse release order, so FlowIds stop
  // tracking launch order almost immediately. Only the dense launch
  // serial keeps the cross-lane merge (and the re-stamped record ids)
  // identical to the eager run.
  const std::string trace = testing::TempDir() + "streaming_pdes_pairs.csv";
  {
    std::ofstream out(trace);
    for (int b = 0; b < 150; ++b) {
      const double start_us = static_cast<double>(b) * 15.0;
      out << start_us << ",0,12,1000\n";   // pod 0 -> pod 3
      out << start_us << ",4,8,1000\n";    // pod 1 -> pod 2
    }
  }
  ExperimentSpec spec;
  spec.name = "streaming_pdes_recycle";
  spec.topology = "fat_tree";
  spec.topo.k = 4;
  spec.workload = "trace";
  spec.wl.trace_file = trace;
  spec.run.duration = 0;
  spec.run.max_sim_time = 100 * kMillisecond;
  spec.run.monitor = false;
  ValidateSpec(spec);

  const ExperimentPointResult ref = RunExperimentPoint(spec);
  ASSERT_EQ(ref.flows_completed, 300u);
  // Sanity: the symmetric pairs really do complete at equal timestamps —
  // otherwise this test exercises nothing the others don't.
  std::size_t equal_time_pairs = 0;
  for (std::size_t i = 0; i + 1 < ref.fct.count(); i += 2) {
    const FlowResult& a = ref.fct.results()[i];
    const FlowResult& b = ref.fct.results()[i + 1];
    if (a.spec.start_time + a.fct == b.spec.start_time + b.fct) {
      ++equal_time_pairs;
    }
  }
  EXPECT_GT(equal_time_pairs, 100u)
      << "symmetric pairs no longer complete simultaneously; the "
         "equal-time cross-lane tie-break is not being exercised";

  for (int domains : {2, 8}) {
    for (int threads : {1, 4}) {
      SCOPED_TRACE("domains=" + std::to_string(domains) +
                   " threads=" + std::to_string(threads));
      ExperimentSpec streaming = spec;
      streaming.run.launch_window = Microseconds(100);
      streaming.scenario.exec_domains = domains;
      ValidateSpec(streaming);
      const ExperimentPointResult got = RunExperimentPoint(streaming, threads);
      ExpectCountersEqual(got, ref);
      ExpectRecordsEqual(got, ref);
    }
  }
  std::remove(trace.c_str());
}

// Two sized elephants into the fat-tree receiver (host 15, pod 3) from
// different pods. Flow 0 (host 0, pod 0) completes long before its stop
// time; flow 1 (host 4, pod 1) starts at 3950 us — recycling flow 0's
// released slot — and is mid-flight when flow 0's stale abort timer fires
// at 4000 us. The timer lives in lane(pod 0); the slot's new tenant runs
// in lane(pod 1): the FlowTable generation check must drop the stale
// abort across the lane boundary, at every partitioning.
ExperimentSpec MultiDomainStopSpec() {
  ExperimentSpec spec;
  spec.name = "streaming_pdes_stop_recycle";
  spec.topology = "fat_tree";
  spec.topo.k = 4;
  spec.workload = "elephants";
  spec.wl.size_bytes = 1'000'000;
  spec.wl.long_flows = {{0, 0, Microseconds(4000)},
                        {4, Microseconds(3950), kTimeInfinity}};
  spec.run.duration = 0;
  spec.run.max_sim_time = 100 * kMillisecond;
  spec.run.monitor = false;
  ValidateSpec(spec);
  return spec;
}

TEST(StreamingPdesTest, StaleAbortTimerSurvivesMultiDomainRecycling) {
  const ExperimentPointResult ref = RunExperimentPoint(MultiDomainStopSpec());
  ASSERT_EQ(ref.flows_total, 2u);
  ASSERT_EQ(ref.flows_completed, 2u) << "both flows finish under their stops";

  for (int domains : {1, 2, 8}) {
    for (int threads : {1, 4}) {
      SCOPED_TRACE("domains=" + std::to_string(domains) +
                   " threads=" + std::to_string(threads));
      ExperimentSpec streaming = MultiDomainStopSpec();
      streaming.run.launch_window = Microseconds(100);
      streaming.scenario.exec_domains = domains;
      ValidateSpec(streaming);
      const ExperimentPointResult got = RunExperimentPoint(streaming, threads);
      ExpectCountersEqual(got, ref);
      ExpectRecordsEqual(got, ref);
    }
  }
}

TEST(StreamingPdesTest, AbortedFlowTerminatesMultiDomainRun) {
  // A stop that lands mid-flight under exec_domains = 8: the abort timer
  // fires in its own lane, marks the flow aborted, and the streamed
  // multi-domain run must still drain and terminate (an aborted flow's
  // leftover timer events are inert; with the source exhausted the run is
  // over).
  ExperimentSpec spec;
  spec.name = "streaming_pdes_stop_abort";
  spec.topology = "fat_tree";
  spec.topo.k = 4;
  spec.workload = "elephants";
  spec.wl.size_bytes = 2'000'000;
  spec.wl.long_flows = {{0, 0, Microseconds(50)},  // aborted at 50 us
                        {4, Microseconds(10), kTimeInfinity}};
  spec.run.duration = 0;
  spec.run.max_sim_time = 20 * kMillisecond;
  spec.run.monitor = false;
  spec.run.launch_window = Microseconds(100);
  spec.scenario.exec_domains = 8;
  ValidateSpec(spec);

  const ExperimentPointResult got = RunExperimentPoint(spec, /*threads=*/4);
  EXPECT_EQ(got.flows_total, 2u);
  EXPECT_EQ(got.flows_completed, 1u);  // flow 1 finishes, flow 0 was cut
  ASSERT_EQ(got.fct.count(), 1u);
  EXPECT_EQ(got.fct.results()[0].spec.id, 2u);  // the surviving flow
}

long PeakRssKb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss;  // KiB on Linux
}

TEST(StreamingPdesTest, TraceReplayOf200kFlowsStaysBoundedAcrossDomains) {
  // The bounded-memory contract must survive the partition: 200k
  // single-packet flows replayed over a k=4 fat-tree with every flow
  // crossing exactly one pod boundary (dst = src + 4 mod 16), streamed
  // through a 100 us launch window into 8 event domains. Eagerly this
  // point retains O(total flows) of flow list + sender QPs + records;
  // streamed, the coordinator-side per-lane drains must keep RSS at
  // O(concurrent flows) no matter how many lanes the fabric runs.
  const std::string trace = testing::TempDir() + "pdes_rss_trace.csv";
  {
    std::ofstream out(trace);
    for (int i = 0; i < 200'000; ++i) {
      out << (static_cast<double>(i) * 0.15) << ',' << (i % 16) << ','
          << ((i + 4) % 16) << ",1000\n";
    }
  }
  ExperimentSpec spec;
  spec.name = "pdes_rss_smoke";
  spec.topology = "fat_tree";
  spec.topo.k = 4;
  spec.workload = "trace";
  spec.wl.trace_file = trace;
  spec.run.duration = 0;
  spec.run.max_sim_time = 2 * kSecond;
  spec.run.monitor = false;
  spec.run.launch_window = Microseconds(100);
  spec.scenario.exec_domains = 8;
  ValidateSpec(spec);

  const long before_kb = PeakRssKb();
  FctSinkOptions options;  // stats-only: no CSV, just the sketches
  FctSink sink(options);
  const ExperimentPointResult result =
      RunExperimentPoint(spec, /*intra_threads=*/4, &sink);
  const long grown_kb = PeakRssKb() - before_kb;

  EXPECT_EQ(result.flows_total, 200'000u);
  EXPECT_EQ(result.flows_completed, 200'000u);
  EXPECT_EQ(sink.count(), 200'000u);
  EXPECT_GE(sink.mean_slowdown(), 1.0);
  EXPECT_LT(grown_kb, 64L * 1024) << "multi-domain streaming run grew RSS by "
                                  << grown_kb << " KiB — per-flow state is "
                                  << "leaking across lanes";
  std::remove(trace.c_str());
}

}  // namespace
}  // namespace fncc
