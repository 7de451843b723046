// A 100 us launch window (run.launch_window > 0) against window 0, where
// every flow launches before the run ("eager" below): identical FCT
// records and counters on a Poisson point and on a point truncated by
// run.max_sim_time, byte-identical streamed CSV, and the bounded-memory
// contract — a
// 200k-flow trace replays without O(total flows) resident growth.
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

ExperimentSpec PoissonPoint() {
  ExperimentSpec spec;
  spec.name = "streaming_equivalence";
  spec.topology = "dumbbell";
  spec.topo.num_senders = 4;
  spec.workload = "poisson";
  spec.wl.load = 0.6;
  spec.wl.num_flows = 400;
  spec.run.duration = 0;  // run to completion
  spec.run.max_sim_time = 500 * kMillisecond;
  spec.run.monitor = false;
  ValidateSpec(spec);
  return spec;
}

std::string Slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

TEST(StreamingLaunchTest, MatchesEagerOnPoissonPoint) {
  ExperimentSpec eager = PoissonPoint();
  const ExperimentPointResult ref = RunExperimentPoint(eager);
  ASSERT_EQ(ref.flows_completed, 400u);

  ExperimentSpec streaming = PoissonPoint();
  streaming.run.launch_window = Microseconds(100);
  ValidateSpec(streaming);
  const ExperimentPointResult got = RunExperimentPoint(streaming);

  EXPECT_EQ(got.flows_total, ref.flows_total);
  EXPECT_EQ(got.flows_completed, ref.flows_completed);
  EXPECT_EQ(got.retransmits, ref.retransmits);
  EXPECT_EQ(got.drops, ref.drops);
  EXPECT_EQ(got.pause_frames, ref.pause_frames);
  EXPECT_EQ(got.asymmetric_acks, ref.asymmetric_acks);
  EXPECT_EQ(got.lhcs_triggers, ref.lhcs_triggers);

  // Record-for-record: the streaming drain re-stamps recycled FlowTable
  // ids with dense launch serials, so specs and FCTs match exactly.
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

  // End to end through an FctSink: streamed CSV bytes == eager WriteFctCsv.
  const std::string eager_csv = testing::TempDir() + "streaming_ref.csv";
  const std::string stream_csv = testing::TempDir() + "streaming_got.csv";
  ASSERT_TRUE(WriteFctCsv(eager_csv, ref.fct));
  FctSinkOptions options;
  options.csv_path = stream_csv;
  FctSink sink(options);
  const ExperimentPointResult sunk =
      RunExperimentPoint(streaming, /*intra_threads=*/1, &sink);
  ASSERT_TRUE(sink.Finish());
  EXPECT_EQ(sunk.fct.count(), 0u);  // streamed, not retained
  EXPECT_EQ(sink.count(), ref.fct.count());
  EXPECT_EQ(Slurp(stream_csv), Slurp(eager_csv));
  std::remove(eager_csv.c_str());
  std::remove(stream_csv.c_str());
}

// A run-to-completion point cut off by run.max_sim_time: window 0 must
// stop exactly at the wall, as a windowed run does, so both report the
// same truncated run (window 0 once overshot to the next 2 ms chunk
// boundary and completed more flows).
TEST(StreamingLaunchTest, WallTruncatedPointMatchesEager) {
  ExperimentSpec eager;
  eager.name = "streaming_wall_truncated";
  eager.topology = "fat_tree";
  eager.topo.k = 4;
  eager.workload = "poisson";
  eager.cdf = "web_search";
  eager.wl.num_flows = 60;
  eager.scenario.mode = CcMode::kFncc;
  eager.run.duration = 0;
  eager.run.max_sim_time = 1 * kMillisecond;
  eager.run.monitor = false;
  const ExperimentPointResult ref = RunExperimentPoint(eager);
  ASSERT_GT(ref.flows_completed, 0u);
  ASSERT_LT(ref.flows_completed, ref.flows_total) << "the wall must bite";

  ExperimentSpec streaming = eager;
  streaming.run.launch_window = Microseconds(100);
  const ExperimentPointResult got = RunExperimentPoint(streaming);

  EXPECT_EQ(got.flows_completed, ref.flows_completed);
  EXPECT_EQ(got.retransmits, ref.retransmits);
  EXPECT_EQ(got.drops, ref.drops);
  EXPECT_EQ(got.pause_frames, ref.pause_frames);
  EXPECT_EQ(got.out_of_order, ref.out_of_order);
  EXPECT_EQ(got.events_processed, ref.events_processed);
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

long PeakRssKb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss;  // KiB on Linux
}

TEST(StreamingLaunchTest, TraceReplayOf200kFlowsStaysBounded) {
  // 200k single-packet flows, three senders into the dumbbell receiver at
  // ~0.53 load. Streamed, the run must not grow the process by anything
  // near the O(total flows) footprint the eager path would retain
  // (~100 MB of flow list + sender QPs + records at this count).
  const std::string trace = testing::TempDir() + "rss_trace.csv";
  {
    std::ofstream out(trace);
    for (int i = 0; i < 200'000; ++i) {
      out << (static_cast<double>(i) * 0.15) << ',' << (i % 3) << ",3,1000\n";
    }
  }
  ExperimentSpec spec;
  spec.name = "rss_smoke";
  spec.topology = "dumbbell";
  spec.topo.num_senders = 3;
  spec.workload = "trace";
  spec.wl.trace_file = trace;
  spec.run.duration = 0;
  spec.run.max_sim_time = 2 * kSecond;
  spec.run.monitor = false;
  spec.run.launch_window = Microseconds(100);
  ValidateSpec(spec);

  const long before_kb = PeakRssKb();
  FctSinkOptions options;  // stats-only: no CSV, just the sketches
  FctSink sink(options);
  const ExperimentPointResult result =
      RunExperimentPoint(spec, /*intra_threads=*/1, &sink);
  const long grown_kb = PeakRssKb() - before_kb;

  EXPECT_EQ(result.flows_total, 200'000u);
  EXPECT_EQ(result.flows_completed, 200'000u);
  EXPECT_EQ(sink.count(), 200'000u);
  EXPECT_GE(sink.mean_slowdown(), 1.0);
  EXPECT_LT(grown_kb, 64L * 1024) << "streaming run grew RSS by " << grown_kb
                                  << " KiB — per-flow state is leaking";
  std::remove(trace.c_str());
}

}  // namespace
}  // namespace fncc
