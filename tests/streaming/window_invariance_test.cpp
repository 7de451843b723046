// The launch window is an execution knob, not a model parameter: every CC
// mode must produce the same FCT bytes and counters whether its flows all
// launch before the run (run.launch_window_us = 0) or 100 us ahead of the
// clock. Covers a run-to-completion poisson fat-tree and a fixed-duration
// dumbbell whose elephants are sized to the run (size_bytes = 0).
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "harness/experiment_runner.hpp"
#include "harness/experiment_spec.hpp"
#include "stats/csv.hpp"

namespace fncc {
namespace {

std::string FctCsvBytes(const ExperimentPointResult& r,
                        const std::string& name) {
  const std::string path = testing::TempDir() + name;
  EXPECT_TRUE(WriteFctCsv(path, r.fct));
  std::ifstream in(path);
  std::ostringstream out;
  out << in.rdbuf();
  std::remove(path.c_str());
  return out.str();
}

/// Runs `spec` at window 0 and at window 100 us and compares the two,
/// events_processed included: a run-to-completion point counts RoCC's
/// never-stopping switch PI ticks and the timer carriers that outlive
/// their flows up to the end of the drain chunk that saw the last
/// completion, and once every flow is launched chunks end on the same
/// 2 ms grid at every window.
void ExpectWindowInvariant(ExperimentSpec spec) {
  spec.run.launch_window = 0;
  ValidateSpec(spec);
  const ExperimentPointResult ref = RunExperimentPoint(spec);
  spec.run.launch_window = Microseconds(100);
  ValidateSpec(spec);
  const ExperimentPointResult got = RunExperimentPoint(spec);

  const std::string tag = spec.name + "_" + CcModeName(spec.scenario.mode);
  EXPECT_EQ(FctCsvBytes(got, tag + "_w100.csv"),
            FctCsvBytes(ref, tag + "_w0.csv"));
  EXPECT_EQ(got.flows_total, ref.flows_total);
  EXPECT_EQ(got.flows_total, spec.wl.long_flows.empty()
                                 ? static_cast<std::size_t>(spec.wl.num_flows)
                                 : spec.wl.long_flows.size());
  EXPECT_EQ(got.flows_completed, ref.flows_completed);
  EXPECT_EQ(got.pause_frames, ref.pause_frames);
  EXPECT_EQ(got.resume_frames, ref.resume_frames);
  EXPECT_EQ(got.drops, ref.drops);
  EXPECT_EQ(got.retransmits, ref.retransmits);
  EXPECT_EQ(got.out_of_order, ref.out_of_order);
  EXPECT_EQ(got.late_data_drops, ref.late_data_drops);
  EXPECT_EQ(got.asymmetric_acks, ref.asymmetric_acks);
  EXPECT_EQ(got.lhcs_triggers, ref.lhcs_triggers);
  EXPECT_EQ(got.events_processed, ref.events_processed);
}

TEST(WindowInvarianceTest, PoissonFatTreeEveryMode) {
  for (CcMode mode : kAllCcModes) {
    SCOPED_TRACE(CcModeName(mode));
    ExperimentSpec spec;
    spec.name = "window_fat_tree";
    spec.topology = "fat_tree";
    spec.topo.k = 4;
    spec.workload = "poisson";
    spec.cdf = "web_search";
    spec.wl.num_flows = 60;
    spec.scenario.mode = mode;
    spec.run.duration = 0;  // run to completion
    spec.run.monitor = false;
    ExpectWindowInvariant(spec);
  }
}

TEST(WindowInvarianceTest, DurationBudgetDumbbellEveryMode) {
  // The default point: two elephants sized to the 1300 us run, the second
  // starting at 300 us — past the first window, so it launches mid-run —
  // and a third starting at 2000 us, after the run: window 0 launches it
  // and window 100 never does, yet both count it in flows_total. Both
  // runs stop at the duration, so every event count matches.
  for (CcMode mode : kAllCcModes) {
    SCOPED_TRACE(CcModeName(mode));
    ExperimentSpec spec;
    spec.name = "window_dumbbell";
    ApplySpecOverrides(spec, {"workload.flows=0@0,1@300,0@2000",
                              "run.monitor=false"});
    spec.scenario.mode = mode;
    ASSERT_EQ(spec.wl.size_bytes, 0u);
    ExpectWindowInvariant(spec);
  }
}

}  // namespace
}  // namespace fncc
