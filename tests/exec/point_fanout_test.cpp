// The point fan-out contract of RunExperimentPoints: results come back in
// point order at every thread count, every point runs even when another
// throws, the lowest-index failure is the one rethrown, and a num_threads
// = 0 budget resolves through DefaultThreadCount() (FNCC_THREADS first).
#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "harness/experiment_runner.hpp"
#include "stats/fct_sink.hpp"

namespace fncc {
namespace {

/// k=4 fat-tree, web_search poisson, run to completion: every flow
/// completes, so a point's sink must end with exactly `num_flows` records.
ExperimentSpec SmallFatTree(const std::string& label, int num_flows) {
  ExperimentSpec spec;
  spec.label = label;
  spec.topology = "fat_tree";
  spec.topo.k = 4;
  spec.workload = "poisson";
  spec.cdf = "web_search";
  spec.wl.load = 0.5;
  spec.wl.num_flows = num_flows;
  spec.run.duration = 0;
  return spec;
}

TEST(PointFanoutTest, ResultsComeBackInPointOrder) {
  std::vector<ExperimentSpec> points;
  for (int i = 0; i < 6; ++i) {
    points.push_back(SmallFatTree(std::to_string(i), 4 + i));
  }
  for (int threads : {1, 2, 8}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    const std::vector<ExperimentPointResult> results =
        RunExperimentPoints(points, threads);
    ASSERT_EQ(results.size(), points.size());
    for (std::size_t i = 0; i < points.size(); ++i) {
      EXPECT_EQ(results[i].label, points[i].label);
      EXPECT_EQ(results[i].flows_total, 4 + i);
    }
  }
}

TEST(PointFanoutTest, LowestIndexFailureWinsAndEveryPointRuns) {
  // Points 1 and 3 fail validation with different messages. Whichever
  // fails first on the clock, the rethrown error must be point 1's, and
  // the valid points must still stream all their flows to their sinks.
  constexpr int kFlows = 12;
  for (int threads : {1, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    std::vector<ExperimentSpec> points;
    for (int i = 0; i < 5; ++i) {
      points.push_back(SmallFatTree(std::to_string(i), kFlows));
    }
    points[1].topology = "no_such_topology";
    points[3].workload = "no_such_workload";
    std::vector<std::unique_ptr<FctSink>> sinks;
    std::vector<FctSink*> sink_ptrs;
    for (std::size_t i = 0; i < points.size(); ++i) {
      sinks.push_back(std::make_unique<FctSink>(FctSinkOptions{}));
      sink_ptrs.push_back(sinks.back().get());
    }
    try {
      RunExperimentPoints(points, threads, sink_ptrs);
      FAIL() << "expected a SpecError";
    } catch (const SpecError& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("no_such_topology"), std::string::npos) << what;
      EXPECT_EQ(what.find("no_such_workload"), std::string::npos) << what;
    }
    for (std::size_t i : {0u, 2u, 4u}) {
      EXPECT_EQ(sinks[i]->count(), static_cast<std::uint64_t>(kFlows))
          << "point " << i;
    }
  }
}

TEST(PointFanoutTest, EmptyPointListReturnsEmpty) {
  EXPECT_TRUE(RunExperimentPoints({}, 4).empty());
}

TEST(PointFanoutTest, DefaultThreadCountHonorsEnvOverride) {
  ASSERT_EQ(unsetenv("FNCC_THREADS"), 0);
  const int hardware = DefaultThreadCount();
  EXPECT_GE(hardware, 1);
  ASSERT_EQ(setenv("FNCC_THREADS", "3", /*overwrite=*/1), 0);
  EXPECT_EQ(DefaultThreadCount(), 3);
  ASSERT_EQ(setenv("FNCC_THREADS", "", 1), 0);
  EXPECT_EQ(DefaultThreadCount(), hardware) << "empty means unset";
  // Anything else that is not a positive integer is an error, never a
  // silent fallback or a truncated number.
  for (const char* bad : {"not-a-number", "2x", "-3", "0"}) {
    ASSERT_EQ(setenv("FNCC_THREADS", bad, 1), 0);
    EXPECT_THROW((void)DefaultThreadCount(), std::invalid_argument) << bad;
  }
  ASSERT_EQ(unsetenv("FNCC_THREADS"), 0);
}

}  // namespace
}  // namespace fncc
