// Parallel-vs-serial equivalence: the same sweep run at 1, 2 and 8 threads
// must produce bit-identical simulation output (wall_time_seconds is host
// telemetry and explicitly excluded). This is the determinism contract of
// exec/SweepRunner plus the per-job Simulator+PacketPool+RNG isolation in
// the harness batch APIs — the property the fig12-fig15 benches rely on.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <iterator>
#include <string>
#include <vector>

#include "harness/dumbbell_runner.hpp"
#include "harness/experiment_runner.hpp"
#include "harness/fat_tree_runner.hpp"

namespace fncc {
namespace {

/// Doubles compared as bit patterns: "equal" here means bit-identical,
/// stricter than operator== (distinguishes -0.0 from 0.0).
::testing::AssertionResult SameBits(double a, double b) {
  if (std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b)) {
    return ::testing::AssertionSuccess();
  }
  return ::testing::AssertionFailure()
         << a << " and " << b << " differ in bit pattern";
}

void ExpectSeriesIdentical(const TimeSeries& a, const TimeSeries& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.samples()[i].t, b.samples()[i].t) << "sample " << i;
    EXPECT_TRUE(SameBits(a.samples()[i].value, b.samples()[i].value))
        << "sample " << i;
  }
}

void ExpectMicroResultsIdentical(const MicroRunResult& a,
                                 const MicroRunResult& b) {
  ExpectSeriesIdentical(a.queue_bytes, b.queue_bytes);
  ExpectSeriesIdentical(a.utilization, b.utilization);
  ASSERT_EQ(a.flows.size(), b.flows.size());
  for (std::size_t i = 0; i < a.flows.size(); ++i) {
    ExpectSeriesIdentical(a.flows[i].pacing_gbps, b.flows[i].pacing_gbps);
    ExpectSeriesIdentical(a.flows[i].goodput_gbps, b.flows[i].goodput_gbps);
  }
  EXPECT_EQ(a.pause_frames, b.pause_frames);
  EXPECT_EQ(a.resume_frames, b.resume_frames);
  EXPECT_EQ(a.drops, b.drops);
  EXPECT_EQ(a.out_of_order, b.out_of_order);
  EXPECT_EQ(a.asymmetric_acks, b.asymmetric_acks);
  EXPECT_EQ(a.lhcs_triggers, b.lhcs_triggers);
  EXPECT_EQ(a.events_processed, b.events_processed);
  EXPECT_EQ(a.pool_packets_created, b.pool_packets_created);
  EXPECT_EQ(a.pool_packets_acquired, b.pool_packets_acquired);
  // wall_time_seconds deliberately not compared: host telemetry.
}

std::vector<MicroSweepPoint> DumbbellSweepPoints() {
  // A small but non-trivial mix: different CC modes, topologies and seeds,
  // with enough traffic for INT stamping, pacing and sampling to all run.
  std::vector<MicroSweepPoint> points;
  const CcMode modes[] = {CcMode::kFncc, CcMode::kHpcc, CcMode::kDcqcn,
                          CcMode::kSwift};
  for (std::size_t m = 0; m < 4; ++m) {
    MicroSweepPoint point;
    point.config.scenario.mode = modes[m];
    point.config.scenario.seed = m + 1;
    point.config.flows = {{0, 0}, {1, Microseconds(40)}};
    point.config.duration = Microseconds(150);
    points.push_back(point);
  }
  // Two chain-merge points exercise the other topology path.
  MicroSweepPoint merge;
  merge.config.scenario.mode = CcMode::kFncc;
  merge.config.num_switches = 3;
  merge.config.flows = {{0, 0}, {1, Microseconds(40)}};
  merge.config.duration = Microseconds(150);
  merge.merge_switch = 1;
  points.push_back(merge);
  merge.merge_switch = 2;
  points.push_back(merge);
  return points;
}

TEST(SweepEquivalenceTest, DumbbellSweepBitIdenticalAcrossThreadCounts) {
  const std::vector<MicroSweepPoint> points = DumbbellSweepPoints();
  const std::vector<MicroRunResult> serial = RunMicroSweep(points, 1);
  ASSERT_EQ(serial.size(), points.size());
  for (int threads : {2, 8}) {
    const std::vector<MicroRunResult> parallel =
        RunMicroSweep(points, threads);
    ASSERT_EQ(parallel.size(), serial.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
      SCOPED_TRACE("threads=" + std::to_string(threads) + " point=" +
                   std::to_string(i));
      ExpectMicroResultsIdentical(serial[i], parallel[i]);
    }
  }
}

TEST(SweepEquivalenceTest, RepeatedParallelRunsAreStable) {
  // Same sweep twice at the same thread count: no run-to-run drift from
  // scheduling, the global uid counter, or pool reuse.
  const std::vector<MicroSweepPoint> points = DumbbellSweepPoints();
  const std::vector<MicroRunResult> first = RunMicroSweep(points, 8);
  const std::vector<MicroRunResult> second = RunMicroSweep(points, 8);
  for (std::size_t i = 0; i < first.size(); ++i) {
    SCOPED_TRACE("point=" + std::to_string(i));
    ExpectMicroResultsIdentical(first[i], second[i]);
  }
}

// All seven CcModes — the receive-path dispatch acceptance check:
// the fig13-style dumbbell series and the fat-tree FCT records must be
// bit-identical at 1 and 4 threads for every built-in algorithm, i.e. the
// dense flow table + tagged CC dispatch changed the arithmetic of nothing.
// (The before/after half of the check was run against the pre-change tree
// when this PR landed: identical output, see README "Performance".)
constexpr CcMode kAllModes[] = {
    CcMode::kFncc,  CcMode::kFnccNoLhcs, CcMode::kHpcc,  CcMode::kDcqcn,
    CcMode::kRocc,  CcMode::kTimely,     CcMode::kSwift,
};

TEST(SweepEquivalenceTest, DumbbellAllSevenModesBitIdentical1v4Threads) {
  std::vector<MicroSweepPoint> points;
  for (std::size_t m = 0; m < std::size(kAllModes); ++m) {
    MicroSweepPoint point;
    point.config.scenario.mode = kAllModes[m];
    point.config.scenario.seed = m + 1;
    point.config.flows = {{0, 0}, {1, Microseconds(40)}};
    point.config.duration = Microseconds(150);
    points.push_back(point);
  }
  const std::vector<MicroRunResult> serial = RunMicroSweep(points, 1);
  const std::vector<MicroRunResult> parallel = RunMicroSweep(points, 4);
  ASSERT_EQ(parallel.size(), serial.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    SCOPED_TRACE(std::string("mode=") + CcModeName(kAllModes[i]));
    ExpectMicroResultsIdentical(serial[i], parallel[i]);
  }
}

TEST(SweepEquivalenceTest, FatTreeAllSevenModesBitIdentical1v4Threads) {
  std::vector<FatTreeRunConfig> configs(std::size(kAllModes));
  for (std::size_t m = 0; m < std::size(kAllModes); ++m) {
    configs[m].scenario.mode = kAllModes[m];
    configs[m].k = 4;
    configs[m].num_flows = 40;
    configs[m].cdf = SizeCdf::WebSearch();
    configs[m].load = 0.5;
  }
  const std::vector<FatTreeRunResult> serial = RunFatTreeSweep(configs, 1);
  const std::vector<FatTreeRunResult> parallel = RunFatTreeSweep(configs, 4);
  ASSERT_EQ(parallel.size(), serial.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    SCOPED_TRACE(std::string("mode=") + CcModeName(kAllModes[i]));
    const FatTreeRunResult& a = serial[i];
    const FatTreeRunResult& b = parallel[i];
    EXPECT_EQ(a.flows_completed, b.flows_completed);
    EXPECT_EQ(a.events_processed, b.events_processed);
    ASSERT_EQ(a.fct.count(), b.fct.count());
    for (std::size_t f = 0; f < a.fct.count(); ++f) {
      const FlowResult& fa = a.fct.results()[f];
      const FlowResult& fb = b.fct.results()[f];
      EXPECT_EQ(fa.spec.id, fb.spec.id) << "flow " << f;
      EXPECT_EQ(fa.fct, fb.fct) << "flow " << f;
      EXPECT_TRUE(SameBits(fa.slowdown, fb.slowdown)) << "flow " << f;
    }
  }
}

TEST(SweepEquivalenceTest, FatTreeFctRecordsBitIdenticalAcrossThreadCounts) {
  // The fig14/fig15 shape in miniature: per-mode fat-tree points whose FCT
  // records (the raw material of every slowdown stat) must not depend on
  // the thread count.
  std::vector<FatTreeRunConfig> configs(3);
  configs[0].scenario.mode = CcMode::kFncc;
  configs[1].scenario.mode = CcMode::kHpcc;
  configs[2].scenario.mode = CcMode::kDcqcn;
  for (FatTreeRunConfig& c : configs) {
    c.k = 4;
    c.num_flows = 60;
    c.cdf = SizeCdf::WebSearch();
    c.load = 0.5;
  }

  const std::vector<FatTreeRunResult> serial = RunFatTreeSweep(configs, 1);
  for (int threads : {2, 8}) {
    const std::vector<FatTreeRunResult> parallel =
        RunFatTreeSweep(configs, threads);
    ASSERT_EQ(parallel.size(), serial.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
      SCOPED_TRACE("threads=" + std::to_string(threads) + " mode=" +
                   std::to_string(i));
      const FatTreeRunResult& a = serial[i];
      const FatTreeRunResult& b = parallel[i];
      EXPECT_EQ(a.flows_completed, b.flows_completed);
      EXPECT_EQ(a.flows_total, b.flows_total);
      EXPECT_EQ(a.pause_frames, b.pause_frames);
      EXPECT_EQ(a.drops, b.drops);
      EXPECT_EQ(a.retransmits, b.retransmits);
      EXPECT_EQ(a.asymmetric_acks, b.asymmetric_acks);
      EXPECT_EQ(a.events_processed, b.events_processed);
      ASSERT_EQ(a.fct.count(), b.fct.count());
      for (std::size_t f = 0; f < a.fct.count(); ++f) {
        const FlowResult& fa = a.fct.results()[f];
        const FlowResult& fb = b.fct.results()[f];
        EXPECT_EQ(fa.spec.id, fb.spec.id) << "flow " << f;
        EXPECT_EQ(fa.spec.src, fb.spec.src) << "flow " << f;
        EXPECT_EQ(fa.spec.dst, fb.spec.dst) << "flow " << f;
        EXPECT_EQ(fa.spec.size_bytes, fb.spec.size_bytes) << "flow " << f;
        EXPECT_EQ(fa.spec.start_time, fb.spec.start_time) << "flow " << f;
        EXPECT_EQ(fa.spec.ideal_fct, fb.spec.ideal_fct) << "flow " << f;
        EXPECT_EQ(fa.fct, fb.fct) << "flow " << f;
        EXPECT_TRUE(SameBits(fa.slowdown, fb.slowdown)) << "flow " << f;
      }
    }
  }
}

// The declarative fncc_run code path (spec text -> ExpandSweep ->
// RunExperimentPoints) on a *new* registry scenario — leaf-spine +
// all-to-all shuffle — must keep the same guarantee for ALL seven CC
// modes: FCT records and monitored series bit-identical at 1 vs 4
// threads. Sweeping every mode here (not just the figure trio) makes the
// batched-delivery receive path's determinism a per-algorithm contract:
// batch formation, SoA prefetching and switch-on-mode dispatch must not
// perturb the (time, seq) event order of any scheme.
TEST(SweepEquivalenceTest, LeafSpineAllToAllSpecBitIdentical1v4Threads) {
  const ExperimentSpec spec = ParseSpecText(R"(
name = leaf_spine_equivalence
topology.kind = leaf_spine
topology.leaves = 2
topology.spines = 2
topology.hosts_per_leaf = 2
topology.oversubscription = 2
workload.kind = all_to_all
workload.size_bytes = 40000
workload.stagger_us = 1
run.duration_us = 0
run.max_sim_ms = 50
sweep.mode = FNCC,FNCC-noLHCS,HPCC,DCQCN,RoCC,Timely,Swift
sweep.seed = 1
)");
  const std::vector<ExperimentSpec> points = ExpandSweep(spec);
  ASSERT_EQ(points.size(), std::size(kAllModes));
  const std::vector<ExperimentPointResult> serial =
      RunExperimentPoints(points, 1);
  const std::vector<ExperimentPointResult> parallel =
      RunExperimentPoints(points, 4);
  ASSERT_EQ(parallel.size(), serial.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    SCOPED_TRACE("point=" + points[i].label);
    const ExperimentPointResult& a = serial[i];
    const ExperimentPointResult& b = parallel[i];
    EXPECT_EQ(a.flows_completed, b.flows_completed);
    EXPECT_GT(a.flows_total, 0u);
    EXPECT_EQ(a.flows_total, b.flows_total);
    EXPECT_EQ(a.pause_frames, b.pause_frames);
    EXPECT_EQ(a.drops, b.drops);
    EXPECT_EQ(a.retransmits, b.retransmits);
    EXPECT_EQ(a.events_processed, b.events_processed);
    ASSERT_EQ(a.fct.count(), b.fct.count());
    EXPECT_EQ(a.fct.count(), a.flows_total);  // shuffle ran to completion
    for (std::size_t f = 0; f < a.fct.count(); ++f) {
      const FlowResult& fa = a.fct.results()[f];
      const FlowResult& fb = b.fct.results()[f];
      EXPECT_EQ(fa.spec.id, fb.spec.id) << "flow " << f;
      EXPECT_EQ(fa.spec.src, fb.spec.src) << "flow " << f;
      EXPECT_EQ(fa.spec.dst, fb.spec.dst) << "flow " << f;
      EXPECT_EQ(fa.fct, fb.fct) << "flow " << f;
      EXPECT_TRUE(SameBits(fa.slowdown, fb.slowdown)) << "flow " << f;
    }
    // leaf_spine exposes a congestion point, so the monitored series run
    // through the same per-thread-count contract.
    ExpectSeriesIdentical(a.queue_bytes, b.queue_bytes);
    ExpectSeriesIdentical(a.utilization, b.utilization);
  }
}

// ----------------------------------------------------------------------
// Domain equivalence: the conservative-PDES partition (scenario.exec_domains
// + exec/DomainScheduler) must be invisible in every output. For each CC
// mode the serial single-lane run is the reference; the same point run at
// exec_domains = 2 and 8, each at 1 and 4 worker threads, must reproduce
// its FCT records, counters and monitored series bit for bit. Pool
// telemetry is deliberately NOT compared: which lane's arena services a
// packet depends on the partition (see ExperimentPointResult).

ExperimentPointResult RunDomainPoint(const char* spec_text, CcMode mode,
                                     int domains, int threads) {
  ExperimentSpec spec = ParseSpecText(spec_text);
  spec.scenario.mode = mode;
  spec.scenario.exec_domains = domains;
  return RunExperimentPoint(spec, threads);
}

void ExpectDomainResultsIdentical(const ExperimentPointResult& a,
                                  const ExperimentPointResult& b) {
  EXPECT_EQ(a.flows_completed, b.flows_completed);
  EXPECT_EQ(a.flows_total, b.flows_total);
  EXPECT_EQ(a.pause_frames, b.pause_frames);
  EXPECT_EQ(a.resume_frames, b.resume_frames);
  EXPECT_EQ(a.drops, b.drops);
  EXPECT_EQ(a.retransmits, b.retransmits);
  EXPECT_EQ(a.out_of_order, b.out_of_order);
  EXPECT_EQ(a.asymmetric_acks, b.asymmetric_acks);
  EXPECT_EQ(a.lhcs_triggers, b.lhcs_triggers);
  EXPECT_EQ(a.events_processed, b.events_processed);
  ASSERT_EQ(a.fct.count(), b.fct.count());
  for (std::size_t f = 0; f < a.fct.count(); ++f) {
    const FlowResult& fa = a.fct.results()[f];
    const FlowResult& fb = b.fct.results()[f];
    EXPECT_EQ(fa.spec.id, fb.spec.id) << "flow " << f;
    EXPECT_EQ(fa.spec.src, fb.spec.src) << "flow " << f;
    EXPECT_EQ(fa.spec.dst, fb.spec.dst) << "flow " << f;
    EXPECT_EQ(fa.spec.size_bytes, fb.spec.size_bytes) << "flow " << f;
    EXPECT_EQ(fa.spec.start_time, fb.spec.start_time) << "flow " << f;
    EXPECT_EQ(fa.fct, fb.fct) << "flow " << f;
    EXPECT_TRUE(SameBits(fa.slowdown, fb.slowdown)) << "flow " << f;
  }
  ExpectSeriesIdentical(a.queue_bytes, b.queue_bytes);
  ExpectSeriesIdentical(a.utilization, b.utilization);
  ASSERT_EQ(a.flows.size(), b.flows.size());
  for (std::size_t i = 0; i < a.flows.size(); ++i) {
    ExpectSeriesIdentical(a.flows[i].pacing_gbps, b.flows[i].pacing_gbps);
    ExpectSeriesIdentical(a.flows[i].goodput_gbps, b.flows[i].goodput_gbps);
  }
}

void RunDomainMatrix(const char* spec_text) {
  for (CcMode mode : kAllModes) {
    const ExperimentPointResult base = RunDomainPoint(spec_text, mode, 1, 1);
    EXPECT_GT(base.flows_total, 0u);
    for (int domains : {2, 8}) {
      for (int threads : {1, 4}) {
        SCOPED_TRACE(std::string("mode=") + CcModeName(mode) +
                     " domains=" + std::to_string(domains) +
                     " threads=" + std::to_string(threads));
        ExpectDomainResultsIdentical(
            base, RunDomainPoint(spec_text, mode, domains, threads));
      }
    }
  }
}

TEST(DomainEquivalenceTest, FatTreeFctBitIdenticalAcrossDomainsAllModes) {
  // Per-pod partition of a k=4 fat-tree under a size-mixed poisson load:
  // every flow crosses at least one domain boundary (host -> edge stays
  // in-pod, but the workload spreads sources over all pods).
  RunDomainMatrix(R"(
name = fat_tree_domain_equivalence
topology.kind = fat_tree
topology.k = 4
workload.kind = poisson
workload.num_flows = 40
workload.cdf = web_search
workload.load = 0.5
run.duration_us = 0
run.max_sim_ms = 50
)");
}

TEST(DomainEquivalenceTest, LeafSpineFctBitIdenticalAcrossDomainsAllModes) {
  // Per-leaf-group partition with the spine layer in its own domain; the
  // all-to-all shuffle makes every leaf pair exchange cross-domain
  // handoffs in both directions.
  RunDomainMatrix(R"(
name = leaf_spine_domain_equivalence
topology.kind = leaf_spine
topology.leaves = 2
topology.spines = 2
topology.hosts_per_leaf = 2
topology.oversubscription = 2
workload.kind = all_to_all
workload.size_bytes = 40000
workload.stagger_us = 1
run.duration_us = 0
run.max_sim_ms = 50
)");
}

TEST(DomainEquivalenceTest, DumbbellSeriesBitIdenticalAcrossDomainsAllModes) {
  // The dumbbell has no natural partition (every node in group 0), so any
  // exec_domains value degenerates to one populated lane — the fallback
  // path. Its monitored time series must still be untouched.
  RunDomainMatrix(R"(
name = dumbbell_domain_equivalence
topology.kind = dumbbell
topology.num_senders = 2
workload.kind = elephants
workload.flows = 0@0,1@40
run.duration_us = 150
)");
}

}  // namespace
}  // namespace fncc
