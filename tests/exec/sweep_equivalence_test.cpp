// Parallel-vs-serial equivalence: the same point list run at 1, 2 and 8
// threads must produce bit-identical simulation output (wall_time_seconds
// is host telemetry and explicitly excluded). This is the determinism
// contract of RunExperimentPoints' point fan-out plus its per-point
// Simulator + PacketPool + RNG isolation — the property every figure bench
// and fncc_run sweep relies on. The second half extends it to the
// conservative-PDES partition (scenario.exec_domains).
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <iterator>
#include <string>
#include <vector>

#include "harness/experiment_runner.hpp"

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

/// Every simulated output of a point: counters, FCT records and monitored
/// series. Pool telemetry depends on which lane's arena serviced a packet,
/// so it is compared only when both runs share one partition (a thread
/// count comparison), never across exec_domains values.
void ExpectResultsIdentical(const ExperimentPointResult& a,
                            const ExperimentPointResult& b,
                            bool same_partition = true) {
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
  if (same_partition) {
    EXPECT_EQ(a.pool_packets_created, b.pool_packets_created);
    EXPECT_EQ(a.pool_packets_acquired, b.pool_packets_acquired);
  }
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
  ExpectSeriesIdentical(a.queue_bytes, b.queue_bytes);
  ExpectSeriesIdentical(a.utilization, b.utilization);
  ASSERT_EQ(a.flows.size(), b.flows.size());
  for (std::size_t i = 0; i < a.flows.size(); ++i) {
    ExpectSeriesIdentical(a.flows[i].pacing_gbps, b.flows[i].pacing_gbps);
    ExpectSeriesIdentical(a.flows[i].goodput_gbps, b.flows[i].goodput_gbps);
  }
  // wall_time_seconds deliberately not compared: host telemetry.
}

/// Two elephants, flow1 joining flow0 at 40 us, over a 150 us run on the
/// spec's default topology (the Fig. 10 dumbbell).
ExperimentSpec TwoElephants(CcMode mode) {
  ExperimentSpec spec;
  spec.scenario.mode = mode;
  spec.wl.long_flows = {{0, 0}, {1, Microseconds(40)}};
  spec.run.duration = Microseconds(150);
  return spec;
}

/// k=4 fat-tree, web_search poisson at 50% load, run to completion.
ExperimentSpec SmallFatTree(CcMode mode, int num_flows) {
  ExperimentSpec spec;
  spec.topology = "fat_tree";
  spec.topo.k = 4;
  spec.workload = "poisson";
  spec.cdf = "web_search";
  spec.wl.load = 0.5;
  spec.wl.num_flows = num_flows;
  spec.scenario.mode = mode;
  spec.run.duration = 0;
  return spec;
}

void ExpectAllIdentical(const std::vector<ExperimentPointResult>& a,
                        const std::vector<ExperimentPointResult>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    SCOPED_TRACE("point=" + std::to_string(i));
    ExpectResultsIdentical(a[i], b[i]);
  }
}

std::vector<ExperimentSpec> DumbbellSweepPoints() {
  // A small but non-trivial mix: different CC modes, topologies and seeds,
  // with enough traffic for INT stamping, pacing and sampling to all run.
  std::vector<ExperimentSpec> points;
  const CcMode modes[] = {CcMode::kFncc, CcMode::kHpcc, CcMode::kDcqcn,
                          CcMode::kSwift};
  for (std::size_t m = 0; m < 4; ++m) {
    ExperimentSpec point = TwoElephants(modes[m]);
    point.scenario.seed = m + 1;
    points.push_back(point);
  }
  // Two chain-merge points exercise the other topology path.
  ExperimentSpec merge = TwoElephants(CcMode::kFncc);
  merge.topology = "chain_merge";
  merge.topo.num_switches = 3;
  merge.topo.merge_switch = 1;
  points.push_back(merge);
  merge.topo.merge_switch = 2;
  points.push_back(merge);
  return points;
}

TEST(SweepEquivalenceTest, DumbbellSweepBitIdenticalAcrossThreadCounts) {
  const std::vector<ExperimentSpec> points = DumbbellSweepPoints();
  const std::vector<ExperimentPointResult> serial =
      RunExperimentPoints(points, 1);
  ASSERT_EQ(serial.size(), points.size());
  for (int threads : {2, 8}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    ExpectAllIdentical(serial, RunExperimentPoints(points, threads));
  }
}

TEST(SweepEquivalenceTest, RepeatedParallelRunsAreStable) {
  // Same sweep twice at the same thread count: no run-to-run drift from
  // scheduling or pool reuse.
  const std::vector<ExperimentSpec> points = DumbbellSweepPoints();
  ExpectAllIdentical(RunExperimentPoints(points, 8),
                     RunExperimentPoints(points, 8));
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
  std::vector<ExperimentSpec> points;
  for (std::size_t m = 0; m < std::size(kAllModes); ++m) {
    ExperimentSpec point = TwoElephants(kAllModes[m]);
    point.scenario.seed = m + 1;
    points.push_back(point);
  }
  ExpectAllIdentical(RunExperimentPoints(points, 1),
                     RunExperimentPoints(points, 4));
}

TEST(SweepEquivalenceTest, FatTreeAllSevenModesBitIdentical1v4Threads) {
  std::vector<ExperimentSpec> points;
  for (CcMode mode : kAllModes) points.push_back(SmallFatTree(mode, 40));
  ExpectAllIdentical(RunExperimentPoints(points, 1),
                     RunExperimentPoints(points, 4));
}

TEST(SweepEquivalenceTest, FatTreeFctRecordsBitIdenticalAcrossThreadCounts) {
  // The fig14/fig15 shape in miniature: per-mode fat-tree points whose FCT
  // records (the raw material of every slowdown stat) must not depend on
  // the thread count.
  const std::vector<ExperimentSpec> points = {
      SmallFatTree(CcMode::kFncc, 60), SmallFatTree(CcMode::kHpcc, 60),
      SmallFatTree(CcMode::kDcqcn, 60)};
  const std::vector<ExperimentPointResult> serial =
      RunExperimentPoints(points, 1);
  for (int threads : {2, 8}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    ExpectAllIdentical(serial, RunExperimentPoints(points, threads));
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
    EXPECT_GT(serial[i].flows_total, 0u);
    // The shuffle ran to completion.
    EXPECT_EQ(serial[i].fct.count(), serial[i].flows_total);
    // leaf_spine exposes a congestion point, so the monitored series run
    // through the same per-thread-count contract.
    ExpectResultsIdentical(serial[i], parallel[i]);
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

void RunDomainMatrix(const char* spec_text) {
  for (CcMode mode : kAllModes) {
    const ExperimentPointResult base = RunDomainPoint(spec_text, mode, 1, 1);
    EXPECT_GT(base.flows_total, 0u);
    for (int domains : {2, 8}) {
      std::uint64_t windows_at_one_thread = 0;
      for (int threads : {1, 4}) {
        SCOPED_TRACE(std::string("mode=") + CcModeName(mode) +
                     " domains=" + std::to_string(domains) +
                     " threads=" + std::to_string(threads));
        const ExperimentPointResult r =
            RunDomainPoint(spec_text, mode, domains, threads);
        ExpectResultsIdentical(base, r, /*same_partition=*/false);
        // The window sequence is a function of the event stream alone:
        // the engine runs the same windows at every thread count.
        if (threads == 1) {
          windows_at_one_thread = r.pdes_windows;
        } else {
          EXPECT_EQ(r.pdes_windows, windows_at_one_thread);
        }
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

TEST(DomainEquivalenceTest, FatTreeAutoSharesOneOutboxPerLanePair) {
  // exec_domains = auto on a k=4 fat-tree: one lane per pod plus the core
  // lane. Every cross-lane link joins a pod to the core, so the ports
  // crossing it share one outbox per direction: 2 x pods pairs, however
  // many ports each pair carries. Sharing must not move an output.
  constexpr const char* kSpec = R"(
name = fat_tree_auto_outboxes
topology.kind = fat_tree
topology.k = 4
workload.kind = poisson
workload.num_flows = 40
workload.cdf = web_search
workload.load = 0.5
run.duration_us = 0
run.max_sim_ms = 50
output.pdes_stats = true
)";
  const ExperimentPointResult base = RunDomainPoint(kSpec, CcMode::kFncc, 1, 1);
  EXPECT_EQ(base.pdes_stats.outbox_pairs, 0u);
  EXPECT_EQ(base.pdes_stats.outbox_bytes, 0u);
  for (int threads : {1, 2}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    const ExperimentPointResult r =
        RunDomainPoint(kSpec, CcMode::kFncc, /*auto*/ 0, threads);
    constexpr int kPods = 4;
    EXPECT_EQ(r.pdes_stats.lanes, kPods + 1);
    EXPECT_EQ(r.pdes_stats.outbox_pairs, 2u * kPods);
    EXPECT_GT(r.pdes_stats.outbox_bytes, 0u);
    ExpectResultsIdentical(base, r, /*same_partition=*/false);
  }
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
