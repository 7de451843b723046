#include <gtest/gtest.h>

#include <set>
#include <utility>
#include <vector>

#include "workload/cdf.hpp"
#include "workload/traffic_gen.hpp"

namespace fncc {
namespace {

TEST(SizeCdfTest, SamplesWithinSupport) {
  const SizeCdf cdf = SizeCdf::WebSearch();
  Rng rng(1);
  for (int i = 0; i < 10'000; ++i) {
    const auto s = cdf.Sample(rng);
    EXPECT_GE(s, 1u);
    EXPECT_LE(s, 30'000'000u);
  }
}

TEST(SizeCdfTest, EmpiricalMeanMatchesAnalytic) {
  for (const SizeCdf& cdf : {SizeCdf::WebSearch(), SizeCdf::FbHadoop()}) {
    Rng rng(7);
    double sum = 0;
    constexpr int kN = 200'000;
    for (int i = 0; i < kN; ++i) sum += static_cast<double>(cdf.Sample(rng));
    EXPECT_NEAR(sum / kN / cdf.mean_bytes(), 1.0, 0.05);
  }
}

TEST(SizeCdfTest, EmpiricalQuantilesFollowCdf) {
  const SizeCdf cdf = SizeCdf::WebSearch();
  Rng rng(3);
  int under_200k = 0;
  constexpr int kN = 100'000;
  for (int i = 0; i < kN; ++i) {
    if (cdf.Sample(rng) <= 200'000) ++under_200k;
  }
  // CDF says P(size <= 200 KB) = 0.60.
  EXPECT_NEAR(under_200k / static_cast<double>(kN), 0.60, 0.02);
}

TEST(SizeCdfTest, HadoopIsMostlySmall) {
  const SizeCdf cdf = SizeCdf::FbHadoop();
  Rng rng(5);
  int small = 0;
  constexpr int kN = 50'000;
  for (int i = 0; i < kN; ++i) {
    if (cdf.Sample(rng) < kDefaultMtuBytes) ++small;
  }
  // Most Hadoop messages fit in one MTU (paper §2.4: "most flows are
  // short").
  EXPECT_GT(small, kN / 2);
}

/// Only the host pool: enough for the poisson and list workloads that
/// draw from every host.
WorkloadHosts Pool(std::vector<NodeId> all) {
  WorkloadHosts hosts;
  hosts.all = std::move(all);
  return hosts;
}

TEST(PoissonTrafficTest, LoadMatchesTarget) {
  Rng rng(11);
  WorkloadParams p;
  p.cdf = SizeCdf::WebSearch();
  p.load = 0.5;
  p.link_gbps = 100.0;
  p.num_flows = 20'000;
  const auto flows = WorkloadRegistry::Generate(
      "poisson", rng, Pool({0, 1, 2, 3, 4, 5, 6, 7}), p);
  ASSERT_EQ(flows.size(), 20'000u);
  double total_bytes = 0;
  for (const auto& f : flows) {
    total_bytes += static_cast<double>(f.spec.size_bytes);
  }
  const double span_sec = ToSeconds(flows.back().spec.start_time);
  const double offered_gbps = total_bytes * 8.0 / span_sec / 1e9;
  // Aggregate offered rate = load * link * num_hosts = 400 Gbps.
  EXPECT_NEAR(offered_gbps / 400.0, 1.0, 0.1);
}

TEST(PoissonTrafficTest, ArrivalsMonotoneAndSrcNeverDst) {
  Rng rng(13);
  WorkloadParams p;
  p.cdf = SizeCdf::FbHadoop();
  p.num_flows = 5'000;
  const auto flows =
      WorkloadRegistry::Generate("poisson", rng, Pool({3, 5, 9, 11}), p);
  Time prev = -1;
  for (const auto& f : flows) {
    EXPECT_GE(f.spec.start_time, prev);
    prev = f.spec.start_time;
    EXPECT_NE(f.spec.src, f.spec.dst);
  }
}

TEST(PoissonTrafficTest, FlowIdsDense) {
  Rng rng(17);
  WorkloadParams p;
  p.cdf = SizeCdf::FbHadoop();
  p.num_flows = 100;
  const auto flows =
      WorkloadRegistry::Generate("poisson", rng, Pool({0, 1, 2}), p);
  ASSERT_EQ(flows.size(), 100u);
  for (std::size_t i = 0; i < flows.size(); ++i) {
    EXPECT_EQ(flows[i].spec.id, 1u + i);
  }
}

TEST(IncastTest, AllSendersTargetDst) {
  Rng rng(1);
  WorkloadHosts hosts;
  hosts.senders = {1, 2, 3, 4};
  hosts.receiver = 9;
  WorkloadParams p;
  p.size_bytes = 64'000;
  p.start_time = Microseconds(10);
  const auto flows = WorkloadRegistry::Generate("incast", rng, hosts, p);
  ASSERT_EQ(flows.size(), 4u);
  std::set<std::uint16_t> sports;
  for (const auto& f : flows) {
    EXPECT_EQ(f.spec.dst, 9);
    EXPECT_EQ(f.spec.size_bytes, 64'000u);
    EXPECT_EQ(f.spec.start_time, Microseconds(10));
    sports.insert(f.spec.sport);
  }
  EXPECT_EQ(sports.size(), 4u);  // distinct ports for ECMP entropy
}

TEST(IncastTest, StaggerSpacesStarts) {
  Rng rng(1);
  WorkloadHosts hosts;
  hosts.senders = {1, 2, 3};
  hosts.receiver = 9;
  WorkloadParams p;
  p.size_bytes = 1000;
  p.stagger = Microseconds(5);
  const auto flows = WorkloadRegistry::Generate("incast", rng, hosts, p);
  EXPECT_EQ(flows[0].spec.start_time, 0);
  EXPECT_EQ(flows[1].spec.start_time, Microseconds(5));
  EXPECT_EQ(flows[2].spec.start_time, Microseconds(10));
}

TEST(SizeCdfTest, RejectsMalformedInput) {
  // Non-monotonic sizes.
  EXPECT_THROW(SizeCdf({{1, 0.0}, {100, 0.5}, {50, 1.0}}),
               std::invalid_argument);
  // Decreasing cumulative probability.
  EXPECT_THROW(SizeCdf({{1, 0.0}, {100, 0.7}, {200, 0.5}, {300, 1.0}}),
               std::invalid_argument);
  // Not normalized (doesn't end at 1).
  EXPECT_THROW(SizeCdf({{1, 0.0}, {100, 0.9}}), std::invalid_argument);
  // Probability outside [0, 1].
  EXPECT_THROW(SizeCdf({{1, -0.1}, {100, 1.0}}), std::invalid_argument);
  // Too few points.
  EXPECT_THROW(SizeCdf({{1, 1.0}}), std::invalid_argument);
  // The error message names the defect.
  try {
    SizeCdf({{1, 0.0}, {100, 0.7}, {200, 0.5}, {300, 1.0}});
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("decreases"), std::string::npos)
        << e.what();
  }
}

TEST(SizeCdfTest, ByNameRoundTrip) {
  for (const std::string& name : SizeCdf::Names()) {
    EXPECT_GT(SizeCdf::ByName(name).mean_bytes(), 0.0) << name;
  }
  EXPECT_THROW(SizeCdf::ByName("no_such_cdf"), std::invalid_argument);
}

TEST(PermutationTest, NoSelfFlowsAndAllDistinct) {
  Rng rng(23);
  const std::vector<NodeId> all{0, 1, 2, 3, 4, 5, 6, 7};
  WorkloadParams p;
  p.size_bytes = 1'000'000;
  const auto flows =
      WorkloadRegistry::Generate("permutation", rng, Pool(all), p);
  ASSERT_EQ(flows.size(), all.size());
  std::set<NodeId> dsts;
  for (const auto& f : flows) {
    EXPECT_NE(f.spec.src, f.spec.dst);
    dsts.insert(f.spec.dst);
  }
  EXPECT_EQ(dsts.size(), all.size());  // a permutation
}

TEST(AllToAllTest, FullMeshWithStagger) {
  Rng rng(1);
  const std::vector<NodeId> all{0, 1, 2, 3};
  WorkloadParams p;
  p.size_bytes = 50'000;
  p.start_time = Microseconds(10);
  p.stagger = Microseconds(5);
  const auto flows =
      WorkloadRegistry::Generate("all_to_all", rng, Pool(all), p);
  ASSERT_EQ(flows.size(), all.size() * (all.size() - 1));
  std::set<std::pair<NodeId, NodeId>> pairs;
  for (const auto& f : flows) {
    EXPECT_NE(f.spec.src, f.spec.dst);
    EXPECT_EQ(f.spec.size_bytes, 50'000u);
    pairs.insert({f.spec.src, f.spec.dst});
    // Source i starts at 10 us + i * 5 us.
    EXPECT_EQ(f.spec.start_time,
              Microseconds(10) + f.spec.src * Microseconds(5));
  }
  EXPECT_EQ(pairs.size(), flows.size());  // every ordered pair exactly once
}

TEST(StaggeredIncastTest, GroupsTargetTheirOwnReceiver) {
  Rng rng(1);
  WorkloadParams p;
  p.groups = 2;
  p.size_bytes = 10'000;
  p.group_stagger = Microseconds(100);
  p.stagger = Microseconds(1);
  const auto flows = WorkloadRegistry::Generate(
      "staggered_incast", rng, Pool({0, 1, 2, 3, 4, 5}), p);
  // Two groups of 3: two senders each.
  ASSERT_EQ(flows.size(), 4u);
  EXPECT_EQ(flows[0].spec.dst, 2);
  EXPECT_EQ(flows[1].spec.dst, 2);
  EXPECT_EQ(flows[2].spec.dst, 5);
  EXPECT_EQ(flows[3].spec.dst, 5);
  EXPECT_EQ(flows[0].spec.start_time, 0);
  EXPECT_EQ(flows[1].spec.start_time, Microseconds(1));
  EXPECT_EQ(flows[2].spec.start_time, Microseconds(100));
  EXPECT_EQ(flows[3].spec.start_time, Microseconds(101));
  for (const auto& f : flows) EXPECT_NE(f.spec.src, f.spec.dst);
}

TEST(WorkloadRegistryTest, NamesAndUnknownRejection) {
  for (const char* name : {"elephants", "poisson", "incast", "permutation",
                           "all_to_all", "staggered_incast"}) {
    EXPECT_TRUE(WorkloadRegistry::Contains(name)) << name;
    EXPECT_FALSE(WorkloadRegistry::Describe(name).empty()) << name;
  }
  EXPECT_FALSE(WorkloadRegistry::Contains("no_such_workload"));
  Rng rng(1);
  WorkloadHosts hosts;
  hosts.all = {0, 1, 2};
  hosts.senders = {0, 1};
  hosts.receiver = 2;
  EXPECT_THROW(
      WorkloadRegistry::Generate("no_such_workload", rng, hosts, {}),
      std::invalid_argument);
  // Bad params are rejected with a message, not silently accepted.
  WorkloadParams bad_load;
  bad_load.load = 1.5;
  EXPECT_THROW(WorkloadRegistry::Generate("poisson", rng, hosts, bad_load),
               std::invalid_argument);
  // Elephants without an explicit list default to the canonical
  // two-elephant pattern (flow1 joins at 300 us).
  const auto defaults =
      WorkloadRegistry::Generate("elephants", rng, hosts, WorkloadParams{});
  ASSERT_EQ(defaults.size(), 2u);
  EXPECT_EQ(defaults[1].spec.start_time, Microseconds(300));
  WorkloadParams bad_sender;
  bad_sender.long_flows = {{7, 0, kTimeInfinity}};
  EXPECT_THROW(WorkloadRegistry::Generate("elephants", rng, hosts, bad_sender),
               std::invalid_argument);
}

TEST(WorkloadRegistryTest, ElephantsMatchHarnessConvention) {
  Rng rng(1);
  WorkloadHosts hosts;
  hosts.all = {10, 11, 12};
  hosts.senders = {10, 11};
  hosts.receiver = 12;
  WorkloadParams p;
  p.long_flows = {{0, 0, kTimeInfinity}, {1, Microseconds(300), Microseconds(700)}};
  const auto flows = WorkloadRegistry::Generate("elephants", rng, hosts, p);
  ASSERT_EQ(flows.size(), 2u);
  EXPECT_EQ(flows[0].spec.src, 10);
  EXPECT_EQ(flows[1].spec.src, 11);
  EXPECT_EQ(flows[0].spec.sport, 10'000);
  EXPECT_EQ(flows[0].spec.dport, 10'001);
  EXPECT_EQ(flows[1].spec.sport, 10'002);
  EXPECT_EQ(flows[1].spec.dport, 10'003);
  EXPECT_EQ(flows[1].spec.start_time, Microseconds(300));
  EXPECT_EQ(flows[0].stop, kTimeInfinity);
  EXPECT_EQ(flows[1].stop, Microseconds(700));
  EXPECT_EQ(flows[0].spec.size_bytes, 0u);  // 0 = runner's duration budget
}

}  // namespace
}  // namespace fncc
