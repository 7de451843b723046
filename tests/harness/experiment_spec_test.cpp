// The declarative spec layer: parse round-trips, strict unknown-key
// rejection, CLI override precedence, range validation, and sweep-axis
// naming and expansion — the contracts fncc_run and the specs/ files rely
// on.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "harness/experiment_runner.hpp"
#include "harness/experiment_spec.hpp"

namespace fncc {
namespace {

/// Number of points ExpandSweep makes: the product of the axis lengths.
std::size_t PointCount(const ExperimentSpec& spec) {
  std::size_t n = 1;
  for (const SweepAxis& axis : spec.sweep) n *= axis.values.size();
  return n;
}

/// Expects `fn` to throw SpecError whose message contains every `needles`.
template <typename Fn>
void ExpectSpecError(Fn fn, const std::vector<std::string>& needles) {
  try {
    fn();
    ADD_FAILURE() << "expected SpecError";
  } catch (const SpecError& e) {
    const std::string what = e.what();
    for (const std::string& needle : needles) {
      EXPECT_NE(what.find(needle), std::string::npos) << needle << " / "
                                                      << what;
    }
  }
}

TEST(ExperimentSpecTest, DefaultsAreValid) {
  ExperimentSpec spec;
  EXPECT_NO_THROW(ValidateSpec(spec));
  EXPECT_EQ(spec.topology, "dumbbell");
  EXPECT_EQ(spec.workload, "elephants");
}

TEST(ExperimentSpecTest, ParsesSectionedText) {
  const ExperimentSpec spec = ParseSpecText(R"(
# a comment
name = demo
[topology]
kind = chain_merge
num_switches = 5
merge_switch = 3
[workload]
kind = elephants
flows = 0@0,1@300:700   # inline comment
[scenario]
mode = HPCC
link_gbps = 200
seed = 42
[run]
duration_us = 1.5
)");
  EXPECT_EQ(spec.name, "demo");
  EXPECT_EQ(spec.topology, "chain_merge");
  EXPECT_EQ(spec.topo.num_switches, 5);
  EXPECT_EQ(spec.topo.merge_switch, 3);
  ASSERT_EQ(spec.wl.long_flows.size(), 2u);
  EXPECT_EQ(spec.wl.long_flows[0].sender_index, 0);
  EXPECT_EQ(spec.wl.long_flows[0].stop, kTimeInfinity);
  EXPECT_EQ(spec.wl.long_flows[1].start, Microseconds(300));
  EXPECT_EQ(spec.wl.long_flows[1].stop, Microseconds(700));
  EXPECT_EQ(spec.scenario.mode, CcMode::kHpcc);
  EXPECT_DOUBLE_EQ(spec.scenario.link_gbps, 200.0);
  EXPECT_EQ(spec.scenario.seed, 42u);
  EXPECT_EQ(spec.run.duration, Microseconds(1.5));
}

TEST(ExperimentSpecTest, DottedKeysWorkWithoutSections) {
  const ExperimentSpec a = ParseSpecText("topology.kind = fat_tree\n"
                                         "topology.k = 8\n"
                                         "workload.kind = poisson\n"
                                         "run.duration_us = 0\n");
  const ExperimentSpec b = ParseSpecText(
      "[topology]\nkind = fat_tree\nk = 8\n"
      "[workload]\nkind = poisson\n[run]\nduration_us = 0\n");
  EXPECT_EQ(SpecToText(a), SpecToText(b));
}

TEST(ExperimentSpecTest, TextRoundTripIsExact) {
  ExperimentSpec spec = ParseSpecText(R"(
name = round_trip
[topology]
kind = leaf_spine
leaves = 4
spines = 3
hosts_per_leaf = 6
oversubscription = 2.5
[workload]
kind = all_to_all
size_bytes = 123456
stagger_us = 2.5
[scenario]
mode = Swift
link_gbps = 400
propagation_delay_us = 0.75
eta = 0.9
[run]
duration_us = 0
max_sim_ms = 50
[sweep]
mode = FNCC,HPCC
seed = 1,2,3
load = 0.25,0.75
[output]
fct_csv = out.csv
buckets = fb_hadoop
)");
  const std::string text = SpecToText(spec);
  const ExperimentSpec reparsed = ParseSpecText(text);
  EXPECT_EQ(text, SpecToText(reparsed));
  EXPECT_EQ(reparsed.topo.leaves, 4);
  EXPECT_DOUBLE_EQ(reparsed.topo.oversubscription, 2.5);
  EXPECT_EQ(reparsed.scenario.propagation_delay, Nanoseconds(750));
  ASSERT_EQ(reparsed.sweep.size(), 3u);
  EXPECT_EQ(reparsed.sweep[1].key, "seed");
  EXPECT_EQ(reparsed.sweep[1].values,
            (std::vector<std::string>{"1", "2", "3"}));
  EXPECT_EQ(reparsed.output.buckets, "fb_hadoop");
}

TEST(ExperimentSpecTest, UnknownKeysRejectedWithContext) {
  try {
    ParseSpecText("topology.kindd = dumbbell\n", "bad.exp");
    FAIL() << "expected SpecError";
  } catch (const SpecError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("bad.exp:1"), std::string::npos) << what;
    EXPECT_NE(what.find("unknown key"), std::string::npos) << what;
  }
  ExperimentSpec spec;
  EXPECT_THROW(ApplySpecOverride(spec, "workload.lod", "0.5"), SpecError);
  EXPECT_THROW(ApplySpecOverrides(spec, {"not-an-assignment"}), SpecError);
}

TEST(ExperimentSpecTest, MalformedValuesRejected) {
  ExperimentSpec spec;
  EXPECT_THROW(ApplySpecOverride(spec, "workload.load", "abc"), SpecError);
  EXPECT_THROW(ApplySpecOverride(spec, "topology.k", "4.5"), SpecError);
  EXPECT_THROW(ApplySpecOverride(spec, "scenario.pfc", "maybe"), SpecError);
  EXPECT_THROW(ApplySpecOverride(spec, "scenario.mode", "TCP"), SpecError);
  EXPECT_THROW(ApplySpecOverride(spec, "workload.flows", "0-300"), SpecError);
  EXPECT_THROW(ApplySpecOverride(spec, "workload.size_bytes", "-5"),
               SpecError);
  // Overflow is an error, never silent truncation/saturation.
  EXPECT_THROW(ApplySpecOverride(spec, "topology.num_senders", "4294967298"),
               SpecError);
  EXPECT_THROW(ApplySpecOverride(spec, "workload.port_base", "70000"),
               SpecError);
  EXPECT_THROW(
      ApplySpecOverride(spec, "scenario.seed", "99999999999999999999999"),
      SpecError);
  EXPECT_THROW(ApplySpecOverride(spec, "run.duration_us", "1e20"), SpecError);
  // Nonzero times that would round to 0 ps flip run semantics — rejected.
  EXPECT_THROW(ApplySpecOverride(spec, "run.duration_us", "0.0000001"),
               SpecError);
  // '#' would truncate on the manifest's text round-trip.
  EXPECT_THROW(ApplySpecOverride(spec, "output.dir", "out#1"), SpecError);
  // An emptied sweep axis is an error, not a silent single-point collapse.
  EXPECT_THROW(ApplySpecOverride(spec, "sweep.mode", ""), SpecError);
  EXPECT_THROW(ApplySpecOverride(spec, "sweep.seed", " , "), SpecError);
}

TEST(ExperimentSpecTest, UnexpandedSweepCannotRunAsSinglePoint) {
  ExperimentSpec spec;
  ApplySpecOverride(spec, "sweep.mode", "all");
  EXPECT_THROW(RunExperimentPoint(spec), SpecError);
}

TEST(ExperimentSpecTest, RangeValidationFailsLoudly) {
  const auto expect_invalid = [](const std::string& key,
                                 const std::string& value) {
    ExperimentSpec spec;
    ApplySpecOverride(spec, key, value);
    EXPECT_THROW(ValidateSpec(spec), SpecError) << key << "=" << value;
  };
  expect_invalid("workload.load", "1.5");
  expect_invalid("workload.load", "0");
  expect_invalid("workload.num_flows", "0");
  expect_invalid("topology.k", "5");       // odd
  expect_invalid("topology.rails", "0");
  expect_invalid("topology.oversubscription", "0");
  expect_invalid("scenario.link_gbps", "0");
  expect_invalid("scenario.eta", "1.25");
  expect_invalid("scenario.mtu_bytes", "100");
  expect_invalid("run.queue_sample_us", "0");
  expect_invalid("workload.cdf", "gaussian");
  expect_invalid("topology.kind", "torus");
  expect_invalid("workload.kind", "trace_replay");
  expect_invalid("output.buckets", "web_searc");  // typos never run a default
  // chain_merge-specific: merge point must be on the chain.
  ExperimentSpec chain;
  ApplySpecOverride(chain, "topology.kind", "chain_merge");
  ApplySpecOverride(chain, "topology.num_switches", "3");
  ApplySpecOverride(chain, "topology.merge_switch", "3");
  EXPECT_THROW(ValidateSpec(chain), SpecError);
}

TEST(ExperimentSpecTest, StreamingAndDomainValidation) {
  // Streaming injection composes with pinned exec_domains — the combined
  // configuration is valid, not clamped away.
  ExperimentSpec ok;
  ApplySpecOverrides(ok, {"workload.size_bytes=1000000", "run.duration_us=0",
                          "run.max_sim_ms=10", "run.launch_window_us=100",
                          "run.monitor=false", "scenario.exec_domains=8"});
  EXPECT_NO_THROW(ValidateSpec(ok));

  // Monitoring needs the full in-memory run; with streaming it is refused
  // by name, never silently dropped.
  ExperimentSpec monitored = ok;
  ApplySpecOverride(monitored, "run.monitor", "true");
  try {
    ValidateSpec(monitored);
    FAIL() << "expected SpecError";
  } catch (const SpecError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("run.monitor"), std::string::npos) << what;
    EXPECT_NE(what.find("run.launch_window_us"), std::string::npos) << what;
  }

  // A pinned domain count the engine cannot honor is an error, not a
  // silent clamp: beyond the 64-lane limit, or > 1 with zero propagation
  // delay (no lookahead window to run conservative PDES under).
  ExperimentSpec too_many;
  ApplySpecOverride(too_many, "scenario.exec_domains", "65");
  EXPECT_THROW(ValidateSpec(too_many), SpecError);

  ExperimentSpec no_lookahead;
  ApplySpecOverrides(no_lookahead, {"scenario.exec_domains=2",
                                    "scenario.propagation_delay_us=0"});
  try {
    ValidateSpec(no_lookahead);
    FAIL() << "expected SpecError";
  } catch (const SpecError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("scenario.exec_domains"), std::string::npos) << what;
    EXPECT_NE(what.find("propagation_delay_us"), std::string::npos) << what;
  }

  // `auto` stays valid with zero propagation delay: it resolves to 1.
  ExperimentSpec auto_domains;
  ApplySpecOverrides(auto_domains, {"scenario.exec_domains=auto",
                                    "scenario.propagation_delay_us=0"});
  EXPECT_NO_THROW(ValidateSpec(auto_domains));
}

TEST(ExperimentSpecTest, CliOverridePrecedence) {
  ExperimentSpec spec = ParseSpecText(
      "scenario.mode = FNCC\nscenario.seed = 1\nworkload.load = 0.5\n");
  // Overrides run after the file, last writer wins.
  ApplySpecOverrides(spec, {"scenario.mode=HPCC", "scenario.seed=7",
                            "scenario.seed=9", "workload.load=0.7"});
  ValidateSpec(spec);
  EXPECT_EQ(spec.scenario.mode, CcMode::kHpcc);
  EXPECT_EQ(spec.scenario.seed, 9u);
  EXPECT_DOUBLE_EQ(spec.wl.load, 0.7);
}

TEST(ExperimentSpecTest, SweepExpansionCrossProduct) {
  ExperimentSpec spec;
  ApplySpecOverrides(spec, {"sweep.mode=FNCC,HPCC", "sweep.seed=1,2,3",
                            "workload.load=0.5"});
  EXPECT_EQ(PointCount(spec), 6u);
  const std::vector<ExperimentSpec> points = ExpandSweep(spec);
  ASSERT_EQ(points.size(), 6u);
  // Fixed order: mode outermost, then seed.
  EXPECT_EQ(points[0].scenario.mode, CcMode::kFncc);
  EXPECT_EQ(points[0].scenario.seed, 1u);
  EXPECT_EQ(points[2].scenario.mode, CcMode::kFncc);
  EXPECT_EQ(points[2].scenario.seed, 3u);
  EXPECT_EQ(points[3].scenario.mode, CcMode::kHpcc);
  EXPECT_EQ(points[3].scenario.seed, 1u);
  EXPECT_EQ(points[0].label, "FNCC-seed1");
  EXPECT_EQ(points[5].label, "HPCC-seed3");
  for (const ExperimentSpec& p : points) {
    EXPECT_TRUE(p.sweep.empty());       // points are self-contained
    EXPECT_DOUBLE_EQ(p.wl.load, 0.5);   // unswept scalars untouched
  }
}

TEST(ExperimentSpecTest, SweepModeAllCoversEveryAlgorithm) {
  ExperimentSpec spec;
  ApplySpecOverride(spec, "sweep.mode", "all");
  const std::vector<ExperimentSpec> points = ExpandSweep(spec);
  ASSERT_EQ(points.size(), std::size(kAllCcModes));
  for (std::size_t i = 0; i < points.size(); ++i) {
    EXPECT_EQ(points[i].scenario.mode, kAllCcModes[i]);
  }
}

TEST(ExperimentSpecTest, SweepAnyKeyByFullOrBareName) {
  ExperimentSpec spec;
  ApplySpecOverrides(spec, {"sweep.scenario.ack_every=1,4",
                            "sweep.lhcs_beta=0.5,0.9"});
  ASSERT_EQ(spec.sweep.size(), 2u);
  EXPECT_EQ(spec.sweep[0].key, "scenario.ack_every");  // stored as written
  EXPECT_EQ(spec.sweep[1].key, "lhcs_beta");
  const std::vector<ExperimentSpec> points = ExpandSweep(spec);
  ASSERT_EQ(points.size(), 4u);
  EXPECT_EQ(points[0].scenario.ack_every, 1);
  EXPECT_DOUBLE_EQ(points[0].scenario.lhcs_beta, 0.5);
  EXPECT_EQ(points[3].scenario.ack_every, 4);
  EXPECT_DOUBLE_EQ(points[3].scenario.lhcs_beta, 0.9);
  // Labels: <last key component><value> per axis.
  EXPECT_EQ(points[0].label, "ack_every1-lhcs_beta0.5");
  EXPECT_EQ(points[3].label, "ack_every4-lhcs_beta0.9");
}

TEST(ExperimentSpecTest, SweepAxesExpandInDeclarationOrder) {
  ExperimentSpec spec;
  ApplySpecOverrides(spec, {"sweep.seed=1,2", "sweep.mode=FNCC,HPCC"});
  std::vector<ExperimentSpec> points = ExpandSweep(spec);
  ASSERT_EQ(points.size(), 4u);
  EXPECT_EQ(points[0].label, "seed1-FNCC");  // first declared is outermost
  EXPECT_EQ(points[1].label, "seed1-HPCC");
  EXPECT_EQ(points[2].label, "seed2-FNCC");
  // A re-declared axis keeps its place, whichever name it is given by.
  ApplySpecOverride(spec, "sweep.scenario.seed", "7");
  ASSERT_EQ(spec.sweep.size(), 2u);
  EXPECT_EQ(spec.sweep[0].key, "scenario.seed");
  points = ExpandSweep(spec);
  ASSERT_EQ(points.size(), 2u);
  EXPECT_EQ(points[0].label, "seed7-FNCC");
  EXPECT_EQ(points[1].scenario.seed, 7u);
}

TEST(ExperimentSpecTest, SweepAxisNamesMustResolveToOnePointKey) {
  ExperimentSpec spec;
  ExpectSpecError([&] { ApplySpecOverride(spec, "sweep.kind", "dumbbell"); },
                  {"sweep.kind", "ambiguous", "topology.kind",
                   "workload.kind"});
  ExpectSpecError([&] { ApplySpecOverride(spec, "sweep.ack_evry", "1,2"); },
                  {"sweep.ack_evry", "no spec key", "scenario.ack_every"});
  ExpectSpecError(
      [&] { ApplySpecOverride(spec, "sweep.scenario.nope", "1"); },
      {"sweep.scenario.nope", "no spec key"});
  // The name, outputs and the sweep itself belong to the run.
  for (const char* key : {"sweep.name", "sweep.output.dir", "sweep.fct_csv",
                          "sweep.sweep.mode"}) {
    ExpectSpecError([&] { ApplySpecOverride(spec, key, "a,b"); },
                    {key, "cannot be swept"});
  }
  // Labels become file names.
  ExpectSpecError(
      [&] { ApplySpecOverride(spec, "sweep.workload.trace_file", "a/b.csv"); },
      {"sweep.workload.trace_file", "'/'"});
  // A malformed value fails at parse time, naming the sweep key.
  ExpectSpecError([&] { ApplySpecOverride(spec, "sweep.ack_every", "1,x"); },
                  {"sweep.ack_every", "'x'"});
  EXPECT_TRUE(spec.sweep.empty());
}

TEST(ExperimentSpecTest, OutOfRangeSweptValueFailsValidation) {
  ExperimentSpec spec;
  ApplySpecOverride(spec, "sweep.scenario.lhcs_beta", "0.5,2");
  ExpectSpecError([&] { ValidateSpec(spec); },
                  {"sweep.scenario.lhcs_beta", "'2'", "must be in (0, 1]"});
  // Ranges that depend on another key are checked against the spec the
  // value lands in.
  ExperimentSpec chain;
  ApplySpecOverrides(chain, {"topology.kind=chain_merge",
                             "sweep.merge_switch=0,1,3"});
  ExpectSpecError([&] { ValidateSpec(chain); },
                  {"sweep.merge_switch", "'3'", "topology.merge_switch"});
}

TEST(ExperimentSpecTest, FullKeyAxisRoundTrips) {
  ExperimentSpec spec = ParseSpecText("name = rt\n[sweep]\nmode = FNCC,HPCC\n");
  ApplySpecOverride(spec, "sweep.scenario.int_table_refresh_us", "0,1.5");
  const std::string text = SpecToText(spec);
  EXPECT_NE(text.find("[sweep]\nmode = FNCC,HPCC\n"
                      "scenario.int_table_refresh_us = 0,1.5\n"),
            std::string::npos)
      << text;
  // Under [sweep] a dotted key names an axis, not an absolute key.
  const ExperimentSpec reparsed = ParseSpecText(text);
  EXPECT_EQ(SpecToText(reparsed), text);
  ASSERT_EQ(reparsed.sweep.size(), 2u);
  EXPECT_EQ(reparsed.sweep[1].key, "scenario.int_table_refresh_us");
  const std::vector<ExperimentSpec> points = ExpandSweep(reparsed);
  ASSERT_EQ(points.size(), 4u);
  EXPECT_EQ(points[1].scenario.int_table_refresh, Nanoseconds(1500));
  EXPECT_EQ(points[1].label, "FNCC-int_table_refresh_us1.5");
}

TEST(ExperimentSpecTest, SingleSpecExpandsToOneUnlabeledPoint) {
  const std::vector<ExperimentSpec> points = ExpandSweep(ExperimentSpec{});
  ASSERT_EQ(points.size(), 1u);
  EXPECT_TRUE(points[0].label.empty());
}

TEST(ExperimentSpecTest, ResolveFillsDerivedParams) {
  ExperimentSpec spec;
  ApplySpecOverrides(spec, {"scenario.link_gbps=400", "workload.cdf=fb_hadoop",
                            "scenario.propagation_delay_us=2"});
  const TopologyParams topo = ResolveTopologyParams(spec);
  EXPECT_DOUBLE_EQ(topo.link.gbps, 400.0);
  EXPECT_EQ(topo.link.propagation_delay, Microseconds(2));
  const WorkloadParams wl = ResolveWorkloadParams(spec);
  EXPECT_DOUBLE_EQ(wl.link_gbps, 400.0);
  // fb_hadoop's analytic mean differs from the default web_search mean.
  EXPECT_NE(wl.cdf.mean_bytes(), SizeCdf::WebSearch().mean_bytes());
}

}  // namespace
}  // namespace fncc
