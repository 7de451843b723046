// Declarative experiment descriptions. An ExperimentSpec is a plain struct
// naming a topology (by TopologyRegistry key), a workload (by
// WorkloadRegistry key), the ScenarioConfig knobs, optional sweep axes and
// the outputs to emit. Specs parse from a minimal sectioned `key = value`
// text format and from CLI override tokens (`topology.kind=fat_tree
// workload.load=0.7 sweep.mode=all`), with strict unknown-key rejection and
// range validation — a typo fails loudly, never silently runs the default.
//
//   # two elephants on the Fig. 10 dumbbell
//   name = quickstart
//   [topology]
//   kind = dumbbell
//   num_senders = 2
//   [workload]
//   kind = elephants
//   flows = 0@0,1@300        # sender@start_us[:stop_us]
//   [run]
//   duration_us = 800
//   [sweep]
//   mode = FNCC,HPCC         # or `all` for every implemented algorithm
//
// Section headers only set a key prefix: `[topology]` + `kind = x` is the
// same as the flat `topology.kind = x`, and dotted keys are accepted
// anywhere. ExpandSweep() turns one spec into the cross product of its
// sweep axes — each point a self-contained spec the experiment runner can
// execute as one isolated SweepRunner job.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "harness/scenario.hpp"
#include "net/topology.hpp"
#include "workload/traffic_gen.hpp"

namespace fncc {

/// Parse or validation failure; the message carries <source>:<line> context
/// for file input and the offending key for overrides.
struct SpecError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// How a point executes and what the monitors sample. duration = 0 runs
/// until every flow completes (bounded by max_sim_time); duration > 0 runs
/// exactly that long (the micro-benchmark shape: elephants outlast it).
struct RunSpec {
  Time duration = Microseconds(1300);
  Time max_sim_time = 2 * kSecond;
  Time queue_sample_interval = Microseconds(1);
  Time rate_sample_interval = Microseconds(1);
  Time util_sample_interval = Microseconds(5);
  /// Attach queue/utilization/per-flow-rate samplers when the topology
  /// exposes a congestion point. Sampler events interleave with the
  /// simulation, so toggling this changes event counts (not flow behavior).
  bool monitor = true;
  /// How far ahead of the clock flows launch. The runner pulls flows from
  /// the workload's FlowSource and launches every flow starting within one
  /// window of the clock, then runs and drains a window at a time; drained
  /// flows free their table slots, so per-flow memory is O(live flows).
  /// 0 (the default) is the unbounded window: every flow launches before
  /// the run starts. A window > 0 needs monitor off and a start-sorted
  /// workload. Outputs are identical at every window and compose with any
  /// exec_domains.
  Time launch_window = 0;
};

/// Cross-product sweep axes; empty vector = axis not swept. Expansion
/// order is fixed (mode outermost, then seed, load, num_flows,
/// merge_switch innermost) so point indices are stable for a given spec.
struct SweepAxes {
  std::vector<CcMode> modes;
  std::vector<std::uint64_t> seeds;
  std::vector<double> loads;
  std::vector<int> num_flows;
  std::vector<int> merge_switches;

  [[nodiscard]] bool empty() const {
    return modes.empty() && seeds.empty() && loads.empty() &&
           num_flows.empty() && merge_switches.empty();
  }
  /// Number of expanded points (>= 1; empty axes count as 1).
  [[nodiscard]] std::size_t size() const;
};

/// What fncc_run writes. Empty filename = skip that artifact. Filenames
/// are relative to `dir`; multi-point sweeps insert the point label before
/// the extension (fct.csv -> fct.FNCC-seed2.csv).
struct OutputSpec {
  std::string dir = ".";
  std::string fct_csv;
  std::string timeseries_csv;
  std::string manifest;
  /// "web_search" / "fb_hadoop": also print the per-size-bucket slowdown
  /// table for each point (the Fig. 14/15 shape). Empty = off.
  std::string buckets;
  /// Stream FCT records: fncc_run opens a per-point FctSink that appends
  /// each completed flow to the point's fct_csv as it finishes and keeps
  /// only online quantile sketches in memory (no retained FlowResult
  /// list). The CSV bytes are identical to the buffered path; the printed
  /// bucket table switches to sketch-approximate percentiles.
  bool stream_fct = false;
  /// Collect PDES window telemetry (exec/pdes_stats.hpp) and write it as a
  /// per-point `<name>_pdes_stats.json`. Machine-variant by contract
  /// (thread attribution, barrier waits), so the file is never listed in
  /// the manifest and never part of equivalence assertions. The one switch:
  /// set it in the spec or as the `output.pdes_stats=true` override.
  bool pdes_stats = false;
};

struct ExperimentSpec {
  std::string name = "experiment";

  std::string topology = "dumbbell";
  TopologyParams topo;  // topo.link is derived from scenario at build time

  std::string workload = "elephants";
  WorkloadParams wl;  // wl.link_gbps / wl.cdf are derived at resolve time
  std::string cdf = "web_search";

  ScenarioConfig scenario;
  RunSpec run;
  SweepAxes sweep;
  OutputSpec output;

  /// Set by ExpandSweep on each point ("" when nothing is swept): the
  /// axis values joined with '-', e.g. "FNCC-seed2-load0.5". Derived —
  /// never parsed, never serialized.
  std::string label;
};

/// Parses sectioned `key = value` text. Throws SpecError with
/// <source>:<line> context on unknown keys, malformed values or failed
/// validation.
ExperimentSpec ParseSpecText(const std::string& text,
                             const std::string& source = "<inline>");

/// Reads and parses a spec file (SpecError on I/O failure too).
ExperimentSpec ParseSpecFile(const std::string& path);

/// Applies one dotted-key override (CLI precedence: overrides run after
/// file parsing, so the last writer wins). Throws SpecError.
void ApplySpecOverride(ExperimentSpec& spec, const std::string& key,
                       const std::string& value);

/// Applies `key=value` tokens in order. Throws SpecError on a token
/// without '=' or any bad key/value.
void ApplySpecOverrides(ExperimentSpec& spec,
                        const std::vector<std::string>& tokens);

/// Range validation + registry membership. Parsers call this; call it
/// again after mutating a spec programmatically. Throws SpecError.
void ValidateSpec(const ExperimentSpec& spec);

/// Cross product of the sweep axes: self-contained points in fixed axis
/// order with scalar fields substituted, `sweep` cleared and `label` set.
/// A spec with no axes expands to one point (label ""). Points are
/// validated.
std::vector<ExperimentSpec> ExpandSweep(const ExperimentSpec& spec);

/// Serializes every field (including defaults) as sectioned spec text.
/// ParseSpecText(SpecToText(s)) reproduces s exactly — the round-trip the
/// run manifest relies on.
std::string SpecToText(const ExperimentSpec& spec);

/// `t` in microseconds, shortest round-tripping text (as SpecToText writes).
std::string FormatTimeUs(Time t);

/// The topology params a point resolves to: spec.topo with the link
/// filled in from the scenario.
[[nodiscard]] TopologyParams ResolveTopologyParams(const ExperimentSpec& spec);

/// The workload params a point resolves to: spec.wl with link_gbps and the
/// named cdf filled in.
[[nodiscard]] WorkloadParams ResolveWorkloadParams(const ExperimentSpec& spec);

}  // namespace fncc
