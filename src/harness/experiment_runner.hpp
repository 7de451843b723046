// The experiment engine behind fncc_run, the figure benches and the tests.
// One code path executes any registered topology x workload point, always
// described by an ExperimentSpec: build fabric (registry) -> generate
// flows (registry) -> launch in order -> optional congestion-point
// monitors -> run -> collect FCTs + counters. The same point shape covers
// the Fig. 10/11 micro-benchmarks (duration-bounded elephants with
// samplers: the spec defaults) and the §5.5 fat-tree runs
// (run-to-completion poisson flow lists, run.duration = 0).
//
// Determinism: a point is a pure function of its spec. RunExperiment fans
// expanded points over exec/SweepRunner with one Simulator + PacketPool +
// seeded RNG per point, so results are bit-identical at every thread count
// (wall_time_seconds excepted — host telemetry).
#pragma once

#include <string>
#include <vector>

#include "exec/pdes_stats.hpp"
#include "harness/experiment_spec.hpp"
#include "stats/fct.hpp"
#include "stats/timeseries.hpp"

namespace fncc {

class FctSink;  // stats/fct_sink.hpp

/// Per-flow rate series, sampled while monitoring: the CC algorithm's
/// instantaneous pacing rate and acknowledged goodput.
struct FlowSeries {
  TimeSeries pacing_gbps;
  TimeSeries goodput_gbps;
};

/// Everything one executed point produces. FCT records are always
/// collected; the time series fill only when the topology exposes a
/// congestion point and run.monitor is on.
struct ExperimentPointResult {
  std::string label;  // from ExperimentSpec::label ("" for single points)

  FctRecorder fct;
  std::size_t flows_completed = 0;
  std::size_t flows_total = 0;

  TimeSeries queue_bytes;   // congestion-point egress queue
  TimeSeries utilization;   // congestion-point link utilization, 0..1
  std::vector<FlowSeries> flows;  // indexed like the generated flow list

  std::uint64_t pause_frames = 0;
  std::uint64_t resume_frames = 0;
  std::uint64_t drops = 0;
  std::uint64_t retransmits = 0;
  std::uint64_t out_of_order = 0;  // receiver-side sequence gaps
  std::uint64_t asymmetric_acks = 0;  // Fig. 7 pathID mismatches
  std::uint64_t lhcs_triggers = 0;  // summed over FNCC senders
  std::uint64_t events_processed = 0;

  // Packet-pool telemetry: created is the pool's high-water mark of
  // simultaneously live packets (the warm-up cost); once warm, every
  // further acquire is a recycle, so acquired - created is the number of
  // allocation-free packet services.
  std::uint64_t pool_packets_created = 0;
  std::uint64_t pool_packets_acquired = 0;

  /// PDES windows the point executed (0 for unpartitioned points).
  /// Deterministic at a fixed partitioning — the serial and threaded
  /// engines run the identical window sequence — but obviously varies with
  /// the domain count, so it stays out of manifests and equivalence
  /// assertions (it feeds the windows/sec bench counter).
  std::uint64_t pdes_windows = 0;

  /// Window telemetry, filled only when the point ran with
  /// output.pdes_stats; see exec/pdes_stats.hpp for the machine-variant
  /// contract. pdes_stats.participants == 0 means telemetry was off.
  PdesStats pdes_stats;

  /// Host wall-clock seconds (telemetry only; excluded from the
  /// determinism guarantee and equivalence comparisons).
  double wall_time_seconds = 0.0;
};

/// Validates `point` (which must have no sweep axes left) and runs it in
/// the calling thread. `intra_threads` is the thread budget for the
/// intra-point domain scheduler when scenario.exec_domains partitions the
/// fabric (1 = windows run inline; irrelevant for single-lane points);
/// results are bit-identical at every value.
///
/// A non-null `sink` switches the point to streaming FCT collection:
/// completions are drained to the sink — in the canonical merge order, in
/// time chunks as the run advances — instead of accumulating in
/// result.fct (which stays empty; read count/means/quantiles from the
/// sink). The emitted records are identical to the buffered path's.
ExperimentPointResult RunExperimentPoint(const ExperimentSpec& point,
                                         int intra_threads = 1,
                                         FctSink* sink = nullptr);

/// The trusted core: runs `point` with already-resolved topology/workload
/// params (no validation, no cdf-name lookup), for callers that inject
/// programmatic params a spec cannot name (e.g. a custom SizeCdf object).
///
/// point.run.duration > 0 runs exactly that long; 0 runs until every flow
/// completes or point.run.max_sim_time is reached, whichever comes first
/// (eager and streamed runs stop at the same instant).
///
/// point.run.launch_window > 0 selects streaming flow injection: flows
/// are pulled from the workload's FlowSource (which must yield
/// non-decreasing start times) and launched one lookahead window ahead of
/// the clock; each drained completion releases its FlowTable slot, so
/// live per-flow state is O(concurrent flows) instead of O(total flows).
/// CSV/record output is unchanged: drained records are re-stamped with
/// the flow's dense launch serial, the ids the eager path mints. The
/// streaming path composes with scenario.exec_domains — launches enter
/// the source host's lane and flow starts carry partition-invariant
/// launch-serial order words (sim/event_queue.hpp), so streamed outputs
/// stay byte-identical at every exec_domains x threads combination. It
/// skips monitors (the spec validator enforces monitor = false).
ExperimentPointResult RunResolvedPoint(const ExperimentSpec& point,
                                       const TopologyParams& topo_params,
                                       const WorkloadParams& wl_params,
                                       int intra_threads = 1,
                                       FctSink* sink = nullptr);

/// Runs every point as an independent SweepRunner job (per-job Simulator,
/// PacketPool and RNG), results in point order. num_threads = 0 picks
/// FNCC_THREADS / hardware concurrency; 1 is the serial reference path.
/// The thread budget goes to one level of parallelism: multi-point lists
/// parallelize across points (each point's domains run inline); a single
/// point hands the whole budget to its intra-point domain scheduler.
/// `sinks` (empty, or one per point — entries may be null) streams each
/// point's completions to its own FctSink; a sink is only ever touched by
/// the job running its point, so the fan-out stays unsynchronized.
std::vector<ExperimentPointResult> RunExperimentPoints(
    const std::vector<ExperimentSpec>& points, int num_threads = 0,
    const std::vector<FctSink*>& sinks = {});

/// ExpandSweep(spec) + RunExperimentPoints.
std::vector<ExperimentPointResult> RunExperiment(const ExperimentSpec& spec,
                                                 int num_threads = 0);

/// Files written by WriteExperimentOutputs, in emission order.
struct ExperimentArtifacts {
  std::vector<std::string> files;
};

/// The per-point FCT CSV paths WriteExperimentOutputs resolves from
/// spec.output (dir / fct_csv with the point's label tag inserted; all
/// empty when output.fct_csv is unset). Streaming callers open their
/// FctSinks on exactly these paths before running, and
/// WriteExperimentOutputs (with output.stream_fct) then records the
/// already-written files instead of re-emitting them.
std::vector<std::string> PointFctCsvPaths(
    const ExperimentSpec& spec, const std::vector<ExperimentSpec>& points);

/// Emits the artifacts spec.output asks for: per-point FCT CSV and
/// time-series CSV (multi-point sweeps insert the point label before the
/// extension), plus a run-manifest JSON recording the resolved spec text,
/// thread count, per-point counters, wall times and file map. Directories
/// are created as needed. Throws SpecError on I/O failure.
ExperimentArtifacts WriteExperimentOutputs(
    const ExperimentSpec& spec, const std::vector<ExperimentSpec>& points,
    const std::vector<ExperimentPointResult>& results, int threads,
    double wall_time_seconds);

}  // namespace fncc
