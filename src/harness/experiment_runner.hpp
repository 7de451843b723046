// The experiment engine behind fncc_run, the benches and the tests.
// One code path executes any registered topology x workload point, always
// described by an ExperimentSpec: build fabric (registry) -> pull flows
// from the workload's source (registry) and launch them a window ahead of
// the clock -> optional congestion-point monitors -> run and drain chunk
// by chunk -> collect FCTs + counters. The same point shape covers
// the Fig. 10/11 micro-benchmarks (duration-bounded elephants with
// samplers: the spec defaults) and the §5.5 fat-tree runs
// (run-to-completion poisson flow lists, run.duration = 0).
//
// Determinism: a point is a pure function of its spec. RunExperimentPoints
// fans ExpandSweep's points across threads with one Simulator +
// PacketPool + seeded RNG per point, so results are bit-identical at
// every thread count (wall_time_seconds excepted — host telemetry).
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
  // One per flow in launch order at run.launch_window = 0; empty for
  // windowed points, whose flows are not all launched before the run.
  std::vector<FlowSeries> flows;

  std::uint64_t pause_frames = 0;
  std::uint64_t resume_frames = 0;
  std::uint64_t drops = 0;
  std::uint64_t retransmits = 0;
  std::uint64_t out_of_order = 0;  // receiver-side sequence gaps
  // Late data of completed flows the receivers dropped (Host::
  // stale_flow_packets). Partition-invariant; not written to manifests.
  std::uint64_t late_data_drops = 0;
  std::uint64_t asymmetric_acks = 0;  // Fig. 7 pathID mismatches
  std::uint64_t lhcs_triggers = 0;  // summed over FNCC senders
  std::uint64_t events_processed = 0;

  // Packet-pool telemetry: created is the pool's high-water mark of
  // simultaneously live packets (the warm-up cost); once warm, every
  // further acquire is a recycle, so acquired - created is the number of
  // allocation-free packet services.
  std::uint64_t pool_packets_created = 0;
  std::uint64_t pool_packets_acquired = 0;
  // INT blocks the arenas allocated (PacketPool::int_blocks_created): 0
  // for a point whose packets never carried INT (DCQCN).
  std::uint64_t pool_int_blocks_created = 0;

  /// PDES windows the point executed (0 for unpartitioned points).
  /// Deterministic at a fixed partitioning — the window engine runs the
  /// identical window sequence at every thread count — but varies with
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
/// completes or point.run.max_sim_time is reached, whichever comes first.
///
/// One launch loop: flows are pulled from the workload's FlowSource and
/// launched point.run.launch_window ahead of the clock (0 = unbounded:
/// every flow before the run starts; a flow whose start is already
/// behind the clock is a SpecError). The run advances a window at a time
/// (2 ms chunks at window 0); a drained completion releases its FlowTable
/// slot once the clock is one Simulator::settle_delay() past it, so live
/// per-flow state is O(concurrent flows). Flows the run ends before
/// launching still count in flows_total, as at window 0. Drained
/// records are re-stamped with the flow's dense launch serial, so FCT
/// records, CSVs and counters are identical at every window; launches
/// enter the source host's lane and flow starts carry partition-invariant
/// launch-serial order words (sim/event_queue.hpp), so they are also
/// byte-identical at every exec_domains x threads combination. Monitors
/// run at window 0 only (the spec validator enforces monitor = false
/// otherwise). Throws SpecError before a launch would overflow the
/// FlowTable's 1,048,575 live slots.
ExperimentPointResult RunResolvedPoint(const ExperimentSpec& point,
                                       const TopologyParams& topo_params,
                                       const WorkloadParams& wl_params,
                                       int intra_threads = 1,
                                       FctSink* sink = nullptr);

/// Runs every point in isolation (per-point Simulator, PacketPool and
/// RNG), results in point order. num_threads = 0 picks
/// DefaultThreadCount(); 1 runs the points in index order on the calling
/// thread. The thread budget goes to one level of parallelism: multi-point
/// lists parallelize across points (each point's domains run inline); a
/// single point hands the whole budget to its intra-point domain
/// scheduler. Every point runs even when another throws; then the
/// lowest-index point's exception is rethrown, whatever the thread count.
/// `sinks` (empty, or one per point — entries may be null) streams each
/// point's completions to its own FctSink; a sink is only ever touched by
/// the thread running its point, so the fan-out stays unsynchronized.
std::vector<ExperimentPointResult> RunExperimentPoints(
    const std::vector<ExperimentSpec>& points, int num_threads = 0,
    const std::vector<FctSink*>& sinks = {});

/// The thread count a num_threads = 0 budget resolves to: FNCC_THREADS
/// when it is set (and not empty), else
/// std::thread::hardware_concurrency() (>= 1). Throws
/// std::invalid_argument naming FNCC_THREADS when the variable is set but
/// is not a positive integer ("2x", "abc", "-3").
int DefaultThreadCount();

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
