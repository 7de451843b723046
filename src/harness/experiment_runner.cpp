#include "harness/experiment_runner.hpp"

#include <algorithm>
#include <atomic>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <exception>
#include <filesystem>
#include <fstream>
#include <memory>
#include <set>
#include <stdexcept>
#include <thread>
#include <utility>

#include "exec/domain_scheduler.hpp"
#include "exec/wall_timer.hpp"
#include "net/packet_pool.hpp"
#include "sim/log.hpp"
#include "stats/csv.hpp"
#include "stats/fct_sink.hpp"
#include "workload/flow_source.hpp"

namespace fncc {

namespace {

/// One flow completion, stamped with the (time, order-word) key of the
/// event that delivered the completing ACK. The stamps are partition
/// invariants (delivery order words encode a directed edge + its FIFO
/// index, never a lane), so sorting merged per-lane records by them
/// reproduces the single-queue recording order at any domain count.
struct CompletionRecord {
  Time t = 0;
  std::uint64_t order = 0;
  FlowSpec spec;
  Time fct = 0;
};

/// Per-lane completion tally: the records plus the completed QPs' frozen
/// counters. Each lane's hooks only ever append to its own tally, so the
/// hot path stays unsynchronized under DomainScheduler.
struct LaneTally {
  std::vector<CompletionRecord> records;
  std::uint64_t retransmits = 0;
  std::uint64_t asymmetric_acks = 0;
  std::uint64_t lhcs_triggers = 0;
};

/// Canonical completion order: by time; at equal time deliveries (bit 63
/// clear) before natives, deliveries by their edge order word, natives by
/// the flow's dense launch serial. This is exactly the pop order of the
/// partitioned event queues, so it matches execution order at every
/// domain count — including one. The native tie-break is keyed by
/// launch_serial, NOT spec.id: the launcher recycles the table slots of
/// drained flows, and a recycled id says nothing about launch order — the
/// serial is the only identity that is both dense and partition-invariant.
bool CompletionBefore(const CompletionRecord& a, const CompletionRecord& b) {
  if (a.t != b.t) return a.t < b.t;
  const bool a_native = (a.order & kNativeOrderBit) != 0;
  const bool b_native = (b.order & kNativeOrderBit) != 0;
  if (a_native != b_native) return b_native;
  if (!a_native) return a.order < b.order;
  return a.spec.launch_serial < b.spec.launch_serial;
}

/// The QP behind `id` while its slot is live; null once the drain has
/// released the flow (the generation check turns the id stale).
const SenderQp* LiveQp(FlowTable* table, FlowId id) {
  const FlowSlot* slot = table->Lookup(id);
  return slot == nullptr ? nullptr : slot->qp();
}

/// Resolves scenario.exec_domains to a concrete lane count for `point`.
/// auto (0) picks the topology's natural partition, degrading to a single
/// lane when there is no cross-domain lookahead to run ahead in (zero
/// propagation delay) and clamping to the 64-lane engine limit. A pinned
/// value (> 0) is honored EXACTLY or refused with a SpecError — never
/// silently clamped: a user who asked for N lanes and got 1 would read a
/// serial wall time as a scaling result. Every launch window composes
/// with any lane count: flow starts carry partition-invariant
/// launch-serial order words (see kFlowStartOrderBit), so recycled
/// FlowTable ids never threaten the cross-lane completion merge.
int ResolveDomainCount(const ExperimentSpec& point,
                       const TopologyParams& topo_params) {
  const ScenarioConfig& sc = point.scenario;
  if (sc.exec_domains > 0) {
    if (sc.exec_domains > 64) {
      throw SpecError("scenario.exec_domains = " +
                      std::to_string(sc.exec_domains) +
                      " exceeds the engine's 64-lane limit");
    }
    if (sc.exec_domains > 1 && sc.propagation_delay <= 0) {
      throw SpecError(
          "scenario.exec_domains = " + std::to_string(sc.exec_domains) +
          " cannot be honored with scenario.propagation_delay_us = 0: "
          "cross-domain lookahead needs a positive link propagation delay "
          "(set scenario.propagation_delay_us > 0, or exec_domains = "
          "auto/1)");
    }
    return sc.exec_domains;
  }
  int domains = TopologyNaturalDomains(point.topology, topo_params);
  if (sc.propagation_delay <= 0) domains = 1;
  if (domains < 1) domains = 1;
  if (domains > 64) domains = 64;
  return domains;
}

}  // namespace

ExperimentPointResult RunResolvedPoint(const ExperimentSpec& point,
                                       const TopologyParams& topo_params,
                                       const WorkloadParams& wl_params,
                                       int intra_threads, FctSink* sink) {
  const WallTimer timer;
  const ScenarioConfig& sc = point.scenario;
  ExperimentPointResult result;
  result.label = point.label;

  Simulator sim;
  sim.set_delivery_batch(sc.delivery_batch);
  // Partition before Build: node constructors schedule their first timers,
  // which must land in the owning lane's queue.
  sim.Partition(ResolveDomainCount(point, topo_params));
  Rng rng(sc.seed);
  BuiltTopology topo =
      TopologyRegistry::Build(point.topology, &sim, MakeHostFactory(sc),
                              MakeSwitchConfig(sc), &rng, topo_params);
  topo.net.ComputeRoutes(sc.ecmp_salt, sc.symmetric_ecmp);
  Network& net = topo.net;
  // Wiring is final: flip cross-lane ports into handoff mode and derive
  // the lookahead window from the narrowest cross-lane link.
  net.SealDomains();

  // Completion hook before launch (records only — schedules nothing, so
  // the event stream is untouched). Records go to the active lane's tally
  // and are merged into canonical order chunk by chunk as the run
  // advances.
  std::vector<LaneTally> tallies(
      static_cast<std::size_t>(sim.num_lanes()));
  for (Endpoint* ep : net.hosts()) {
    auto* host = static_cast<Host*>(ep);
    host->on_flow_complete = [&tallies, &sim](const SenderQp& qp) {
      LaneTally& tally = tallies[static_cast<std::size_t>(sim.ActiveLaneId())];
      const Simulator::OrderKey key = sim.CurrentOrderKey();
      tally.records.push_back({key.t, key.order, qp.spec(), qp.fct()});
      tally.retransmits += qp.retransmit_events();
      tally.asymmetric_acks += qp.asymmetric_acks();
      tally.lhcs_triggers += qp.cc().lhcs_triggers();
    };
  }

  // The fabric-shared flow table (every host holds the same one); abort
  // timers and per-flow samplers go through its generation check.
  FlowTable* flow_table =
      &static_cast<Host*>(net.hosts().front())->flow_table();

  // Drains every tallied completion to the output (sink or recorder) and
  // releases the completed flows' table slots. Chunks partition time —
  // RunUntil(T) processes every event at t <= T, same-time cascades
  // included — and equal-key records (one delivery batch completing
  // several flows) stay in lane push order under stable_sort, so the
  // chunk-by-chunk emission order equals one global sort at every domain
  // count and every drain cadence.
  // A slot is released once the clock is one settle delay past its
  // completion; from then on the receiver drops the flow's late data with
  // or without the slot (Host::HandleData), so the drain cadence never
  // shows. Drained completions are in time order: a FIFO.
  std::deque<CompletionRecord> pending_release;  // spec.id = table id
  // Release under the source host's lane: tearing the QP down reads that
  // lane's clock, and its leftover timer events in the lane's queue fall
  // inert (they name a FlowId the release makes stale). Safe while
  // workers are parked — the barrier's arrival chain ordered every lane's
  // window work before this coordinator-side drain.
  const auto release_until = [&](Time horizon) {
    for (; !pending_release.empty() && pending_release.front().t <= horizon;
         pending_release.pop_front()) {
      const FlowSpec& spec = pending_release.front().spec;
      Simulator::ActiveLaneScope scope(&sim, net.node(spec.src)->domain());
      flow_table->Release(spec.id);
    }
  };
  std::vector<CompletionRecord> chunk;
  const auto drain = [&] {
    chunk.clear();
    for (LaneTally& tally : tallies) {
      result.retransmits += std::exchange(tally.retransmits, 0);
      result.asymmetric_acks += std::exchange(tally.asymmetric_acks, 0);
      result.lhcs_triggers += std::exchange(tally.lhcs_triggers, 0);
      chunk.insert(chunk.end(), tally.records.begin(), tally.records.end());
      tally.records.clear();
    }
    std::stable_sort(chunk.begin(), chunk.end(), CompletionBefore);
    for (CompletionRecord& r : chunk) {
      pending_release.push_back(r);
      // Re-stamp with the dense launch serial: recycled table ids say
      // nothing about launch order, the serial is the 1..N id every
      // record and CSV row carries (equal to the table id until the
      // first slot is recycled).
      r.spec.id = static_cast<FlowId>(r.spec.launch_serial);
      if (sink != nullptr) {
        sink->Append(r.spec, r.fct);
      } else {
        result.fct.Record(r.spec, r.fct);
      }
    }
    result.flows_completed += chunk.size();
    release_until(sim.Now() - sim.settle_delay());
  };

  // Unbounded flows (size 0): line rate for the entire duration, rounded
  // up — large enough to outlast the run.
  const std::uint64_t auto_budget =
      point.run.duration > 0
          ? static_cast<std::uint64_t>(BytesPerSecond(sc.link_gbps) *
                                       ToSeconds(point.run.duration)) +
                10 * sc.mtu_bytes
          : 0;

  // Monitors sample from t = 0, so they need every flow launched before
  // the run starts: window 0 only (the spec validator enforces it).
  const Time window = point.run.launch_window;
  const bool monitored =
      window == 0 && point.run.monitor && topo.has_congestion_point();
  std::vector<const SenderQp*> monitored_qps;  // launch order

  // Launches every pulled flow starting at or before `horizon`. Each
  // launch enters the source host's lane, so the start event and abort
  // timer land in the owning queue before the next RunUntil chunk: the
  // window engine's NextEventTime always sees pending starts and the
  // lookahead never skips one.
  WorkloadHosts roles{topo.hosts, topo.senders, topo.receiver};
  std::unique_ptr<FlowSource> source =
      WorkloadRegistry::MakeSource(point.workload, rng, roles, wl_params);
  GeneratedFlow next_flow;
  bool have_next = source->Next(&next_flow);
  std::uint64_t launched = 0;
  const auto launch_until = [&](Time horizon) {
    while (have_next && next_flow.spec.start_time <= horizon) {
      FlowSpec& spec = next_flow.spec;
      if (spec.start_time < sim.Now()) {
        throw SpecError(
            "flow " + std::to_string(launched + 1) + " (" +
            std::to_string(spec.src) + "->" + std::to_string(spec.dst) +
            ") starts at " + FormatTimeUs(spec.start_time) +
            " us, behind the clock at " + FormatTimeUs(sim.Now()) +
            " us: a workload launched with run.launch_window_us > 0 must "
            "come sorted by start time");
      }
      if (flow_table->live_flows() >= kFlowSlotMask) {
        throw SpecError(
            "flow " + std::to_string(launched + 1) +
            " does not fit the flow table: its " +
            std::to_string(kFlowSlotMask) + " slots all hold live flows; " +
            (window == 0 ? "set run.launch_window_us > 0 so completed flows "
                           "free their slots"
                         : "run.launch_window_us = " + FormatTimeUs(window) +
                               " launches too far ahead: use a smaller "
                               "window or fewer concurrent flows"));
      }
      if (spec.size_bytes == 0) spec.size_bytes = auto_budget;
      ++launched;
      // The dense launch serial rides in the spec through Register to the
      // flow-start order word and the drained completion record, so
      // equal-time cross-lane merges order by launch position even when
      // the table id is a recycled slot.
      spec.launch_serial = launched;
      Simulator::ActiveLaneScope scope(&sim, net.node(spec.src)->domain());
      SenderQp* qp = LaunchFlow(net, sc, spec);
      if (next_flow.stop < kTimeInfinity) qp->AbortAt(next_flow.stop);
      if (monitored) monitored_qps.push_back(qp);
      have_next = source->Next(&next_flow);
    }
  };
  // Window 0 is the unbounded window: every flow launches before the run.
  launch_until(window > 0 ? sim.Now() + window : kTimeInfinity);

  // Monitors; their lifetimes must cover the run loop below. Creation
  // order (queue, utilization, then per-flow pacing/goodput pairs in
  // launch order) fixes the (time, seq) order of simultaneous sampler
  // events and therefore the exact event stream.
  std::unique_ptr<PeriodicSampler> queue_sampler;
  std::unique_ptr<PeriodicSampler> util_sampler;
  std::shared_ptr<RateMeter> util_meter;
  std::vector<std::unique_ptr<PeriodicSampler>> rate_samplers;
  std::vector<std::shared_ptr<RateMeter>> goodput_meters;
  // Sized at window 0 whether or not the monitors run, so callers can
  // index per-flow series unconditionally (empty series when unmonitored).
  if (window == 0) result.flows.resize(launched);
  if (monitored) {
    // Samplers schedule their first tick at construction and then
    // self-reschedule from inside their own events, so pinning the
    // construction lane pins the whole series: queue/utilization to the
    // congestion switch's lane, per-flow pairs to the source host's lane.
    EgressPort* cport =
        &topo.congestion_switch()->port(topo.congestion_port);
    {
      Simulator::ActiveLaneScope scope(
          &sim, net.node(topo.congestion_node)->domain());
      queue_sampler = std::make_unique<PeriodicSampler>(
          &sim, point.run.queue_sample_interval,
          [cport] { return static_cast<double>(cport->qlen_bytes()); },
          &result.queue_bytes);
      util_meter = std::make_shared<RateMeter>();
      util_sampler = std::make_unique<PeriodicSampler>(
          &sim, point.run.util_sample_interval,
          [cport, util_meter, &sim, link_gbps = sc.link_gbps] {
            return util_meter->SampleGbps(sim.Now(), cport->tx_bytes()) /
                   link_gbps;
          },
          &result.utilization);
    }
    for (std::size_t i = 0; i < monitored_qps.size(); ++i) {
      const FlowSpec& spec = monitored_qps[i]->spec();
      Simulator::ActiveLaneScope scope(&sim, net.node(spec.src)->domain());
      // A drained flow's slot is released (the lookup goes stale): it
      // reads as what the completed QP reported — pacing 0, every byte
      // acknowledged.
      rate_samplers.push_back(std::make_unique<PeriodicSampler>(
          &sim, point.run.rate_sample_interval,
          [flow_table, id = spec.id] {
            const SenderQp* qp = LiveQp(flow_table, id);
            return qp == nullptr || qp->complete() ? 0.0
                                                   : qp->pacing_rate_gbps();
          },
          &result.flows[i].pacing_gbps));
      auto meter = std::make_shared<RateMeter>();
      goodput_meters.push_back(meter);
      rate_samplers.push_back(std::make_unique<PeriodicSampler>(
          &sim, point.run.rate_sample_interval,
          [flow_table, id = spec.id, size = spec.size_bytes, meter, &sim] {
            const SenderQp* qp = LiveQp(flow_table, id);
            return meter->SampleGbps(sim.Now(),
                                     qp == nullptr ? size : qp->snd_una());
          },
          &result.flows[i].goodput_gbps));
    }
  }

  // DomainScheduler spawns its persistent lane workers once here; they
  // stay parked at the window barrier across every RunUntil chunk below.
  // A single-lane point runs plain Simulator::RunUntil instead.
  DomainScheduler sched(
      &sim, intra_threads,
      point.output.pdes_stats ? &result.pdes_stats : nullptr);
  // Run a chunk, drain (and release) its completions, launch the next
  // window's flows, repeat. Live per-flow state is bounded by the
  // window's concurrency, not the workload length. Windowed points drain
  // once per window until their last flow is launched; from then on —
  // and window-0 points throughout — chunks end on a fixed 2 ms grid from
  // t = 0. The grid fixes where a run-to-completion point stops at every
  // launch window, and with it events_processed: timer carriers outlive
  // their flows (sim/lazy_timer.hpp) and perpetual switch timers never
  // stop, so the count depends on the stop. duration > 0 runs to the
  // duration; duration 0 runs until every launched flow completes or
  // max_sim_time is reached.
  constexpr Time kDrainGrid = 2 * kMillisecond;
  const bool to_completion = point.run.duration <= 0;
  const Time stop = to_completion ? point.run.max_sim_time : point.run.duration;
  while (sim.Now() < stop) {
    if (to_completion && !have_next && result.flows_completed == launched) {
      break;
    }
    Time target = have_next ? sim.Now() + window
                            : (sim.Now() / kDrainGrid + 1) * kDrainGrid;
    if (sim.events_pending() == 0) {
      // Only aborted/stuck flows have no events; with no future flows
      // either, nothing can make progress.
      if (!have_next) break;
      target = next_flow.spec.start_time;  // idle gap: jump to the next
    }
    sched.RunUntil(std::min(target, stop));
    drain();
    if (sim.Now() < stop) launch_until(sim.Now() + window);
  }
  // The run is over: release the rest, so Host::qps() below holds only
  // the incomplete tail.
  release_until(kTimeInfinity);
  // Flows the run ended before launching count as generated, exactly as
  // window 0 launches (and counts) them all up front.
  std::uint64_t unlaunched = 0;
  for (; have_next; have_next = source->Next(&next_flow)) ++unlaunched;
  result.flows_total = launched + unlaunched;

  if (result.flows_completed < result.flows_total && to_completion) {
    Log(LogLevel::kWarn, sim.Now(), "experiment run incomplete: %zu/%zu flows",
        result.flows_completed, result.flows_total);
  }

  for (Switch* sw : net.switches()) {
    result.pause_frames += sw->pause_frames_sent();
    result.resume_frames += sw->resume_frames_sent();
  }
  result.drops = net.TotalDrops();
  for (Endpoint* ep : net.hosts()) {
    result.out_of_order += static_cast<Host*>(ep)->out_of_order_packets();
    result.late_data_drops += static_cast<Host*>(ep)->stale_flow_packets();
  }
  // Completed flows were counted by their completion hook and released;
  // the QPs the hosts still hold are the incomplete tail (timed out or
  // aborted), counted too.
  for (Endpoint* ep : net.hosts()) {
    for (const SenderQp* qp : static_cast<Host*>(ep)->qps()) {
      result.asymmetric_acks += qp->asymmetric_acks();
      result.lhcs_triggers += qp->cc().lhcs_triggers();
    }
  }
  result.events_processed = sim.events_processed();
  result.pdes_windows = sim.windows_executed();
  result.pdes_stats.outbox_pairs = net.outboxes().size();
  for (const auto& box : net.outboxes()) {
    result.pdes_stats.outbox_bytes += box->capacity_bytes();
  }
  // Pool telemetry sums over every lane's arena. Unlike the counters
  // above it is NOT a partition invariant (which lane's arena services a
  // packet depends on the partition), so equivalence comparisons must
  // exclude it.
  result.pool_packets_created = sim.pool_total_created();
  result.pool_packets_acquired = sim.pool_acquires();
  result.pool_int_blocks_created = sim.pool_int_blocks_created();
  result.wall_time_seconds = timer.Seconds();
  return result;
}

ExperimentPointResult RunExperimentPoint(const ExperimentSpec& point,
                                         int intra_threads, FctSink* sink) {
  if (!point.sweep.empty()) {
    throw SpecError(
        "spec still has sweep axes; expand with ExpandSweep/"
        "RunExperimentPoints instead of running it as a single point");
  }
  ValidateSpec(point);
  return RunResolvedPoint(point, ResolveTopologyParams(point),
                          ResolveWorkloadParams(point), intra_threads, sink);
}

std::vector<ExperimentPointResult> RunExperimentPoints(
    const std::vector<ExperimentSpec>& points, int num_threads,
    const std::vector<FctSink*>& sinks) {
  if (!sinks.empty() && sinks.size() != points.size()) {
    throw SpecError("sinks list must be empty or one entry per point (" +
                    std::to_string(sinks.size()) + " sinks, " +
                    std::to_string(points.size()) + " points)");
  }
  const auto sink_for = [&sinks](std::size_t i) {
    return sinks.empty() ? nullptr : sinks[i];
  };
  // One level of parallelism at a time: a single point gets the whole
  // thread budget for its intra-point domain windows (a no-op for
  // single-lane points); multi-point lists parallelize across points and
  // run each point's domains inline. Either way results are bit-identical
  // to the all-serial run.
  const int threads = num_threads > 0 ? num_threads : DefaultThreadCount();
  if (points.size() == 1) {
    return {RunExperimentPoint(points[0], threads, sink_for(0))};
  }
  // Participants claim points from one ticket; the calling thread is the
  // last participant, so threads = 1 is this loop with no workers. Every
  // point runs even when another throws, and each failure lands in its
  // own slot, so the rethrown error is the lowest-index one at any thread
  // count. Results and sinks belong to exactly one point, so nothing here
  // needs a lock; the joins publish them to the calling thread.
  std::vector<ExperimentPointResult> results(points.size());
  std::vector<std::exception_ptr> errors(points.size());
  std::atomic<std::size_t> ticket{0};
  const auto participate = [&] {
    for (std::size_t i = ticket++; i < points.size(); i = ticket++) {
      try {
        results[i] = RunExperimentPoint(points[i], 1, sink_for(i));
      } catch (...) {
        errors[i] = std::current_exception();
      }
    }
  };
  {
    std::vector<std::jthread> workers;
    const std::size_t participants =
        std::min(static_cast<std::size_t>(threads), points.size());
    for (std::size_t w = 1; w < participants; ++w) {
      workers.emplace_back(participate);
    }
    participate();
  }
  for (const std::exception_ptr& error : errors) {
    if (error) std::rethrow_exception(error);
  }
  return results;
}

int DefaultThreadCount() {
  const char* env = std::getenv("FNCC_THREADS");
  if (env == nullptr || *env == '\0') {
    const unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? static_cast<int>(hw) : 1;
  }
  // The whole value must be the number: "2x" is an error, not 2.
  char* end = nullptr;
  const long v = std::strtol(env, &end, 10);
  if (v < 1 || v > INT_MAX || *end != '\0') {
    throw std::invalid_argument(
        std::string("FNCC_THREADS must be a positive integer, got '") + env +
        "'");
  }
  return static_cast<int>(v);
}

// ---------------------------------------------------------------- outputs

namespace {

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

/// fct.csv + label "FNCC-seed2" -> fct.FNCC-seed2.csv.
std::string InsertTag(const std::string& filename, const std::string& tag) {
  if (tag.empty()) return filename;
  const std::size_t dot = filename.rfind('.');
  if (dot == std::string::npos || dot == 0) return filename + "." + tag;
  return filename.substr(0, dot) + "." + tag + filename.substr(dot);
}

/// Per-point artifact tags: the sweep label, made unique if a sweep lists
/// the same axis value twice; single points use the plain filename (all
/// tags empty). The single naming authority behind both PointFctCsvPaths
/// and WriteExperimentOutputs.
std::vector<std::string> PointTags(const std::vector<std::string>& labels) {
  std::vector<std::string> tags(labels.size());
  std::set<std::string> used;
  for (std::size_t i = 0; i < labels.size(); ++i) {
    if (labels.size() == 1) break;
    std::string tag = labels[i];
    if (tag.empty()) tag = "p";
    if (labels[i].empty()) tag += std::to_string(i);
    if (!used.insert(tag).second) {
      tag += '-';
      tag += std::to_string(i);
      used.insert(tag);
    }
    tags[i] = tag;
  }
  return tags;
}

std::vector<std::string> SpecLabels(const std::vector<ExperimentSpec>& points) {
  std::vector<std::string> labels;
  labels.reserve(points.size());
  for (const ExperimentSpec& p : points) labels.push_back(p.label);
  return labels;
}

template <typename Container>
void WriteJsonUintArray(std::ostream& out, const char* key,
                        const Container& values, bool last = false) {
  out << "  \"" << key << "\": [";
  bool first = true;
  for (const auto v : values) {
    out << (first ? "" : ", ") << v;
    first = false;
  }
  out << "]" << (last ? "" : ",") << "\n";
}

/// The per-point window-telemetry dump (`output.pdes_stats`). Kept out of
/// the manifest's file map on purpose: thread attribution and barrier
/// waits are machine-variant, and the manifest must stay bit-identical
/// across machines and thread counts.
void WritePdesStatsJson(const std::string& path, const std::string& name,
                        const ExperimentPointResult& r) {
  std::ofstream out(path);
  if (!out) throw SpecError("failed to write " + path);
  const PdesStats& s = r.pdes_stats;
  out << "{\n";
  out << "  \"name\": \"" << JsonEscape(name) << "\",\n";
  out << "  \"label\": \"" << JsonEscape(r.label) << "\",\n";
  out << "  \"lanes\": " << s.lanes << ",\n";
  out << "  \"participants\": " << s.participants << ",\n";
  out << "  \"windows\": " << s.windows << ",\n";
  out << "  \"events\": " << s.events << ",\n";
  out << "  \"outbox_pairs\": " << s.outbox_pairs << ",\n";
  out << "  \"outbox_bytes\": " << s.outbox_bytes << ",\n";
  WriteJsonUintArray(out, "lane_windows", s.lane_windows);
  WriteJsonUintArray(out, "lane_events", s.lane_events);
  WriteJsonUintArray(out, "events_per_window_log2", s.events_per_window_log2);
  WriteJsonUintArray(out, "thread_lane_windows", s.thread_lane_windows);
  WriteJsonUintArray(out, "thread_steals", s.thread_steals);
  WriteJsonUintArray(out, "thread_barrier_spins", s.thread_barrier_spins);
  WriteJsonUintArray(out, "thread_barrier_sleeps", s.thread_barrier_sleeps,
                     /*last=*/true);
  out << "}\n";
  if (!out.good()) throw SpecError("failed to write " + path);
}

}  // namespace

std::vector<std::string> PointFctCsvPaths(
    const ExperimentSpec& spec, const std::vector<ExperimentSpec>& points) {
  std::vector<std::string> paths(points.size());
  if (spec.output.fct_csv.empty()) return paths;
  const std::filesystem::path dir =
      spec.output.dir.empty() ? "." : spec.output.dir;
  const std::vector<std::string> tags = PointTags(SpecLabels(points));
  for (std::size_t i = 0; i < points.size(); ++i) {
    paths[i] = (dir / InsertTag(spec.output.fct_csv, tags[i])).string();
  }
  return paths;
}

ExperimentArtifacts WriteExperimentOutputs(
    const ExperimentSpec& spec, const std::vector<ExperimentSpec>& points,
    const std::vector<ExperimentPointResult>& results, int threads,
    double wall_time_seconds) {
  ExperimentArtifacts artifacts;
  const std::filesystem::path dir =
      spec.output.dir.empty() ? "." : spec.output.dir;
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    throw SpecError("cannot create output.dir '" + dir.string() + "': " +
                    ec.message());
  }

  const std::vector<std::string> tags = PointTags(SpecLabels(points));
  const std::vector<std::string> fct_files = PointFctCsvPaths(spec, points);
  std::vector<std::string> series_files(results.size());
  for (std::size_t i = 0; i < results.size(); ++i) {
    if (!fct_files[i].empty()) {
      // A streamed point's FctSink already wrote its file during the run;
      // the manifest's file map just records it.
      if (!spec.output.stream_fct &&
          !WriteFctCsv(fct_files[i], results[i].fct)) {
        throw SpecError("failed to write " + fct_files[i]);
      }
      artifacts.files.push_back(fct_files[i]);
    }
    if (!spec.output.timeseries_csv.empty()) {
      std::vector<std::pair<std::string, const TimeSeries*>> series;
      series.emplace_back("queue_bytes", &results[i].queue_bytes);
      series.emplace_back("utilization", &results[i].utilization);
      for (std::size_t f = 0; f < results[i].flows.size(); ++f) {
        series.emplace_back("flow" + std::to_string(f) + "_pacing_gbps",
                            &results[i].flows[f].pacing_gbps);
        series.emplace_back("flow" + std::to_string(f) + "_goodput_gbps",
                            &results[i].flows[f].goodput_gbps);
      }
      const std::string path =
          (dir / InsertTag(spec.output.timeseries_csv, tags[i])).string();
      if (!WriteTimeSeriesCsv(path, series)) {
        throw SpecError("failed to write " + path);
      }
      series_files[i] = path;
      artifacts.files.push_back(path);
    }
    if (results[i].pdes_stats.participants > 0) {
      const std::string path =
          (dir / InsertTag(spec.name + "_pdes_stats.json", tags[i])).string();
      WritePdesStatsJson(path, spec.name, results[i]);
      artifacts.files.push_back(path);
    }
  }

  if (!spec.output.manifest.empty()) {
    const std::string path = (dir / spec.output.manifest).string();
    std::ofstream out(path);
    if (!out) throw SpecError("failed to write " + path);
    out << "{\n";
    out << "  \"name\": \"" << JsonEscape(spec.name) << "\",\n";
    out << "  \"threads\": " << threads << ",\n";
    out << "  \"wall_time_seconds\": " << wall_time_seconds << ",\n";
    out << "  \"spec\": \"" << JsonEscape(SpecToText(spec)) << "\",\n";
    out << "  \"points\": [\n";
    for (std::size_t i = 0; i < results.size(); ++i) {
      const ExperimentPointResult& r = results[i];
      out << "    {\"index\": " << i << ", \"label\": \""
          << JsonEscape(r.label) << "\",\n";
      out << "     \"topology\": \"" << JsonEscape(points[i].topology)
          << "\", \"workload\": \"" << JsonEscape(points[i].workload)
          << "\",\n";
      out << "     \"mode\": \"" << CcModeName(points[i].scenario.mode)
          << "\", \"seed\": " << points[i].scenario.seed << ",\n";
      out << "     \"files\": {";
      bool first = true;
      if (!fct_files[i].empty()) {
        out << "\"fct\": \"" << JsonEscape(fct_files[i]) << "\"";
        first = false;
      }
      if (!series_files[i].empty()) {
        out << (first ? "" : ", ") << "\"timeseries\": \""
            << JsonEscape(series_files[i]) << "\"";
      }
      out << "},\n";
      out << "     \"flows_completed\": " << r.flows_completed
          << ", \"flows_total\": " << r.flows_total << ",\n";
      out << "     \"pause_frames\": " << r.pause_frames
          << ", \"drops\": " << r.drops
          << ", \"retransmits\": " << r.retransmits
          << ", \"out_of_order\": " << r.out_of_order << ",\n";
      out << "     \"asymmetric_acks\": " << r.asymmetric_acks
          << ", \"lhcs_triggers\": " << r.lhcs_triggers
          << ", \"events_processed\": " << r.events_processed << ",\n";
      out << "     \"wall_time_seconds\": " << r.wall_time_seconds << "}"
          << (i + 1 < results.size() ? "," : "") << "\n";
    }
    out << "  ]\n}\n";
    if (!out.good()) throw SpecError("failed to write " + path);
    artifacts.files.push_back(path);
  }
  return artifacts;
}

}  // namespace fncc
