// perfbench_probe: the benchmark's window into each simulator module. It
// drives the same public entry points fncc_run drives and times each call
// from outside the library, so nothing under src/ is instrumented.
//
//   perfbench_probe setup --min-reps N --min-seconds S <spec> [key=value ...]
//       Parse the spec and build every point's fabric and flows the way
//       the experiment runner does before its first event, repeated in
//       this process at least N times and for at least S seconds; print
//       every pass's total, the medians, and each point's lane and flow
//       count as one JSON object.
//   perfbench_probe spawn <usage.json> <program> [args ...]
//       Run the program and write its wall time, CPU time and peak RSS to
//       usage.json; exit with its exit code. A child's ru_maxrss starts at
//       the RSS of the process it was forked from, so run.py (a Python
//       process of ~30 MiB) launches every measured program through this
//       small one.
//   perfbench_probe trace --threads N --run-id ID <spec> [key=value ...]
//       The fncc_run pipeline (parse, run, write outputs) with a span
//       around every module call, plus per-point set-up spans, a replay
//       of the FCT rows through a fresh FctSink and a full pull of each
//       point's FlowSource. Prints spans, counters and timings as one
//       JSON object on the last line.
//
// The set-up replica follows RunResolvedPoint's steps; run.py checks its
// lane and flow counts against the runner's own, so a drift between the
// two fails the benchmark rather than going unmeasured.
//
// Spans are kept in memory and written when the process ends; times are
// CLOCK_MONOTONIC nanoseconds, the clock run.py stamps its own spans with.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include "harness/experiment_runner.hpp"
#include "harness/scenario.hpp"
#include "net/topology.hpp"
#include "sim/simulator.hpp"
#include "stats/fct_sink.hpp"
#include "workload/flow_source.hpp"
#include "workload/traffic_gen.hpp"

namespace {

using namespace fncc;

std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;  // index into Tracer::spans_, -1 = the caller's span
};

class Tracer {
 public:
  /// Opens a span as a child of the innermost open one; Close ends it.
  class Scope {
   public:
    Scope(Tracer* tracer, std::string name) : tracer_(tracer) {
      index_ = static_cast<int>(tracer_->spans_.size());
      tracer_->spans_.push_back(
          {std::move(name), NowNs(), 0, tracer_->open_});
      tracer_->open_ = index_;
    }
    ~Scope() { Close(); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

    /// Ends the span (idempotent) and returns its duration in seconds.
    double Close() {
      Span& s = tracer_->spans_[static_cast<std::size_t>(index_)];
      if (s.end_ns == 0) {
        s.end_ns = NowNs();
        tracer_->open_ = s.parent;
      }
      return static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
    }

   private:
    Tracer* tracer_;
    int index_ = 0;
  };

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
  int open_ = -1;
};

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out + "\"";
}

/// Mirrors the experiment runner's scenario.exec_domains resolution. The
/// runner refuses a pinned count it cannot honour before running; the
/// benchmark's specs pin none, and run.py checks the resulting lane count
/// against the runner's PdesStats.
int DomainCount(const ExperimentSpec& point, const TopologyParams& params) {
  if (point.scenario.exec_domains > 0) return point.scenario.exec_domains;
  if (point.scenario.propagation_delay <= 0) return 1;
  return std::clamp(TopologyNaturalDomains(point.topology, params), 1, 64);
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

struct SetupTimes {
  double setup_s = 0;  // the whole point set-up span
  double build_s = 0, routes_s = 0, seal_s = 0, generate_s = 0;
  double trace_read_s = 0;
  std::size_t flows = 0;  // eager: generated; streamed: pulled (trace mode)
  int lanes = 0;
};

/// One point's set-up, in RunResolvedPoint's order: partition, topology
/// build, routes, domain sealing, then the flow list (eager) or the flow
/// source (streamed). With `read_source` it also pulls the point's whole
/// FlowSource on a fresh RNG, outside the set-up spans.
SetupTimes TimeSetup(const ExperimentSpec& point, Tracer* tracer,
                     bool read_source) {
  SetupTimes t;
  const ScenarioConfig& sc = point.scenario;
  const TopologyParams topo_params = ResolveTopologyParams(point);
  const WorkloadParams wl_params = ResolveWorkloadParams(point);
  Tracer::Scope setup(tracer, "setup." + point.label);
  Simulator sim;
  sim.set_delivery_batch(sc.delivery_batch);
  sim.Partition(DomainCount(point, topo_params));
  t.lanes = sim.num_lanes();
  Rng rng(sc.seed);
  Tracer::Scope build(tracer, "net.build");
  BuiltTopology topo =
      TopologyRegistry::Build(point.topology, &sim, MakeHostFactory(sc),
                              MakeSwitchConfig(sc), &rng, topo_params);
  t.build_s = build.Close();
  Tracer::Scope routes(tracer, "net.routes");
  topo.net.ComputeRoutes(sc.ecmp_salt, sc.symmetric_ecmp);
  t.routes_s = routes.Close();
  Tracer::Scope seal(tracer, "net.seal");
  topo.net.SealDomains();
  t.seal_s = seal.Close();
  const WorkloadHosts roles{topo.hosts, topo.senders, topo.receiver};
  Tracer::Scope generate(tracer, "workload.generate");
  if (point.run.launch_window > 0) {
    const std::unique_ptr<FlowSource> source =
        WorkloadRegistry::MakeSource(point.workload, rng, roles, wl_params);
    t.generate_s = generate.Close();
  } else {
    t.flows = WorkloadRegistry::Generate(point.workload, rng, roles,
                                         wl_params)
                  .size();
    t.generate_s = generate.Close();
  }
  t.setup_s = setup.Close();
  if (read_source) {
    Rng source_rng(sc.seed);
    Tracer::Scope read(tracer, "workload.trace_read");
    const std::unique_ptr<FlowSource> source = WorkloadRegistry::MakeSource(
        point.workload, source_rng, roles, wl_params);
    GeneratedFlow flow;
    std::size_t n = 0;
    while (source->Next(&flow)) ++n;
    t.trace_read_s = read.Close();
    t.flows = n;
  }
  return t;
}

struct Parsed {
  ExperimentSpec spec;
  std::vector<ExperimentSpec> points;
  double parse_s = 0;
};

Parsed ParseTimed(const std::string& spec_file,
                  const std::vector<std::string>& overrides, Tracer* tracer) {
  Parsed p;
  Tracer::Scope span(tracer, "harness.parse");
  p.spec = ParseSpecFile(spec_file);
  ApplySpecOverrides(p.spec, overrides);
  ValidateSpec(p.spec);
  p.points = ExpandSweep(p.spec);
  p.parse_s = span.Close();
  return p;
}

/// The module timings of one set-up pass: the parse and every point.
void PrintSetupJson(const Parsed& parsed, const std::vector<SetupTimes>& st) {
  SetupTimes sum;
  for (const SetupTimes& t : st) {
    sum.setup_s += t.setup_s;
    sum.build_s += t.build_s;
    sum.routes_s += t.routes_s;
    sum.seal_s += t.seal_s;
    sum.generate_s += t.generate_s;
    sum.trace_read_s += t.trace_read_s;
  }
  std::printf(
      "\"parse_s\": %.9f, \"build_s\": %.9f, \"routes_s\": %.9f, "
      "\"seal_s\": %.9f, \"generate_s\": %.9f, \"trace_read_s\": %.9f, "
      "\"setup_s\": %.9f",
      parsed.parse_s, sum.build_s, sum.routes_s, sum.seal_s, sum.generate_s,
      sum.trace_read_s, parsed.parse_s + sum.setup_s);
}

/// setup_s with the noise of one pass taken out: the whole set-up (parse
/// and every point) repeated in this process, reporting medians. Repeats
/// run warm (allocator and page cache primed by the first pass).
int RunSetup(const std::string& spec_file,
             const std::vector<std::string>& overrides, int min_reps,
             double min_seconds) {
  Tracer tracer;
  std::vector<double> totals;
  std::vector<std::vector<double>> point_setup;
  std::vector<SetupTimes> last;
  std::vector<std::string> labels;
  const std::int64_t start = NowNs();
  while (static_cast<int>(totals.size()) < min_reps ||
         static_cast<double>(NowNs() - start) * 1e-9 < min_seconds) {
    const Parsed parsed = ParseTimed(spec_file, overrides, &tracer);
    last.clear();
    labels.clear();
    double total = parsed.parse_s;
    for (const ExperimentSpec& p : parsed.points) {
      labels.push_back(p.label);
      last.push_back(TimeSetup(p, &tracer, /*read_source=*/false));
      total += last.back().setup_s;
    }
    point_setup.resize(last.size());
    for (std::size_t i = 0; i < last.size(); ++i) {
      point_setup[i].push_back(last[i].setup_s);
    }
    totals.push_back(total);
  }
  std::printf("{\"totals\": [");
  for (std::size_t i = 0; i < totals.size(); ++i) {
    std::printf("%s%.9f", i ? ", " : "", totals[i]);
  }
  std::printf("], \"setup_s\": %.9f, \"points\": [", Median(totals));
  for (std::size_t i = 0; i < last.size(); ++i) {
    std::printf("%s{\"label\": %s, \"setup_s\": %.9f, \"lanes\": %d, "
                "\"flows\": %zu}",
                i ? ", " : "", JsonString(labels[i]).c_str(),
                Median(point_setup[i]), last[i].lanes, last[i].flows);
  }
  std::printf("]}\n");
  return 0;
}

/// Replays an FCT CSV (fct_sink.cpp's row format) through a fresh
/// FctSink writing `out_path`. Rows are parsed before the span opens, so
/// the span covers Append + Finish only. Returns the row count and the
/// span's seconds.
std::pair<std::size_t, double> ReplayFctCsv(
    const std::string& csv_path, const std::string& out_path,
    const std::vector<std::uint64_t>& bucket_edges, Tracer* tracer) {
  std::ifstream in(csv_path);
  if (!in) throw std::runtime_error("cannot read " + csv_path);
  std::vector<std::pair<FlowSpec, Time>> rows;
  std::string line;
  std::getline(in, line);  // header
  while (std::getline(in, line)) {
    unsigned id = 0, src = 0, dst = 0;
    unsigned long long size = 0;
    double start_us = 0, fct_us = 0, ideal_us = 0, slowdown = 0;
    if (std::sscanf(line.c_str(), "%u,%u,%u,%llu,%lf,%lf,%lf,%lf", &id, &src,
                    &dst, &size, &start_us, &fct_us, &ideal_us,
                    &slowdown) != 8) {
      throw std::runtime_error("malformed FCT row in " + csv_path + ": " +
                               line);
    }
    FlowSpec spec;
    spec.id = id;
    spec.src = src;
    spec.dst = dst;
    spec.size_bytes = size;
    spec.start_time = Microseconds(start_us);
    spec.ideal_fct = Microseconds(ideal_us);
    rows.emplace_back(spec, Microseconds(fct_us));
  }
  FctSinkOptions options;
  options.csv_path = out_path;
  options.bucket_edges = bucket_edges;
  Tracer::Scope span(tracer, "stats.sink_append");
  FctSink sink(std::move(options));
  for (const auto& [spec, fct] : rows) sink.Append(spec, fct);
  if (!sink.Finish()) throw std::runtime_error("cannot write " + out_path);
  return {rows.size(), span.Close()};
}

int RunTrace(int threads, const std::string& run_id,
             const std::string& spec_file,
             const std::vector<std::string>& overrides) {
  Tracer tracer;
  Tracer::Scope root(&tracer, "probe.trace");
  const Parsed parsed = ParseTimed(spec_file, overrides, &tracer);
  const ExperimentSpec& spec = parsed.spec;
  const std::vector<ExperimentSpec>& points = parsed.points;

  // Work fncc_run does not do (set-up replicas, source pulls, the sink
  // replay below) is kept out of the tracing overhead.
  Tracer::Scope replicas(&tracer, "probe.setup_replicas");
  std::vector<SetupTimes> st;
  for (const ExperimentSpec& p : points) {
    st.push_back(TimeSetup(p, &tracer, /*read_source=*/true));
  }
  double probe_only_s = replicas.Close();

  std::vector<std::uint64_t> bucket_edges;
  if (!spec.output.buckets.empty()) {
    bucket_edges = BucketEdgesByName(spec.output.buckets);
  }
  std::vector<std::unique_ptr<FctSink>> sinks;
  std::vector<FctSink*> sink_ptrs;
  const std::vector<std::string> csv_paths = PointFctCsvPaths(spec, points);
  if (spec.output.stream_fct) {
    std::filesystem::create_directories(spec.output.dir);
    for (const std::string& path : csv_paths) {
      FctSinkOptions options;
      options.csv_path = path;
      options.bucket_edges = bucket_edges;
      sinks.push_back(std::make_unique<FctSink>(std::move(options)));
      sink_ptrs.push_back(sinks.back().get());
    }
  }

  Tracer::Scope run(&tracer, "harness.run");
  const std::vector<ExperimentPointResult> results =
      RunExperimentPoints(points, threads, sink_ptrs);
  const double run_s = run.Close();
  for (auto& sink : sinks) {
    Tracer::Scope finish(&tracer, "stats.sink_finish");
    if (!sink->Finish()) {
      throw std::runtime_error("failed to write " + sink->csv_path());
    }
  }
  Tracer::Scope write(&tracer, "harness.write_outputs");
  WriteExperimentOutputs(spec, points, results, threads, run_s);
  const double write_s = write.Close();

  std::size_t replay_rows = 0;
  double replay_s = 0;
  for (std::size_t i = 0; i < csv_paths.size(); ++i) {
    if (csv_paths[i].empty()) continue;
    const auto [rows, seconds] = ReplayFctCsv(
        csv_paths[i], csv_paths[i] + ".replay", bucket_edges, &tracer);
    replay_rows += rows;
    replay_s += seconds;
    probe_only_s += seconds;
    std::filesystem::remove(csv_paths[i] + ".replay");
  }
  root.Close();

  std::ostringstream out;
  out.precision(9);
  out << "{\"run\": " << JsonString(run_id) << ", \"threads\": " << threads
      << ", \"run_s\": " << run_s << ", \"write_outputs_s\": " << write_s
      << ", \"sink_replay_rows\": " << replay_rows
      << ", \"sink_replay_s\": " << replay_s
      << ", \"probe_only_s\": " << probe_only_s << ", \"points\": [";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const ExperimentPointResult& r = results[i];
    const PdesStats& s = r.pdes_stats;
    std::uint64_t steals = 0, sleeps = 0, max_lane = 0;
    for (std::uint64_t v : s.thread_steals) steals += v;
    for (std::uint64_t v : s.thread_barrier_sleeps) sleeps += v;
    for (std::uint64_t v : s.lane_events) max_lane = std::max(max_lane, v);
    out << (i ? ", " : "") << "{\"label\": " << JsonString(r.label)
        << ", \"mode\": " << JsonString(CcModeName(points[i].scenario.mode))
        << ", \"wall_s\": " << r.wall_time_seconds
        << ", \"events\": " << r.events_processed
        << ", \"flows_completed\": " << r.flows_completed
        << ", \"flows_total\": " << r.flows_total
        << ", \"pause_frames\": " << r.pause_frames
        << ", \"drops\": " << r.drops << ", \"retransmits\": " << r.retransmits
        << ", \"out_of_order\": " << r.out_of_order
        << ", \"asymmetric_acks\": " << r.asymmetric_acks
        << ", \"lhcs_triggers\": " << r.lhcs_triggers
        << ", \"pool_packets_created\": " << r.pool_packets_created
        << ", \"pool_packets_acquired\": " << r.pool_packets_acquired
        << ", \"lanes\": " << s.lanes << ", \"windows\": " << s.windows
        << ", \"window_events\": " << s.events
        << ", \"max_lane_events\": " << max_lane
        << ", \"stolen_lane_windows\": " << steals
        << ", \"barrier_sleeps\": " << sleeps
        << ", \"setup_s\": " << st[i].setup_s
        << ", \"replica_lanes\": " << st[i].lanes
        << ", \"replica_flows\": " << st[i].flows << "}";
  }
  out << "], \"spans\": [";
  const std::vector<Span>& spans = tracer.spans();
  for (std::size_t i = 0; i < spans.size(); ++i) {
    out << (i ? ", " : "") << "{\"name\": " << JsonString(spans[i].name)
        << ", \"start_ns\": " << spans[i].start_ns
        << ", \"end_ns\": " << spans[i].end_ns
        << ", \"parent\": " << spans[i].parent << "}";
  }
  out << "], ";
  std::printf("%s", out.str().c_str());
  PrintSetupJson(parsed, st);
  std::printf("}\n");
  return 0;
}

int RunSpawn(const char* usage_path, char** child_argv) {
  const std::int64_t start = NowNs();
  const pid_t pid = fork();
  if (pid < 0) return 1;
  if (pid == 0) {
    execv(child_argv[0], child_argv);
    _exit(127);
  }
  int status = 0;
  struct rusage ru {};
  if (wait4(pid, &status, 0, &ru) != pid) return 1;
  const double wall_s = static_cast<double>(NowNs() - start) * 1e-9;
  const double cpu_s =
      static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
      static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
  const int code = WIFEXITED(status) ? WEXITSTATUS(status)
                                     : 128 + WTERMSIG(status);
  std::ofstream out(usage_path);
  out.precision(9);
  out << "{\"status\": " << code << ", \"wall_s\": " << wall_s
      << ", \"cpu_s\": " << cpu_s
      << ", \"rss_mib\": " << static_cast<double>(ru.ru_maxrss) / 1024.0
      << "}\n";
  return out ? code : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc >= 4 && std::string(argv[1]) == "spawn") {
    return RunSpawn(argv[2], argv + 3);
  }
  if (argc < 3) {
    std::fprintf(stderr,
                 "usage: perfbench_probe setup --min-reps N --min-seconds S "
                 "<spec> [key=value ...]\n"
                 "       perfbench_probe spawn <usage.json> <program> "
                 "[args ...]\n"
                 "       perfbench_probe trace --threads N --run-id ID "
                 "<spec> [key=value ...]\n");
    return 2;
  }
  const std::string command = argv[1];
  int threads = 1;
  int min_reps = 1;
  double min_seconds = 0;
  std::string run_id, spec_file;
  std::vector<std::string> overrides;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--threads" && i + 1 < argc) {
      threads = std::atoi(argv[++i]);
    } else if (arg == "--min-reps" && i + 1 < argc) {
      min_reps = std::atoi(argv[++i]);
    } else if (arg == "--min-seconds" && i + 1 < argc) {
      min_seconds = std::atof(argv[++i]);
    } else if (arg == "--run-id" && i + 1 < argc) {
      run_id = argv[++i];
    } else if (arg.find('=') != std::string::npos) {
      overrides.push_back(arg);
    } else {
      spec_file = arg;
    }
  }
  try {
    if (command == "setup" && min_reps >= 1) {
      return RunSetup(spec_file, overrides, min_reps, min_seconds);
    }
    if (command == "trace" && threads >= 1) {
      return RunTrace(threads, run_id, spec_file, overrides);
    }
    std::fprintf(stderr, "perfbench_probe: bad command line\n");
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_probe: %s\n", e.what());
    return 1;
  }
}
