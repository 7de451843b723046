// fncc_run — the single declarative experiment driver.
//
//   fncc_run [spec-file] [key=value ...]   run a spec (overrides win)
//   fncc_run --list                        registered topologies/workloads
//   fncc_run --print [spec...]             resolve + expand, don't run
//   fncc_run --smoke                       tiny run of every topology x
//                                          workload pair (CI gate)
//
// With no spec file the built-in defaults (dumbbell + two elephants) run;
// every knob is a key=value override, e.g.
//
//   fncc_run specs/fig14_websearch.exp workload.num_flows=200 topology.k=4
//   fncc_run topology.kind=leaf_spine workload.kind=all_to_all
//            run.duration_us=0 sweep.mode=all output.fct_csv=fct.csv
//
// The thread budget resolves --threads N > FNCC_THREADS > hardware
// concurrency. Multi-point sweeps fan points over it; a single point
// hands it to the intra-point domain scheduler (scenario.exec_domains).
// Results are bit-identical at any thread and domain count.
//
// Exit status: 0 on success; 1 on a spec or I/O error, or when a
// run-to-completion point (run.duration_us = 0) ends with flows still
// outstanding — outputs are written first, then each such point is named
// on stderr; 2 on a malformed command line.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "exec/thread_pool.hpp"
#include "exec/wall_timer.hpp"
#include "harness/experiment_runner.hpp"
#include "stats/fct_sink.hpp"

namespace {

using namespace fncc;

void PrintRegistries() {
  std::printf("topologies:\n");
  for (const std::string& name : TopologyRegistry::Names()) {
    std::printf("  %-20s %s\n", name.c_str(),
                TopologyRegistry::Describe(name).c_str());
  }
  std::printf("\nworkloads:\n");
  for (const std::string& name : WorkloadRegistry::Names()) {
    std::printf("  %-20s %s\n", name.c_str(),
                WorkloadRegistry::Describe(name).c_str());
  }
  std::printf("\nflow-size CDFs (workload.cdf):");
  for (const std::string& name : SizeCdf::Names()) {
    std::printf(" %s", name.c_str());
  }
  std::printf("\nCC modes (scenario.mode / sweep.mode):");
  for (CcMode mode : kAllCcModes) std::printf(" %s", CcModeName(mode));
  std::printf("\n");
}

void PrintPointSummary(std::size_t index, const ExperimentSpec& point,
                       const ExperimentPointResult& r) {
  std::printf("point %zu%s%s: %s/%s, flows %zu/%zu", index,
              r.label.empty() ? "" : " ", r.label.c_str(),
              point.topology.c_str(), point.workload.c_str(),
              r.flows_completed, r.flows_total);
  if (!r.queue_bytes.empty()) {
    std::printf(", peakQ %.1f KB", r.queue_bytes.Max() / 1e3);
  }
  std::printf(", pauses %llu, drops %llu, rtx %llu, events %llu (%.2fs)\n",
              static_cast<unsigned long long>(r.pause_frames),
              static_cast<unsigned long long>(r.drops),
              static_cast<unsigned long long>(r.retransmits),
              static_cast<unsigned long long>(r.events_processed),
              r.wall_time_seconds);
  // Window telemetry headline (output.pdes_stats): the full picture goes
  // to the per-point _pdes_stats.json.
  if (r.pdes_stats.participants > 0) {
    std::uint64_t steals = 0;
    for (std::uint64_t s : r.pdes_stats.thread_steals) steals += s;
    std::printf(
        "  pdes: %d lane(s) x %d thread(s), %llu windows, %.1f events/window, "
        "%llu stolen lane-windows\n",
        r.pdes_stats.lanes, r.pdes_stats.participants,
        static_cast<unsigned long long>(r.pdes_stats.windows),
        r.pdes_stats.windows > 0
            ? static_cast<double>(r.pdes_stats.events) /
                  static_cast<double>(r.pdes_stats.windows)
            : 0.0,
        static_cast<unsigned long long>(steals));
  }
}

void PrintBucketRows(const std::vector<BucketStats>& rows) {
  std::printf("%12s %8s %8s %8s %8s %8s\n", "size<=", "count", "avg", "p50",
              "p95", "p99");
  for (const BucketStats& b : rows) {
    if (b.count == 0) continue;
    std::printf("%12llu %8zu %8.2f %8.2f %8.2f %8.2f\n",
                static_cast<unsigned long long>(b.max_size_bytes), b.count,
                b.avg, b.p50, b.p95, b.p99);
  }
}

void PrintBucketTable(const std::string& which,
                      const ExperimentPointResult& r) {
  // `which` was validated by ValidateSpec against the same dispatch.
  PrintBucketRows(r.fct.Bucketed(BucketEdgesByName(which)));
}

/// The streamed point's summary: headline quantiles from the sink's
/// online sketches (exact records were never retained) and, when
/// output.buckets asks for one, the sketch-approximate bucket table.
void PrintStreamedSummary(const FctSink& sink, const std::string& buckets) {
  if (sink.count() == 0) return;
  std::printf(
      "  slowdown mean %.2f  p50 %.2f  p90 %.2f  p99 %.2f  p99.9 %.2f  "
      "(sketch, n=%llu)\n",
      sink.mean_slowdown(), sink.SlowdownQuantile(50),
      sink.SlowdownQuantile(90), sink.SlowdownQuantile(99),
      sink.SlowdownQuantile(99.9),
      static_cast<unsigned long long>(sink.count()));
  if (!buckets.empty()) PrintBucketRows(sink.BucketedApprox());
}

/// One tiny spec per registered topology x workload pair: every pair must
/// build and run end to end. The ctest tier1 smoke and the CI job call
/// this; a newly registered topology or workload is covered automatically.
/// The "trace" workload needs an input file: a tiny valid trace between
/// hosts 0 and 1 (present in every registered topology), written to the
/// temp dir once per smoke run.
std::string WriteSmokeTrace() {
  const std::filesystem::path path =
      std::filesystem::temp_directory_path() / "fncc_smoke_trace.csv";
  std::ofstream out(path);
  out << "start_us,src,dst,bytes\n";
  for (int i = 0; i < 12; ++i) {
    out << i * 5 << "," << (i % 2) << "," << ((i + 1) % 2) << ",20000\n";
  }
  if (!out.good()) {
    throw SpecError("smoke: cannot write " + path.string());
  }
  return path.string();
}

int RunSmoke(int threads) {
  const std::string trace_path = WriteSmokeTrace();
  std::vector<ExperimentSpec> specs;
  for (const std::string& topo : TopologyRegistry::Names()) {
    for (const std::string& wl : WorkloadRegistry::Names()) {
      ExperimentSpec spec;
      spec.name = topo + "-" + wl;
      spec.topology = topo;
      spec.workload = wl;
      spec.topo.num_senders = 3;
      spec.topo.num_switches = 2;
      spec.topo.merge_switch = 1;
      spec.topo.k = 4;
      spec.topo.leaves = 2;
      spec.topo.spines = 2;
      spec.topo.hosts_per_leaf = 2;
      spec.topo.rails = 2;
      spec.wl.num_flows = 12;
      spec.wl.size_bytes = 20'000;
      spec.wl.groups = (topo == "chain_merge") ? 1 : 2;
      spec.cdf = "fb_hadoop";
      if (wl == "trace") spec.wl.trace_file = trace_path;
      if (wl == "elephants") {
        spec.run.duration = Microseconds(50);
      } else {
        spec.run.duration = 0;  // run to completion
        spec.run.max_sim_time = 50 * kMillisecond;
      }
      ValidateSpec(spec);
      specs.push_back(std::move(spec));
    }
  }
  // A bounded launch window at smoke scale: a poisson dumbbell launched
  // 100 us ahead of the clock (it must byte-match the window-0 run — the
  // streaming tests assert that; here it just has to complete).
  {
    ExperimentSpec spec;
    spec.name = "dumbbell-poisson-streaming";
    spec.topology = "dumbbell";
    spec.workload = "poisson";
    spec.topo.num_senders = 3;
    spec.wl.num_flows = 64;
    spec.wl.load = 0.5;
    spec.cdf = "fb_hadoop";
    spec.run.duration = 0;
    spec.run.monitor = false;
    spec.run.launch_window = Microseconds(100);
    spec.run.max_sim_time = 50 * kMillisecond;
    ValidateSpec(spec);
    specs.push_back(std::move(spec));
  }
  // The PDES showcase at smoke scale: the specs/fat_tree_k16.exp point
  // with a short horizon, run through the auto domain partition (k+1
  // lanes) so CI exercises the cross-lane handoff path on every build.
  {
    ExperimentSpec spec;
    spec.name = "fat_tree_k16-pdes-short";
    spec.topology = "fat_tree";
    spec.workload = "permutation";
    spec.topo.k = 16;
    spec.wl.num_flows = 64;
    spec.wl.size_bytes = 20'000;
    spec.cdf = "fb_hadoop";
    spec.scenario.exec_domains = 0;  // auto
    spec.run.duration = 0;  // run to completion
    spec.run.max_sim_time = 50 * kMillisecond;
    ValidateSpec(spec);
    specs.push_back(std::move(spec));
  }
  // Streaming x PDES composed: the same k=16 point with a pinned 8-lane
  // partition, flows pulled through the launch window, and completions
  // drained to a stats-only FctSink — so every CI build exercises the
  // lane-aware launch, per-lane drain and slot recycling together (the
  // tests/streaming suite asserts the byte-identity; here the composition
  // just has to run and account every flow through the sink).
  FctSink streamed_sink{FctSinkOptions{}};  // stats-only, no CSV
  std::size_t streamed_index = 0;
  {
    ExperimentSpec spec;
    spec.name = "fat_tree_k16-pdes-streamed";
    spec.topology = "fat_tree";
    spec.workload = "permutation";
    spec.topo.k = 16;
    spec.wl.num_flows = 64;
    spec.wl.size_bytes = 20'000;
    spec.cdf = "fb_hadoop";
    spec.scenario.exec_domains = 8;
    spec.run.duration = 0;  // run to completion
    spec.run.monitor = false;
    spec.run.launch_window = Microseconds(100);
    spec.run.max_sim_time = 50 * kMillisecond;
    ValidateSpec(spec);
    streamed_index = specs.size();
    specs.push_back(std::move(spec));
  }
  std::vector<FctSink*> sinks(specs.size(), nullptr);
  sinks[streamed_index] = &streamed_sink;
  std::printf("smoke: %zu topology x workload pairs on %d thread(s)\n",
              specs.size(), threads);
  const std::vector<ExperimentPointResult> results =
      RunExperimentPoints(specs, threads, sinks);
  int failures = 0;
  for (std::size_t i = 0; i < results.size(); ++i) {
    const ExperimentPointResult& r = results[i];
    const bool timeseries_only = specs[i].workload == "elephants";
    const bool ok = timeseries_only
                        ? r.events_processed > 0
                        : r.flows_completed == r.flows_total &&
                              r.flows_total > 0;
    std::printf("  %-40s %s (flows %zu/%zu, events %llu)\n",
                specs[i].name.c_str(), ok ? "OK" : "FAILED",
                r.flows_completed, r.flows_total,
                static_cast<unsigned long long>(r.events_processed));
    if (!ok) ++failures;
  }
  if (streamed_sink.count() != results[streamed_index].flows_total) {
    std::fprintf(stderr,
                 "smoke: streamed sink drained %llu of %zu flows\n",
                 static_cast<unsigned long long>(streamed_sink.count()),
                 results[streamed_index].flows_total);
    ++failures;
  }
  if (failures > 0) {
    std::fprintf(stderr, "smoke: %d pair(s) failed\n", failures);
    return 1;
  }
  std::printf("smoke: all pairs OK\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  bool list = false, print_only = false, smoke = false;
  int cli_threads = 0;  // 0 = unset, fall back to FNCC_THREADS / hardware
  std::string spec_file;
  std::vector<std::string> overrides;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--list") {
      list = true;
    } else if (arg == "--print") {
      print_only = true;
    } else if (arg == "--smoke") {
      smoke = true;
    } else if (arg == "--threads") {
      if (i + 1 >= argc || (cli_threads = std::atoi(argv[++i])) < 1) {
        std::fprintf(stderr,
                     "fncc_run: --threads needs a positive integer\n");
        return 2;
      }
    } else if (arg == "--help" || arg == "-h") {
      std::printf(
          "usage: fncc_run [--list | --smoke | --print] [--threads N] "
          "[spec-file] [key=value ...]\n"
          "  --threads N   thread budget; precedence is --threads, then\n"
          "                the FNCC_THREADS environment variable, then\n"
          "                hardware concurrency\n");
      return 0;
    } else if (arg.find('=') != std::string::npos) {
      overrides.push_back(arg);
    } else if (spec_file.empty()) {
      spec_file = arg;
    } else {
      std::fprintf(stderr, "fncc_run: unexpected argument '%s'\n",
                   arg.c_str());
      return 2;
    }
  }

  // --threads beats FNCC_THREADS beats hardware concurrency.
  const int threads =
      cli_threads > 0 ? cli_threads : ThreadPool::DefaultThreadCount();

  try {
    if (list) {
      PrintRegistries();
      return 0;
    }
    if (smoke) return RunSmoke(threads);

    ExperimentSpec spec =
        spec_file.empty() ? ExperimentSpec{} : ParseSpecFile(spec_file);
    ApplySpecOverrides(spec, overrides);
    ValidateSpec(spec);
    const std::vector<ExperimentSpec> points = ExpandSweep(spec);

    if (print_only) {
      std::printf("%s", SpecToText(spec).c_str());
      std::printf("\n# %zu point(s):", points.size());
      for (const ExperimentSpec& p : points) {
        std::printf(" [%s]", p.label.empty() ? "default" : p.label.c_str());
      }
      std::printf("\n");
      return 0;
    }

    std::printf("%s: %zu point(s) on %d thread(s)\n", spec.name.c_str(),
                points.size(), threads);

    // Streaming FCT collection: one sink per point, opened on the exact
    // CSV paths WriteExperimentOutputs will record, writing rows as flows
    // complete. The output directory must exist before the run starts.
    std::vector<std::unique_ptr<FctSink>> sinks;
    std::vector<FctSink*> sink_ptrs;
    if (spec.output.stream_fct) {
      const std::filesystem::path dir =
          spec.output.dir.empty() ? "." : spec.output.dir;
      std::error_code ec;
      std::filesystem::create_directories(dir, ec);
      if (ec) {
        throw SpecError("cannot create output.dir '" + dir.string() +
                        "': " + ec.message());
      }
      const std::vector<std::string> csv_paths =
          PointFctCsvPaths(spec, points);
      for (const std::string& path : csv_paths) {
        FctSinkOptions options;
        options.csv_path = path;
        if (!spec.output.buckets.empty()) {
          options.bucket_edges = BucketEdgesByName(spec.output.buckets);
        }
        sinks.push_back(std::make_unique<FctSink>(std::move(options)));
        sink_ptrs.push_back(sinks.back().get());
      }
    }

    const WallTimer timer;
    const std::vector<ExperimentPointResult> results =
        RunExperimentPoints(points, threads, sink_ptrs);
    const double wall = timer.Seconds();

    for (auto& sink : sinks) {
      if (!sink->Finish()) {
        throw SpecError("failed to write " + sink->csv_path());
      }
    }

    for (std::size_t i = 0; i < results.size(); ++i) {
      PrintPointSummary(i, points[i], results[i]);
      if (spec.output.stream_fct) {
        PrintStreamedSummary(*sinks[i], spec.output.buckets);
      } else if (!spec.output.buckets.empty() && results[i].fct.count() > 0) {
        PrintBucketTable(spec.output.buckets, results[i]);
      }
    }
    std::printf("total %.2fs\n", wall);

    const ExperimentArtifacts artifacts =
        WriteExperimentOutputs(spec, points, results, threads, wall);
    for (const std::string& file : artifacts.files) {
      std::printf("wrote %s\n", file.c_str());
    }

    // A run-to-completion point that stopped with flows outstanding (the
    // run.max_sim_ms wall, or flows that can never finish) has FCT stats
    // biased towards the flows that did: keep the outputs for inspection,
    // but fail the run.
    int incomplete = 0;
    for (std::size_t i = 0; i < results.size(); ++i) {
      const ExperimentPointResult& r = results[i];
      if (points[i].run.duration > 0 || r.flows_completed >= r.flows_total) {
        continue;
      }
      std::fprintf(stderr,
                   "fncc_run: point %zu%s%s incomplete: %zu/%zu flows "
                   "completed\n",
                   i, r.label.empty() ? "" : " ", r.label.c_str(),
                   r.flows_completed, r.flows_total);
      ++incomplete;
    }
    return incomplete > 0 ? 1 : 0;
  } catch (const SpecError& e) {
    std::fprintf(stderr, "fncc_run: %s\n", e.what());
    return 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "fncc_run: %s\n", e.what());
    return 1;
  }
}
