// Shared driver for the Fig. 14/15 large-scale FCT-slowdown benchmarks.
// Each figure is one declarative ExperimentSpec (fat-tree + poisson with
// sweep.mode over the three schemes) executed on the unified experiment
// engine — the same code path `fncc_run specs/fig14_websearch.exp` drives.
// Points run as one parallel sweep (RunExperimentPoints on
// DefaultThreadCount() threads); outputs are bit-identical to the serial
// run, only wall time changes.
#pragma once

#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "harness/experiment_runner.hpp"

namespace fncc::bench {

struct FctBenchSetup {
  const char* figure;           // "fig14" / "fig15"
  const char* workload_name;    // "WebSearch" / "FB_Hadoop"
  const char* cdf = "web_search";  // SizeCdf registry name
  std::vector<std::uint64_t> edges;
  int default_flows = 800;
};

/// Runs the figure and prints its tables; returns the process exit status
/// (1 when BENCH_<figure>.json cannot be written).
inline int RunFctBench(const FctBenchSetup& setup) {
  Banner((std::string("FCT slowdown, ") + setup.workload_name +
          " at 50% load, fat-tree k=8 (128 hosts)")
             .c_str());

  ExperimentSpec spec;
  spec.name = setup.figure;
  spec.topology = "fat_tree";
  spec.topo.k = static_cast<int>(EnvLong("FNCC_K", 8));
  spec.workload = "poisson";
  spec.cdf = setup.cdf;
  spec.wl.load = 0.5;
  spec.wl.num_flows =
      static_cast<int>(EnvLong("FNCC_FLOWS", setup.default_flows));
  spec.scenario.seed = static_cast<std::uint64_t>(EnvLong("FNCC_SEED", 1));
  spec.run.duration = 0;  // run until every flow completes
  const CcMode modes[] = {CcMode::kDcqcn, CcMode::kHpcc, CcMode::kFncc};
  spec.sweep.modes.assign(std::begin(modes), std::end(modes));

  const int threads = DefaultThreadCount();  // FNCC_THREADS-aware
  WallTimer sweep_timer;
  std::vector<ExperimentPointResult> sweep = RunExperiment(spec, threads);
  const double sweep_seconds = sweep_timer.Seconds();

  std::map<CcMode, ExperimentPointResult> results;
  std::vector<SweepPointMeta> point_meta;
  for (std::size_t i = 0; i < sweep.size(); ++i) {
    const ExperimentPointResult& r = sweep[i];
    std::printf("%s: %zu/%zu flows, %llu pauses, %llu drops, %llu rtx, "
                "%llu asym-acks, %llu events, %.2fs\n",
                CcModeName(modes[i]), r.flows_completed, r.flows_total,
                static_cast<unsigned long long>(r.pause_frames),
                static_cast<unsigned long long>(r.drops),
                static_cast<unsigned long long>(r.retransmits),
                static_cast<unsigned long long>(r.asymmetric_acks),
                static_cast<unsigned long long>(r.events_processed),
                r.wall_time_seconds);
    point_meta.push_back({CcModeName(modes[i]), r.wall_time_seconds});
    results.emplace(modes[i], std::move(sweep[i]));
  }
  const bool meta_written =
      WriteSweepMeta(setup.figure, threads, sweep_seconds, point_meta);

  const char* stat_names[] = {"average", "median", "p95", "p99"};
  for (int stat = 0; stat < 4; ++stat) {
    std::printf("\n%s FCT slowdown by flow size:\n", stat_names[stat]);
    std::printf("%12s", "size<=");
    for (CcMode mode : modes) std::printf(" %10s", CcModeName(mode));
    std::printf(" %8s\n", "count");
    auto pick = [stat](const BucketStats& b) {
      switch (stat) {
        case 0:
          return b.avg;
        case 1:
          return b.p50;
        case 2:
          return b.p95;
        default:
          return b.p99;
      }
    };
    std::vector<std::vector<BucketStats>> bucketed;
    for (CcMode mode : modes) {
      bucketed.push_back(results.at(mode).fct.Bucketed(setup.edges));
    }
    for (std::size_t i = 0; i < setup.edges.size(); ++i) {
      if (bucketed[2][i].count == 0) continue;
      std::printf("%12llu",
                  static_cast<unsigned long long>(setup.edges[i]));
      for (std::size_t m = 0; m < 3; ++m) {
        std::printf(" %10.2f", pick(bucketed[m][i]));
      }
      std::printf(" %8zu\n", bucketed[2][i].count);
      for (std::size_t m = 0; m < 3; ++m) {
        std::printf("series,%s_%s,%s,%llu,%.3f\n", setup.figure,
                    stat_names[stat], CcModeName(modes[m]),
                    static_cast<unsigned long long>(setup.edges[i]),
                    pick(bucketed[m][i]));
      }
    }
  }

  // Headline range comparisons.
  const bool websearch = std::string(setup.figure) == "fig14";
  const std::uint64_t lo = websearch ? 1'000'000 : 0;
  const std::uint64_t hi = websearch ? 100'000'000 : 100'000;
  auto range = [&](CcMode m) { return results.at(m).fct.OverRange(lo, hi); };
  const BucketStats f = range(CcMode::kFncc);
  const BucketStats h = range(CcMode::kHpcc);
  const BucketStats d = range(CcMode::kDcqcn);

  if (websearch) {
    PaperVsMeasured(setup.figure, "flows > 1MB, median vs HPCC", "-12.4%",
                    Fmt("%+.1f%%", 100.0 * (f.p50 - h.p50) / h.p50));
    PaperVsMeasured(setup.figure, "flows > 1MB, median vs DCQCN", "-42.8%",
                    Fmt("%+.1f%%", 100.0 * (f.p50 - d.p50) / d.p50));
  } else {
    PaperVsMeasured(setup.figure, "flows < 100KB, p95 vs HPCC", "-27.4%",
                    Fmt("%+.1f%%", 100.0 * (f.p95 - h.p95) / h.p95));
    PaperVsMeasured(setup.figure, "flows < 100KB, p95 vs DCQCN", "-88.9%",
                    Fmt("%+.1f%%", 100.0 * (f.p95 - d.p95) / d.p95));
  }
  const BucketStats f_all = results.at(CcMode::kFncc).fct.OverRange(0, ~0ull);
  const BucketStats h_all = results.at(CcMode::kHpcc).fct.OverRange(0, ~0ull);
  const BucketStats d_all =
      results.at(CcMode::kDcqcn).fct.OverRange(0, ~0ull);
  PaperVsMeasured(setup.figure, "overall average ordering",
                  "FNCC best, DCQCN worst",
                  (f_all.avg <= h_all.avg && h_all.avg <= d_all.avg)
                      ? "FNCC <= HPCC <= DCQCN"
                      : Fmt("FNCC %.2f", f_all.avg) + " HPCC " +
                            Fmt("%.2f", h_all.avg) + " DCQCN " +
                            Fmt("%.2f", d_all.avg));
  return meta_written ? 0 : 1;
}

}  // namespace fncc::bench
