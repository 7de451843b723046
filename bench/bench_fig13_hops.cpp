// Fig. 13a-d: congestion at the first, middle and last hop of a 3-switch
// chain (Fig. 11 topologies). Reports queue depth and utilization for FNCC
// vs HPCC, the LHCS ablation on the last hop, and the last-hop flow-rate
// trajectories showing the fair*beta snap.
//
// One declarative spec: chain_merge + elephants with sweep.mode x
// sweep.merge_switch — the same nine points `fncc_run specs/fig13_hops.exp`
// runs, executed on the same unified engine.
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "harness/experiment_runner.hpp"

int main() {
  using namespace fncc;
  using namespace fncc::bench;

  Banner("Fig 13: congestion location study (first/middle/last hop)");

  ExperimentSpec spec;
  spec.name = "fig13_hops";
  spec.topology = "chain_merge";
  spec.topo.num_switches = 3;
  spec.wl.long_flows = {{0, 0, kTimeInfinity},
                       {1, Microseconds(300), kTimeInfinity}};
  spec.run.duration = Microseconds(800);
  const CcMode modes[] = {CcMode::kHpcc, CcMode::kFnccNoLhcs, CcMode::kFncc};
  spec.sweep.modes.assign(std::begin(modes), std::end(modes));
  spec.sweep.merge_switches = {0, 1, 2};

  // All nine (hop, mode) points as one parallel sweep; results come back
  // in expansion order (mode outer, merge_switch inner), bit-identical to
  // the serial run.
  const int threads = DefaultThreadCount();
  WallTimer sweep_timer;
  const std::vector<ExperimentPointResult> sweep =
      RunExperiment(spec, threads);
  const double sweep_seconds = sweep_timer.Seconds();
  const auto at = [&sweep](int hop, int mode) -> const ExperimentPointResult& {
    return sweep[static_cast<std::size_t>(3 * mode + hop)];
  };

  const char* hop_names[] = {"first", "middle", "last"};
  double reduction[4] = {};  // first, middle, last-noLHCS, last-LHCS

  std::vector<SweepPointMeta> point_meta;
  for (int hop = 0; hop < 3; ++hop) {
    const auto& hpcc = at(hop, 0);
    const auto& fncc_no = at(hop, 1);
    const auto& fncc_full = at(hop, 2);
    for (int m = 0; m < 3; ++m) {
      point_meta.push_back({std::string(hop_names[hop]) + "/" +
                                CcModeName(modes[m]),
                            at(hop, m).wall_time_seconds});
    }

    const Time from = Microseconds(300), to = Microseconds(800);
    const double q_hpcc = hpcc.queue_bytes.MaxOver(from, to);
    const double q_no = fncc_no.queue_bytes.MaxOver(from, to);
    const double q_full = fncc_full.queue_bytes.MaxOver(from, to);
    const double u_hpcc = hpcc.utilization.MeanOver(from, to);
    const double u_full = fncc_full.utilization.MeanOver(from, to);

    std::printf("\n%s-hop congestion:\n", hop_names[hop]);
    std::printf("  peak queue: HPCC %.1f KB | FNCC-noLHCS %.1f KB | FNCC "
                "%.1f KB\n",
                q_hpcc / 1e3, q_no / 1e3, q_full / 1e3);
    std::printf("  utilization: HPCC %.2f | FNCC %.2f\n", u_hpcc, u_full);

    if (hop < 2) {
      reduction[hop] = 100.0 * (q_hpcc - q_full) / q_hpcc;
    } else {
      reduction[2] = 100.0 * (q_hpcc - q_no) / q_hpcc;
      reduction[3] = 100.0 * (q_hpcc - q_full) / q_hpcc;
      // Fig. 13d: flow-rate trajectories on the last hop.
      for (const auto& [label, run] :
           {std::pair<const char*, const ExperimentPointResult*>{
                "FNCC+LHCS", &fncc_full},
            {"FNCC-noLHCS", &fncc_no},
            {"HPCC", &hpcc}}) {
        PrintSeries("fig13d_flow0", label, run->flows[0].pacing_gbps, 1.0,
                    Microseconds(250), Microseconds(800), Microseconds(10));
        PrintSeries("fig13d_flow1", label, run->flows[1].pacing_gbps, 1.0,
                    Microseconds(250), Microseconds(800), Microseconds(10));
      }
      std::printf("  LHCS triggers: %llu (with) vs %llu (without)\n",
                  static_cast<unsigned long long>(fncc_full.lhcs_triggers),
                  static_cast<unsigned long long>(fncc_no.lhcs_triggers));
    }
  }

  std::printf("\nqueue-depth reduction vs HPCC:\n");
  std::printf("  first hop: %.1f%%  middle hop: %.1f%%  last hop "
              "(no LHCS): %.1f%%  last hop (LHCS): %.1f%%\n",
              reduction[0], reduction[1], reduction[2], reduction[3]);

  PaperVsMeasured("fig13a", "first-hop queue reduction", "37.5%",
                  Fmt("%.1f%%", reduction[0]));
  PaperVsMeasured("fig13b", "middle-hop queue reduction", "29.5%",
                  Fmt("%.1f%%", reduction[1]));
  PaperVsMeasured("fig13c", "last-hop reduction w/o LHCS", "8.4%",
                  Fmt("%.1f%%", reduction[2]));
  PaperVsMeasured("fig13c", "last-hop reduction with LHCS", "38.5%",
                  Fmt("%.1f%%", reduction[3]));
  PaperVsMeasured("fig13", "LHCS adds most on last hop",
                  "LHCS reduction >> no-LHCS reduction",
                  reduction[3] > reduction[2] ? "confirmed" : "violated");
  return WriteSweepMeta("fig13", threads, sweep_seconds, point_meta) ? 0 : 1;
}
