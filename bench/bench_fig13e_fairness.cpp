// Fig. 13e: fairness over multiple flows. Four senders share the dumbbell
// bottleneck; a new long-lived flow joins on a fixed cadence and the flows
// then exit in reverse order. Each active flow should track the fair share,
// giving a staircase of rates and a Jain index near 1 at every stage.
//
// The paper runs 100 ms stages; stage length here is configurable
// (FNCC_STAGE_US, default 400 us) — convergence takes ~100 us, so longer
// stages only stretch the flat segments.
#include <cstdio>

#include "bench_util.hpp"
#include "harness/experiment_runner.hpp"
#include "stats/percentile.hpp"

int main() {
  using namespace fncc;
  using namespace fncc::bench;

  const Time stage = Microseconds(
      static_cast<double>(EnvLong("FNCC_STAGE_US", 400)));

  Banner("Fig 13e: fairness with staggered long-lived flows");

  ExperimentSpec spec;
  spec.name = "fig13e_fairness";
  spec.topology = "dumbbell";
  spec.topo.num_senders = 4;
  spec.workload = "elephants";
  spec.wl.long_flows = {{0, 0 * stage, 8 * stage},
                        {1, 1 * stage, 7 * stage},
                        {2, 2 * stage, 6 * stage},
                        {3, 3 * stage, 5 * stage}};
  spec.run.duration = 8 * stage + Microseconds(50);
  spec.run.rate_sample_interval = stage / 100;
  const std::vector<LongFlow>& flows = spec.wl.long_flows;
  const int threads = DefaultThreadCount();
  WallTimer sweep_timer;
  const ExperimentPointResult r = RunExperiment(spec, threads).front();
  const bool meta_written =
      WriteSweepMeta("fig13e", threads, sweep_timer.Seconds(),
                     {{"fncc_staircase", r.wall_time_seconds}});

  for (int i = 0; i < 4; ++i) {
    PrintSeries("fig13e", "flow" + std::to_string(i),
                r.flows[i].goodput_gbps, 1.0, 0, spec.run.duration,
                stage / 20);
  }

  // Jain index per stage over the active flows (sampled mid-stage).
  std::printf("\n%-8s %-10s %-24s %8s\n", "stage", "active", "shares(Gbps)",
              "Jain");
  bool all_fair = true;
  for (int s = 0; s < 8; ++s) {
    const Time from = s * stage + stage / 2;
    const Time to = (s + 1) * stage;
    std::vector<double> shares;
    std::string share_str;
    for (int i = 0; i < 4; ++i) {
      const LongFlow& lf = flows[i];
      if (lf.start <= from && lf.stop >= to) {
        const double g = r.flows[i].goodput_gbps.MeanOver(from, to);
        shares.push_back(g);
        share_str += Fmt("%.1f ", g);
      }
    }
    const double jain = JainFairnessIndex(shares);
    std::printf("%-8d %-10zu %-24s %8.3f\n", s, shares.size(),
                share_str.c_str(), jain);
    if (shares.size() > 1 && jain < 0.95) all_fair = false;
  }

  PaperVsMeasured("fig13e", "fairness",
                  "all active flows share fairly at every stage",
                  all_fair ? "Jain > 0.95 at every multi-flow stage"
                           : "unfair stage found");
  PaperVsMeasured("fig13e", "pause frames", "none expected",
                  Fmt("%.0f", static_cast<double>(r.pause_frames)));
  return meta_written ? 0 : 1;
}
