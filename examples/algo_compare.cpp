// Side-by-side comparison of every implemented CC scheme on the same
// two-elephant scenario: reaction time, peak queue, converged utilization,
// fairness — the paper's §5.1 narrative in one table.
//
//   ./algo_compare [link_gbps] [key=value ...]
//
// Defaults come from ExperimentSpec with sweep.mode=all; the seven schemes
// run as one parallel sweep (FNCC_THREADS threads, see README "Parallel
// execution") with per-scheme numbers bit-identical to a serial run.
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "harness/experiment_runner.hpp"
#include "stats/percentile.hpp"

int main(int argc, char** argv) {
  using namespace fncc;

  ExperimentSpec spec;  // dumbbell + two elephants (flow1 joins at 300 us)
  spec.name = "algo_compare";
  spec.run.duration = Microseconds(1000);
  spec.sweep.modes.assign(std::begin(kAllCcModes), std::end(kAllCcModes));

  try {
    std::vector<std::string> overrides;
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      char* end = nullptr;
      const double gbps = std::strtod(arg.c_str(), &end);
      if (end != arg.c_str() && *end == '\0' && gbps > 0) {
        spec.scenario.link_gbps = gbps;
      } else {
        overrides.push_back(arg);
      }
    }
    ApplySpecOverrides(spec, overrides);
    ValidateSpec(spec);
    const double gbps = spec.scenario.link_gbps;

    const std::vector<ExperimentSpec> points = ExpandSweep(spec);
    const std::vector<ExperimentPointResult> sweep =
        RunExperimentPoints(points);

    std::printf("two elephants on the Fig. 10 dumbbell at %.0f Gbps; flow1 "
                "joins at 300 us\n\n",
                gbps);
    std::printf("%-14s %12s %12s %10s %8s %8s\n", "scheme", "react(us)",
                "peakQ(KB)", "util", "Jain", "pauses");

    for (std::size_t i = 0; i < sweep.size(); ++i) {
      const CcMode mode = points[i].scenario.mode;
      const ExperimentPointResult& r = sweep[i];

      const Time react = r.flows[0].pacing_gbps.FirstTimeBelow(
          0.8 * gbps, Microseconds(300));
      const double f0 = r.flows[0].goodput_gbps.MeanOver(Microseconds(700),
                                                         Microseconds(1000));
      const double f1 = r.flows[1].goodput_gbps.MeanOver(Microseconds(700),
                                                         Microseconds(1000));
      char react_str[32];
      if (react == kTimeInfinity) {
        std::snprintf(react_str, sizeof(react_str), "never");
      } else {
        std::snprintf(react_str, sizeof(react_str), "%.1f",
                      ToMicroseconds(react));
      }
      std::printf("%-14s %12s %12.1f %10.2f %8.3f %8llu\n", CcModeName(mode),
                  react_str, r.queue_bytes.Max() / 1e3,
                  r.utilization.MeanOver(Microseconds(700),
                                         Microseconds(1000)),
                  JainFairnessIndex({f0, f1}),
                  static_cast<unsigned long long>(r.pause_frames));
    }
    return 0;
  } catch (const SpecError& e) {
    std::fprintf(stderr, "algo_compare: %s\n", e.what());
    return 1;
  }
}
