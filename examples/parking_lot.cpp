// Parking-lot scenario: a long-path flow (sender0, 3 switches) competes at
// the last hop with a short-path flow (sender1, 1 switch). RTT-based and
// slow-notification schemes are known to favour the short-RTT flow; FNCC's
// LHCS hands both the same fair share because the receiver's N counts QP
// connections, not round trips.
//
//   ./parking_lot [key=value ...]
//
// Defaults come from ExperimentSpec (chain_merge, last-hop merge, six
// schemes as one parallel sweep).
#include <cstdio>
#include <string>
#include <vector>

#include "harness/experiment_runner.hpp"
#include "stats/percentile.hpp"

int main(int argc, char** argv) {
  using namespace fncc;

  ExperimentSpec spec;
  spec.name = "parking_lot";
  spec.topology = "chain_merge";
  spec.topo.num_switches = 3;
  spec.topo.merge_switch = 2;  // merge at the last hop
  spec.wl.long_flows = {{0, 0, kTimeInfinity},
                        {1, Microseconds(100), kTimeInfinity}};
  spec.run.duration = Microseconds(1000);
  spec.sweep.modes = {CcMode::kFncc,  CcMode::kFnccNoLhcs, CcMode::kHpcc,
                      CcMode::kDcqcn, CcMode::kTimely,     CcMode::kSwift};

  try {
    ApplySpecOverrides(
        spec, std::vector<std::string>(argv + 1, argv + argc));
    ValidateSpec(spec);

    std::printf("parking lot: long-path flow0 vs short-path flow1 merging at "
                "the last hop (%.0f Gbps)\n\n",
                spec.scenario.link_gbps);
    std::printf("%-14s %14s %14s %8s %12s\n", "scheme", "flow0(Gbps)",
                "flow1(Gbps)", "Jain", "peakQ(KB)");

    const std::vector<ExperimentSpec> points = ExpandSweep(spec);
    const std::vector<ExperimentPointResult> sweep =
        RunExperimentPoints(points);
    for (std::size_t i = 0; i < sweep.size(); ++i) {
      const ExperimentPointResult& r = sweep[i];
      const double f0 = r.flows[0].goodput_gbps.MeanOver(Microseconds(600),
                                                         Microseconds(1000));
      const double f1 = r.flows[1].goodput_gbps.MeanOver(Microseconds(600),
                                                         Microseconds(1000));
      std::printf("%-14s %14.1f %14.1f %8.3f %12.1f\n",
                  CcModeName(points[i].scenario.mode), f0, f1,
                  JainFairnessIndex({f0, f1}), r.queue_bytes.Max() / 1e3);
    }
    std::printf("\nWindow-based schemes share fairly despite the 3x RTT gap;\n"
                "delay-based schemes favour whichever flow sees less queueing "
                "delay.\n");
    return 0;
  } catch (const SpecError& e) {
    std::fprintf(stderr, "parking_lot: %s\n", e.what());
    return 1;
  }
}
