// Incast + Last-Hop Congestion Speedup demo: N senders blast one receiver
// (the classic last-hop congestion pattern, Observation 4). Shows how the
// receiver-reported flow count N lets FNCC snap every sender straight to
// B*RTT*beta/N, and compares against FNCC without LHCS, HPCC and DCQCN.
//
//   ./incast_lhcs [num_senders] [key=value ...]
//
// Defaults come from ExperimentSpec: a one-switch dumbbell (every sender's
// last and only hop is the receiver link) running the `incast` workload,
// four schemes as one parallel sweep.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "harness/experiment_runner.hpp"
#include "stats/percentile.hpp"

int main(int argc, char** argv) {
  using namespace fncc;

  ExperimentSpec spec;
  spec.name = "incast_lhcs";
  spec.topology = "dumbbell";
  spec.topo.num_senders = 8;
  spec.topo.num_switches = 1;
  spec.workload = "incast";  // default burst size: 2 MB per sender
  spec.run.duration = 0;     // run until every flow completes
  spec.run.max_sim_time = 100 * kMillisecond;
  spec.sweep.modes = {CcMode::kFncc, CcMode::kFnccNoLhcs, CcMode::kHpcc,
                      CcMode::kDcqcn};

  try {
    std::vector<std::string> overrides;
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg.find('=') == std::string::npos) {
        spec.topo.num_senders = std::atoi(arg.c_str());
      } else {
        overrides.push_back(arg);
      }
    }
    ApplySpecOverrides(spec, overrides);
    ValidateSpec(spec);

    std::printf("%d-to-1 incast, 2 MB per sender, %.0f Gbps\n\n",
                spec.topo.num_senders, spec.scenario.link_gbps);
    std::printf("%-14s %14s %14s %8s %8s %8s\n", "scheme", "peak queue(KB)",
                "makespan(us)", "Jain", "pauses", "LHCS");

    const std::vector<ExperimentSpec> points = ExpandSweep(spec);
    const std::vector<ExperimentPointResult> sweep =
        RunExperimentPoints(points);
    for (std::size_t i = 0; i < sweep.size(); ++i) {
      const ExperimentPointResult& r = sweep[i];
      Time makespan = 0;
      std::vector<double> fcts;
      for (const FlowResult& f : r.fct.results()) {
        makespan = std::max(makespan, f.spec.start_time + f.fct);
        fcts.push_back(ToMicroseconds(f.fct));
      }
      std::printf("%-14s %14.1f %14.1f %8.3f %8llu %8llu\n",
                  CcModeName(points[i].scenario.mode),
                  r.queue_bytes.Max() / 1e3, ToMicroseconds(makespan),
                  JainFairnessIndex(fcts),
                  static_cast<unsigned long long>(r.pause_frames),
                  static_cast<unsigned long long>(r.lhcs_triggers));
    }
    return 0;
  } catch (const SpecError& e) {
    std::fprintf(stderr, "incast_lhcs: %s\n", e.what());
    return 1;
  }
}
