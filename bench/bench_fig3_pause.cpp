// Fig. 3: PFC pause frames generated at the congestion point for DCQCN,
// HPCC and FNCC at 200 and 400 Gbps (same two-elephant scenario, PFC
// threshold 500 KB). Slow notification -> deep queue -> pauses.
#include <cstdio>

#include "bench_util.hpp"
#include "harness/experiment_runner.hpp"

int main() {
  using namespace fncc;
  using namespace fncc::bench;

  Banner("Fig 3: pause frames at the congestion point");

  const CcMode modes[] = {CcMode::kDcqcn, CcMode::kHpcc, CcMode::kFncc};
  const double rates[] = {200.0, 400.0};
  std::uint64_t pauses[2][3] = {};

  for (int ri = 0; ri < 2; ++ri) {
    for (int mi = 0; mi < 3; ++mi) {
      ExperimentSpec spec;
      spec.scenario.mode = modes[mi];
      spec.scenario.link_gbps = rates[ri];
      spec.wl.long_flows = {{0, 0}, {1, Microseconds(300)}};
      spec.run.duration = Microseconds(900);
      const ExperimentPointResult r = RunExperimentPoint(spec);
      pauses[ri][mi] = r.pause_frames;
    }
  }

  std::printf("%-10s %10s %10s %10s\n", "rate", "DCQCN", "HPCC", "FNCC");
  for (int ri = 0; ri < 2; ++ri) {
    std::printf("%-10.0f %10llu %10llu %10llu\n", rates[ri],
                static_cast<unsigned long long>(pauses[ri][0]),
                static_cast<unsigned long long>(pauses[ri][1]),
                static_cast<unsigned long long>(pauses[ri][2]));
  }

  const bool fncc_min =
      pauses[0][2] <= pauses[0][1] && pauses[0][1] <= pauses[0][0] &&
      pauses[1][2] <= pauses[1][1] && pauses[1][1] <= pauses[1][0];
  PaperVsMeasured("fig3", "pause ordering",
                  "FNCC fewest, DCQCN most, at 200G and 400G",
                  fncc_min ? "FNCC <= HPCC <= DCQCN at both rates"
                           : "ordering violated");
  PaperVsMeasured("fig3", "FNCC pauses", "0 (minimal)",
                  Fmt("%.0f", static_cast<double>(pauses[1][2])));
  return 0;
}
