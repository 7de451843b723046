// Fig. 1b-d: congestion-point queue length over time for FNCC, HPCC and
// DCQCN at 100/200/400 Gbps. Two elephants into the Fig. 10 dumbbell;
// flow1 joins at 300 us. The paper's claim: the slower the notification,
// the deeper the queue — and the gap widens with line rate.
#include <cstdio>

#include "bench_util.hpp"
#include "harness/experiment_runner.hpp"

int main() {
  using namespace fncc;
  using namespace fncc::bench;

  Banner("Fig 1b-d: queue length vs time at 100/200/400 Gbps");
  std::printf("csv header: series,figure,<scheme>@<rate>,time_us,queue_KB\n");

  double peak[3][3] = {};
  const CcMode modes[] = {CcMode::kFncc, CcMode::kHpcc, CcMode::kDcqcn};
  const double rates[] = {100.0, 200.0, 400.0};

  for (int ri = 0; ri < 3; ++ri) {
    for (int mi = 0; mi < 3; ++mi) {
      ExperimentSpec spec;
      spec.scenario.mode = modes[mi];
      spec.scenario.link_gbps = rates[ri];
      spec.wl.long_flows = {{0, 0}, {1, Microseconds(300)}};
      spec.run.duration = Microseconds(650);
      const ExperimentPointResult r = RunExperimentPoint(spec);
      peak[ri][mi] = r.queue_bytes.MaxOver(Microseconds(300),
                                           Microseconds(650));
      const std::string label = std::string(CcModeName(modes[mi])) + "@" +
                                std::to_string(static_cast<int>(rates[ri]));
      PrintSeries("fig1", label, r.queue_bytes, 1e-3, Microseconds(300),
                  Microseconds(620), Microseconds(10));
    }
  }

  std::printf("\n%-10s %12s %12s %12s\n", "rate", "FNCC(KB)", "HPCC(KB)",
              "DCQCN(KB)");
  for (int ri = 0; ri < 3; ++ri) {
    std::printf("%-10.0f %12.1f %12.1f %12.1f\n", rates[ri],
                peak[ri][0] / 1e3, peak[ri][1] / 1e3, peak[ri][2] / 1e3);
  }

  PaperVsMeasured("fig1b-d", "peak queue ordering",
                  "FNCC < HPCC < DCQCN at every rate",
                  (peak[0][0] < peak[0][1] && peak[0][1] < peak[0][2] &&
                   peak[1][0] < peak[1][1] && peak[1][1] < peak[1][2] &&
                   peak[2][0] < peak[2][1] && peak[2][1] < peak[2][2])
                      ? "FNCC < HPCC < DCQCN at every rate"
                      : "ordering violated");
  PaperVsMeasured("fig1b-d", "DCQCN queue at 400G", "~2000 KB",
                  Fmt("%.0f KB", peak[2][2] / 1e3));
  return 0;
}
