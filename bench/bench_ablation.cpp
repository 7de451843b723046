// Ablations on FNCC's design choices (DESIGN.md §5):
//  1. All_INT_Table staleness — Alg. 1 says the table is "updated
//     periodically"; how stale can it get before control quality degrades?
//  2. Cumulative-ACK coalescing (m) — §3.2.3 supports one ACK per m
//     packets; fewer ACKs = fewer telemetry samples.
//  3. beta sweep — the queue-draining margin of LHCS.
//  4. INT quantization — full-precision telemetry vs the 64-bit Fig. 7
//     wire encoding.
#include <cstdio>

#include "bench_util.hpp"
#include "core/ack_format.hpp"
#include "harness/experiment_runner.hpp"
#include "stats/percentile.hpp"

namespace {

using namespace fncc;

ExperimentSpec Base() {
  ExperimentSpec spec;
  spec.scenario.mode = CcMode::kFncc;
  spec.wl.long_flows = {{0, 0}, {1, Microseconds(300)}};
  spec.run.duration = Microseconds(900);
  return spec;
}

void Report(const char* what, const ExperimentPointResult& r) {
  const double f0 = r.flows[0].goodput_gbps.MeanOver(Microseconds(600),
                                                     Microseconds(900));
  const double f1 = r.flows[1].goodput_gbps.MeanOver(Microseconds(600),
                                                     Microseconds(900));
  std::printf("  %-24s peakQ %8.1f KB   util %5.2f   Jain %6.3f\n", what,
              r.queue_bytes.Max() / 1e3,
              r.utilization.MeanOver(Microseconds(500), Microseconds(900)),
              JainFairnessIndex({f0, f1}));
}

}  // namespace

int main() {
  using namespace fncc::bench;

  Banner("Ablation 1: All_INT_Table refresh period (staleness)");
  for (double refresh_us : {0.0, 1.0, 5.0, 20.0, 100.0}) {
    ExperimentSpec spec = Base();
    spec.scenario.int_table_refresh = Microseconds(refresh_us);
    const auto r = RunExperimentPoint(spec);
    char label[64];
    std::snprintf(label, sizeof(label), "refresh=%gus%s", refresh_us,
                  refresh_us == 0 ? " (live)" : "");
    Report(label, r);
  }

  Banner("Ablation 2: cumulative ACK coalescing m");
  for (int m : {1, 2, 4, 8, 16}) {
    ExperimentSpec spec = Base();
    spec.scenario.ack_every = m;
    const auto r = RunExperimentPoint(spec);
    char label[32];
    std::snprintf(label, sizeof(label), "ack_every=%d", m);
    Report(label, r);
  }

  Banner("Ablation 3: LHCS beta (queue-draining margin), last-hop merge");
  for (double beta : {1.0, 0.95, 0.9, 0.8, 0.6}) {
    ExperimentSpec spec = Base();
    spec.topology = "chain_merge";
    spec.topo.merge_switch = 2;
    spec.scenario.lhcs_beta = beta;
    const auto r = RunExperimentPoint(spec);
    char label[32];
    std::snprintf(label, sizeof(label), "beta=%g", beta);
    Report(label, r);
  }

  Banner("Ablation 4: W_AI additive-increase step");
  for (double wai : {100.0, 500.0, 2000.0, 8000.0}) {
    ExperimentSpec spec = Base();
    spec.scenario.wai_bytes = wai;
    const auto r = RunExperimentPoint(spec);
    char label[32];
    std::snprintf(label, sizeof(label), "wai=%gB", wai);
    Report(label, r);
  }

  Banner("Ablation 5: INT quantization (Fig. 7 64-bit entries, end to end)");
  {
    ExperimentSpec spec = Base();
    spec.scenario.quantize_int = false;
    Report("full precision", RunExperimentPoint(spec));
    spec.scenario.quantize_int = true;
    Report("quantized (hw widths)", RunExperimentPoint(spec));
  }
  {
    // Worst-case relative error of each field after wire encoding.
    IntEntry e{100.0, Microseconds(777), 123'456'789, 345'678};
    IntEntry ref{100.0, Microseconds(776), 123'400'000, 0};
    const IntEntry q = QuantizeThroughWire(e, ref);
    std::printf("  ts error %lld ps (tick %lld ps), txBytes error %lld B "
                "(unit %llu B), qlen error %lld B (unit %llu B)\n",
                static_cast<long long>(q.ts - e.ts),
                static_cast<long long>(kTsTickPs),
                static_cast<long long>(
                    static_cast<std::int64_t>(q.tx_bytes) -
                    static_cast<std::int64_t>(e.tx_bytes)),
                static_cast<unsigned long long>(kTxBytesUnit),
                static_cast<long long>(
                    static_cast<std::int64_t>(q.qlen_bytes) -
                    static_cast<std::int64_t>(e.qlen_bytes)),
                static_cast<unsigned long long>(kQlenUnit));
  }

  PaperVsMeasured("ablation", "INT staleness tolerance",
                  "not evaluated in paper (design assumption)",
                  "see Ablation 1 rows");
  return 0;
}
