// Pull-based flow generation: the interface the harness launches from and
// the one form every registered workload takes. A FlowSource hands out one
// GeneratedFlow at a time, so the harness can launch from a bounded
// lookahead window (run.launch_window_us — see harness/experiment_runner)
// instead of materializing a million-flow std::vector up front. The
// incremental workloads (poisson, trace replay) keep per-flow memory O(1);
// the list workloads fill a vector and stream it through VectorFlowSource.
//
// Contract: flows come back in generation order — the order
// WorkloadRegistry::Generate, which drains the source, returns them —
// which fixes launch order, RNG draw order and the dense launch serial the
// launcher stamps into FlowSpec::launch_serial, so runs at every launch
// window are bit-identical. A window > 0 additionally needs non-decreasing
// spec.start_time (true for poisson and validated for traces; the
// launcher rejects a flow that starts behind the clock). The launch
// serial is the partition-invariant identity behind the flow-start order
// word (sim/event_queue.hpp) that keeps outputs byte-identical at every
// scenario.exec_domains.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include "workload/traffic_gen.hpp"

namespace fncc {

class FlowSource {
 public:
  virtual ~FlowSource() = default;

  /// Fills *out with the next flow; false when the stream is exhausted.
  /// Sources backed by external input (trace files) throw
  /// std::invalid_argument with file:line context on malformed rows.
  virtual bool Next(GeneratedFlow* out) = 0;
};

/// The list workloads' source: owns a generated flow list and streams it.
class VectorFlowSource final : public FlowSource {
 public:
  explicit VectorFlowSource(std::vector<GeneratedFlow> flows)
      : flows_(std::move(flows)) {}

  bool Next(GeneratedFlow* out) override {
    if (next_ >= flows_.size()) return false;
    *out = flows_[next_++];
    return true;
  }

 private:
  std::vector<GeneratedFlow> flows_;
  std::size_t next_ = 0;
};

}  // namespace fncc
