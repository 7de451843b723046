// Traffic generation: open-loop Poisson arrivals at a target load over a
// flow-size CDF (the §5.5 methodology), incast / permutation / shuffle
// patterns, long-lived "elephant" flows and trace replay — all behind a
// name-keyed WorkloadRegistry so experiment specs can select any pattern
// declaratively ("workload.kind = all_to_all"). A new workload is a source
// function plus a row in traffic_gen.cpp's table; the experiment runner and
// fncc_run pick it up with no further wiring.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "sim/rng.hpp"
#include "transport/flow.hpp"
#include "workload/cdf.hpp"

namespace fncc {

/// One long-lived flow in a micro-benchmark. `stop` < infinity aborts the
/// flow at that time (fairness experiment); size is effectively unbounded.
struct LongFlow {
  int sender_index = 0;
  Time start = 0;
  Time stop = kTimeInfinity;
};

/// A generated flow plus its optional abort time (kTimeInfinity = run to
/// completion). Only the `elephants` workload emits finite stops today.
struct GeneratedFlow {
  FlowSpec spec;
  Time stop = kTimeInfinity;
};

/// The topology roles a generator may target. `all` is every endpoint in
/// creation order; `senders`/`receiver` are the topology's preferred roles
/// for sender->sink patterns (see BuiltTopology in net/topology.hpp).
struct WorkloadHosts {
  std::vector<NodeId> all;
  std::vector<NodeId> senders;
  NodeId receiver = kInvalidNode;
};

/// Union of every generator's knobs; each registered workload reads the
/// subset it understands and validates it (std::invalid_argument on bad
/// values). size_bytes = 0 selects the workload's own default size. The
/// spec layer (harness/experiment_spec) maps "workload.*" keys here.
struct WorkloadParams {
  double load = 0.5;        // poisson
  double link_gbps = 100.0; // poisson (set by the runner from the scenario)
  int num_flows = 1000;     // poisson
  std::uint64_t size_bytes = 0;
  Time start_time = 0;
  Time stagger = 0;                   // incast / all_to_all / staggered_incast
  int groups = 2;                     // staggered_incast
  Time group_stagger = Microseconds(50);  // staggered_incast
  std::vector<LongFlow> long_flows;   // elephants
  SizeCdf cdf = SizeCdf::WebSearch(); // poisson
  std::uint16_t port_base = 10'000;
  std::string trace_file;             // trace (CSV path; see trace_replay)
};

class FlowSource;  // workload/flow_source.hpp

/// Process-global name -> workload table of the built-ins (elephants,
/// poisson, incast, permutation, all_to_all, staggered_incast, trace).
/// Every entry is one function that validates the params and returns the
/// workload's FlowSource: poisson and trace draw flows incrementally, the
/// list workloads stream a VectorFlowSource.
class WorkloadRegistry {
 public:
  [[nodiscard]] static bool Contains(const std::string& name);

  /// The workload `name` as a flow stream in generation order (throws
  /// std::invalid_argument for an unknown name or bad params). The
  /// referenced rng/hosts/params must outlive the source.
  static std::unique_ptr<FlowSource> MakeSource(const std::string& name,
                                                Rng& rng,
                                                const WorkloadHosts& hosts,
                                                const WorkloadParams& params);

  /// MakeSource drained into a list: the same flows, in the same order,
  /// with the same RNG draws. Ids are dense from 1.
  static std::vector<GeneratedFlow> Generate(const std::string& name,
                                             Rng& rng,
                                             const WorkloadHosts& hosts,
                                             const WorkloadParams& params);

  /// Registered names, sorted; and a one-line description per name.
  [[nodiscard]] static std::vector<std::string> Names();
  [[nodiscard]] static std::string Describe(const std::string& name);
};

}  // namespace fncc
