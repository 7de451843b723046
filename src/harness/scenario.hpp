// Shared scenario plumbing: translate one ScenarioConfig into the switch,
// host and CC configurations every experiment uses, and launch flows with
// per-flow base-RTT resolution.
#pragma once

#include "cc/cc_algorithm.hpp"
#include "net/network.hpp"
#include "net/switch.hpp"
#include "net/topology.hpp"
#include "transport/host.hpp"

namespace fncc {

struct ScenarioConfig {
  CcMode mode = CcMode::kFncc;

  double link_gbps = 100.0;
  Time propagation_delay = Microseconds(1.5);
  std::uint32_t mtu_bytes = kDefaultMtuBytes;

  bool pfc_enabled = true;
  std::uint64_t pfc_xoff_bytes = 500'000;  // §5.1
  std::uint64_t pfc_xon_bytes = 250'000;

  int ack_every = 1;
  std::uint64_t seed = 1;
  bool symmetric_ecmp = true;
  std::uint32_t ecmp_salt = 0x5eed;

  /// All_INT_Table refresh period; 0 = live counters (see DESIGN.md).
  Time int_table_refresh = 0;

  /// Push every stamped INT entry through the Fig. 7 64-bit wire encoding
  /// (4/24/20/16-bit fields) instead of full simulator precision.
  bool quantize_int = false;

  /// Host-bound delivery lookahead (Simulator::set_delivery_batch): how
  /// many upcoming deliveries each egress port keeps prefetched. 1 =
  /// per-packet, no lookahead. A pure cache-warming knob — results are
  /// bit-identical across settings (batch-boundary tests pin this).
  int delivery_batch = 16;

  /// Intra-point event domains (conservative PDES): the fabric is
  /// partitioned into this many event lanes, advanced in lookahead-bounded
  /// windows (Simulator::Partition, exec/DomainScheduler). 1 = the classic
  /// single queue; 0 = auto — the topology's natural domain count
  /// (TopologyNaturalDomains), degrading to 1 when propagation_delay is
  /// zero (no lookahead window). A pinned value > 1 is honored exactly or
  /// refused with a SpecError (never silently clamped). Composes with
  /// every launch window (run.launch_window_us). Outputs are bit-identical
  /// at every setting; >1 only changes wall-clock time.
  int exec_domains = 1;

  // CC knobs forwarded into CcConfig (paper defaults).
  double eta = 0.95;
  int max_stage = 5;
  double wai_bytes = 0;  // 0 = auto
  double lhcs_alpha = 1.05;
  double lhcs_beta = 0.9;

  [[nodiscard]] LinkParams link() const {
    return {link_gbps, propagation_delay};
  }
};

[[nodiscard]] SwitchConfig MakeSwitchConfig(const ScenarioConfig& sc);
[[nodiscard]] HostConfig MakeHostConfig(const ScenarioConfig& sc);
[[nodiscard]] CcConfig MakeCcConfig(const ScenarioConfig& sc,
                                    double line_rate_gbps, Time base_rtt);
[[nodiscard]] HostFactory MakeHostFactory(const ScenarioConfig& sc);

/// Standalone FCT on an idle network: first-packet base RTT plus line-rate
/// serialization of the remaining bytes (see DESIGN.md).
[[nodiscard]] Time IdealFct(const Network& net, const FlowSpec& spec,
                            const ScenarioConfig& sc);

/// Resolves base RTT + ideal FCT for `spec` and starts it on its source
/// host. Returns the QP.
SenderQp* LaunchFlow(Network& net, const ScenarioConfig& sc, FlowSpec spec);

}  // namespace fncc
