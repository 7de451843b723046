#include "harness/scenario.hpp"

#include <algorithm>

#include "core/ack_format.hpp"
#include "core/congestion_control.hpp"

namespace fncc {

SwitchConfig MakeSwitchConfig(const ScenarioConfig& sc) {
  SwitchConfig config;
  config.pfc_enabled = sc.pfc_enabled;
  config.pfc_xoff_bytes = sc.pfc_xoff_bytes;
  config.pfc_xon_bytes = sc.pfc_xon_bytes;
  config.int_table_refresh = sc.int_table_refresh;
  if (sc.quantize_int) {
    config.int_transform = [](const IntEntry& live, const IntEntry& prev) {
      return QuantizeThroughWire(live, prev);
    };
  }
  ApplySwitchFeatures(sc.mode, sc.link_gbps, config);
  return config;
}

HostConfig MakeHostConfig(const ScenarioConfig& sc) {
  HostConfig config;
  config.mtu_bytes = sc.mtu_bytes;
  config.ack_every = sc.ack_every;
  config.attach_int_to_ack = (sc.mode == CcMode::kHpcc);
  config.report_concurrent_flows = true;
  config.echo_timestamp = true;
  return config;
}

CcConfig MakeCcConfig(const ScenarioConfig& sc, double line_rate_gbps,
                      Time base_rtt) {
  CcConfig cc;
  cc.mode = sc.mode;
  cc.line_rate_gbps = line_rate_gbps;
  cc.base_rtt = base_rtt;
  cc.mtu_bytes = sc.mtu_bytes;
  cc.eta = sc.eta;
  cc.max_stage = sc.max_stage;
  cc.wai_bytes = sc.wai_bytes;
  cc.lhcs_alpha = sc.lhcs_alpha;
  cc.lhcs_beta = sc.lhcs_beta;
  return cc;
}

HostFactory MakeHostFactory(const ScenarioConfig& sc) {
  const HostConfig host_config = MakeHostConfig(sc);
  // One flow table per factory = per fabric: every host the factory builds
  // shares it, so a FlowId minted at the sender resolves to the same slot
  // at the receiver (see flow_table.hpp). A factory must therefore not be
  // reused across topologies — each runner builds a fresh one per run.
  auto flow_table = std::make_shared<FlowTable>();
  return [host_config, flow_table](Simulator* sim, NodeId id,
                                   const std::string& name) {
    return std::make_unique<Host>(sim, id, name, host_config, flow_table);
  };
}

Time IdealFct(const Network& net, const FlowSpec& spec,
              const ScenarioConfig& sc) {
  const Time rtt = net.BaseRtt(spec.src, spec.dst, spec.sport, spec.dport,
                               std::min<std::uint64_t>(spec.size_bytes,
                                                       sc.mtu_bytes),
                               kAckBytes);
  const std::uint64_t rest =
      spec.size_bytes - std::min<std::uint64_t>(spec.size_bytes,
                                                sc.mtu_bytes);
  return rtt + SerializationDelay(rest, sc.link_gbps);
}

SenderQp* LaunchFlow(Network& net, const ScenarioConfig& sc, FlowSpec spec) {
  auto* host = static_cast<Host*>(net.node(spec.src));
  const Time base_rtt =
      net.BaseRtt(spec.src, spec.dst, spec.sport, spec.dport, sc.mtu_bytes,
                  kAckBytes);
  if (spec.ideal_fct == 0) spec.ideal_fct = IdealFct(net, spec, sc);
  return host->StartFlow(spec, MakeCcConfig(sc, sc.link_gbps, base_rtt));
}

}  // namespace fncc
