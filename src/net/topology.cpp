#include "net/topology.hpp"

#include <stdexcept>

#include "sim/named_registry.hpp"

namespace fncc {

namespace {
SwitchConfig WithPorts(SwitchConfig config, int ports) {
  config.num_ports = ports;
  return config;
}

[[noreturn]] void BadParam(const std::string& what) {
  throw std::invalid_argument("topology: " + what);
}

void RequireAtLeast(const char* name, int value, int min) {
  if (value < min) {
    BadParam(std::string(name) + " = " + std::to_string(value) +
             " (must be >= " + std::to_string(min) + ")");
  }
}

/// All-but-last hosts send, last receives — the role nomination for
/// topologies without distinguished sender/receiver endpoints.
void NominateRoles(BuiltTopology* topo) {
  topo->senders.assign(topo->hosts.begin(), topo->hosts.end() - 1);
  topo->receiver = topo->hosts.back();
}

/// Fig. 10: N senders into switch0, a chain of M switches, one receiver off
/// the last switch. The congestion point is switch0's egress toward switch1
/// (or toward the receiver when M == 1).
BuiltTopology Dumbbell(Simulator* sim, const HostFactory& hosts,
                       const SwitchConfig& sw_config, Rng* rng,
                       const TopologyParams& p) {
  RequireAtLeast("num_senders", p.num_senders, 1);
  RequireAtLeast("num_switches", p.num_switches, 1);
  BuiltTopology topo(sim);
  Network& net = topo.net;
  const LinkParams& link = p.link;

  for (int i = 0; i < p.num_senders; ++i) {
    topo.senders.push_back(
        net.AddHost(hosts, "sender" + std::to_string(i))->id());
  }
  topo.receiver = net.AddHost(hosts, "receiver0")->id();
  topo.hosts = topo.senders;
  topo.hosts.push_back(topo.receiver);

  // switch0 needs a port per sender + one uplink; interior switches need 2.
  std::vector<NodeId> switches;
  for (int m = 0; m < p.num_switches; ++m) {
    const int ports = (m == 0) ? p.num_senders + 1 : 2;
    switches.push_back(net.AddSwitch("switch" + std::to_string(m),
                                     WithPorts(sw_config, ports), rng)
                           ->id());
  }

  for (const NodeId sender : topo.senders) {
    net.ConnectAuto(sender, switches[0], link.gbps, link.propagation_delay);
  }
  // The sender-facing ports were allocated first, so switch0's uplink —
  // the congestion point of Figs. 1/9 — is the next port.
  topo.congestion_node = switches[0];
  topo.congestion_port = p.num_senders;
  for (std::size_t m = 0; m + 1 < switches.size(); ++m) {
    net.ConnectAuto(switches[m], switches[m + 1], link.gbps,
                    link.propagation_delay);
  }
  net.ConnectAuto(switches.back(), topo.receiver, link.gbps,
                  link.propagation_delay);
  return topo;
}

/// Fig. 11: a chain of switches sw0..swM-1 with receiver0 after swM-1.
/// flow0's sender hangs off sw0; flow1's sender joins at `merge_switch`
/// (0 = first hop congestion, M-1 = last hop congestion). The congested
/// egress is merge_switch's port toward the next hop.
BuiltTopology ChainMerge(Simulator* sim, const HostFactory& hosts,
                         const SwitchConfig& sw_config, Rng* rng,
                         const TopologyParams& p) {
  RequireAtLeast("num_switches", p.num_switches, 1);
  if (p.merge_switch < 0 || p.merge_switch >= p.num_switches) {
    BadParam("merge_switch = " + std::to_string(p.merge_switch) +
             " (must be in [0, num_switches))");
  }
  BuiltTopology topo(sim);
  Network& net = topo.net;
  const LinkParams& link = p.link;

  const NodeId sender0 = net.AddHost(hosts, "sender0")->id();
  const NodeId sender1 = net.AddHost(hosts, "sender1")->id();
  topo.receiver = net.AddHost(hosts, "receiver0")->id();
  topo.senders = {sender0, sender1};
  topo.hosts = {sender0, sender1, topo.receiver};

  std::vector<NodeId> switches;
  for (int m = 0; m < p.num_switches; ++m) {
    // Ports: downstream + upstream + possibly two sender attachments.
    switches.push_back(net.AddSwitch("switch" + std::to_string(m),
                                     WithPorts(sw_config, 4), rng)
                           ->id());
  }
  const NodeId merge = switches[static_cast<std::size_t>(p.merge_switch)];
  topo.congestion_node = merge;

  net.ConnectAuto(sender0, switches[0], link.gbps, link.propagation_delay);
  net.ConnectAuto(sender1, merge, link.gbps, link.propagation_delay);

  for (std::size_t m = 0; m + 1 < switches.size(); ++m) {
    if (switches[m] == merge) {
      topo.congestion_port = net.AllocatedPorts(merge);
    }
    net.ConnectAuto(switches[m], switches[m + 1], link.gbps,
                    link.propagation_delay);
  }
  if (merge == switches.back()) {
    // Last-hop congestion: the contended egress is toward the receiver.
    topo.congestion_port = net.AllocatedPorts(merge);
  }
  net.ConnectAuto(switches.back(), topo.receiver, link.gbps,
                  link.propagation_delay);
  return topo;
}

/// §5.5: 3-level fat-tree with parameter k (k even): k pods of k/2 edge and
/// k/2 agg switches, (k/2)^2 cores, k^3/4 hosts, 1:1 oversubscription.
/// Wiring follows the canonical pattern (core_{x,y} attaches to agg #x of
/// every pod), which together with symmetric ECMP makes every ACK path the
/// exact reverse of its data path.
BuiltTopology FatTree(Simulator* sim, const HostFactory& hosts,
                      const SwitchConfig& sw_config, Rng* rng,
                      const TopologyParams& p) {
  const int k = p.k;
  if (k < 2 || k % 2 != 0) {
    BadParam("k = " + std::to_string(k) + " (must be even and >= 2)");
  }
  const int half = k / 2;
  const int num_hosts = k * half * half;
  BuiltTopology topo(sim);
  Network& net = topo.net;
  const LinkParams& link = p.link;

  // Event-domain groups: each pod (its hosts, edges and aggs) is group p,
  // the core layer is group k — the partitioning the PDES scheduler maps
  // onto event lanes. Only pod<->core links cross groups, so the lookahead
  // window is one link propagation delay.
  for (int h = 0; h < num_hosts; ++h) {
    std::string name = "h";
    name += std::to_string(h);
    net.SetNodeGroup(h / (half * half));
    topo.hosts.push_back(net.AddHost(hosts, name)->id());
  }
  std::vector<NodeId> edges;  // pod-major: pod p edge e = edges[p*k/2+e]
  for (int pod = 0; pod < k; ++pod) {
    net.SetNodeGroup(pod);
    for (int e = 0; e < half; ++e) {
      edges.push_back(net.AddSwitch(
          "edge_p" + std::to_string(pod) + "_" + std::to_string(e),
          WithPorts(sw_config, k), rng)->id());
    }
  }
  std::vector<NodeId> aggs;  // pod-major
  for (int pod = 0; pod < k; ++pod) {
    net.SetNodeGroup(pod);
    for (int a = 0; a < half; ++a) {
      aggs.push_back(net.AddSwitch(
          "agg_p" + std::to_string(pod) + "_" + std::to_string(a),
          WithPorts(sw_config, k), rng)->id());
    }
  }
  std::vector<NodeId> cores;  // core_{x,y} = cores[x*k/2+y]
  net.SetNodeGroup(k);
  for (int c = 0; c < half * half; ++c) {
    cores.push_back(net.AddSwitch("core" + std::to_string(c),
                                  WithPorts(sw_config, k), rng)->id());
  }

  // Hosts to edges: host index within pod, edge e, slot s.
  for (int pod = 0; pod < k; ++pod) {
    for (int e = 0; e < half; ++e) {
      for (int s = 0; s < half; ++s) {
        const int h = pod * half * half + e * half + s;
        net.ConnectAuto(topo.hosts[h], edges[pod * half + e], link.gbps,
                        link.propagation_delay);
      }
    }
  }
  // Edges to aggs: full bipartite within each pod.
  for (int pod = 0; pod < k; ++pod) {
    for (int e = 0; e < half; ++e) {
      for (int a = 0; a < half; ++a) {
        net.ConnectAuto(edges[pod * half + e], aggs[pod * half + a],
                        link.gbps, link.propagation_delay);
      }
    }
  }
  // Aggs to cores: agg #x of every pod attaches to cores x*half..x*half+half-1.
  for (int pod = 0; pod < k; ++pod) {
    for (int x = 0; x < half; ++x) {
      for (int y = 0; y < half; ++y) {
        net.ConnectAuto(aggs[pod * half + x], cores[x * half + y], link.gbps,
                        link.propagation_delay);
      }
    }
  }
  NominateRoles(&topo);
  return topo;
}

/// Two-tier leaf–spine: `leaves` leaf switches with `hosts_per_leaf` hosts
/// each, every leaf connected to every one of `spines` spine switches.
/// Uplink rate is derived from the oversubscription ratio
///   oversubscription = (hosts_per_leaf * host_gbps) / (spines * uplink_gbps)
/// so 1.0 is full bisection and 4.0 a 4:1 oversubscribed fabric. The
/// congestion point is the last leaf's egress toward the last host — the
/// classic last-hop incast point the monitors watch.
BuiltTopology LeafSpine(Simulator* sim, const HostFactory& hosts,
                        const SwitchConfig& sw_config, Rng* rng,
                        const TopologyParams& p) {
  RequireAtLeast("leaves", p.leaves, 1);
  RequireAtLeast("spines", p.spines, 1);
  RequireAtLeast("hosts_per_leaf", p.hosts_per_leaf, 1);
  if (!(p.oversubscription > 0.0)) {
    BadParam("oversubscription must be > 0");
  }
  if (p.leaves * p.hosts_per_leaf < 2) {
    BadParam("leaf_spine needs at least 2 hosts");
  }
  const int per_leaf = p.hosts_per_leaf;
  const double uplink_gbps = static_cast<double>(per_leaf) * p.link.gbps /
                             (static_cast<double>(p.spines) *
                              p.oversubscription);
  BuiltTopology topo(sim);
  Network& net = topo.net;
  const LinkParams& link = p.link;

  // Event-domain groups: leaf l and its hosts form group l, the spine
  // layer is group `leaves` — only leaf<->spine links cross groups.
  for (int l = 0; l < p.leaves; ++l) {
    net.SetNodeGroup(l);
    for (int h = 0; h < per_leaf; ++h) {
      std::string name = "h";
      name += std::to_string(l * per_leaf + h);
      topo.hosts.push_back(net.AddHost(hosts, name)->id());
    }
  }
  std::vector<NodeId> leaves;
  for (int l = 0; l < p.leaves; ++l) {
    net.SetNodeGroup(l);
    leaves.push_back(net.AddSwitch("leaf" + std::to_string(l),
                                   WithPorts(sw_config, per_leaf + p.spines),
                                   rng)
                         ->id());
  }
  std::vector<NodeId> spines;
  net.SetNodeGroup(p.leaves);
  for (int s = 0; s < p.spines; ++s) {
    spines.push_back(net.AddSwitch("spine" + std::to_string(s),
                                   WithPorts(sw_config, p.leaves), rng)
                         ->id());
  }

  // Hosts first so leaf l's ports 0..H-1 face its hosts: the last host is
  // port H-1 of the last leaf, the congestion point.
  for (int l = 0; l < p.leaves; ++l) {
    for (int h = 0; h < per_leaf; ++h) {
      net.ConnectAuto(topo.hosts[l * per_leaf + h], leaves[l], link.gbps,
                      link.propagation_delay);
    }
  }
  for (const NodeId leaf : leaves) {
    for (const NodeId spine : spines) {
      net.ConnectAuto(leaf, spine, uplink_gbps, link.propagation_delay);
    }
  }
  NominateRoles(&topo);
  topo.congestion_node = leaves.back();
  topo.congestion_port = per_leaf - 1;
  return topo;
}

/// Multi-rail dumbbell: N senders into switch A, `rails` parallel
/// equal-cost links A->B (ECMP spreads flows across the rails; symmetric
/// hashing keeps each flow's ACKs on its data rail), one receiver off B.
/// The monitored congestion point is B's egress toward the receiver, where
/// the rails re-converge.
BuiltTopology MultiRailDumbbell(Simulator* sim, const HostFactory& hosts,
                                const SwitchConfig& sw_config, Rng* rng,
                                const TopologyParams& p) {
  RequireAtLeast("num_senders", p.num_senders, 1);
  RequireAtLeast("rails", p.rails, 1);
  BuiltTopology topo(sim);
  Network& net = topo.net;
  const LinkParams& link = p.link;

  for (int i = 0; i < p.num_senders; ++i) {
    topo.senders.push_back(
        net.AddHost(hosts, "sender" + std::to_string(i))->id());
  }
  topo.receiver = net.AddHost(hosts, "receiver0")->id();
  topo.hosts = topo.senders;
  topo.hosts.push_back(topo.receiver);
  const NodeId switch_a =
      net.AddSwitch("switchA", WithPorts(sw_config, p.num_senders + p.rails),
                    rng)
          ->id();
  const NodeId switch_b =
      net.AddSwitch("switchB", WithPorts(sw_config, p.rails + 1), rng)->id();

  for (const NodeId sender : topo.senders) {
    net.ConnectAuto(sender, switch_a, link.gbps, link.propagation_delay);
  }
  // Parallel rails A->B: equal-cost by construction, so ComputeRoutes
  // installs all of them as one ECMP set and flows spread by five-tuple.
  for (int r = 0; r < p.rails; ++r) {
    net.ConnectAuto(switch_a, switch_b, link.gbps, link.propagation_delay);
  }
  net.ConnectAuto(switch_b, topo.receiver, link.gbps,
                  link.propagation_delay);
  topo.congestion_node = switch_b;
  topo.congestion_port = p.rails;
  return topo;
}

using BuildFn = BuiltTopology (*)(Simulator* sim, const HostFactory& hosts,
                                  const SwitchConfig& sw_config, Rng* rng,
                                  const TopologyParams& params);

NamedRegistry<BuildFn>& Entries() {
  static NamedRegistry<BuildFn>* entries = [] {
    auto* r = new NamedRegistry<BuildFn>("topology");
    r->Register(
        "dumbbell",
        "Fig. 10: num_senders hosts -> chain of num_switches -> 1 receiver",
        Dumbbell);
    r->Register(
        "chain_merge",
        "Fig. 11: 2 senders merging at merge_switch of a num_switches chain",
        ChainMerge);
    r->Register(
        "fat_tree",
        "3-level fat-tree, parameter k (k^3/4 hosts, 1:1 oversubscription)",
        FatTree);
    r->Register("leaf_spine",
                "two-tier leaf-spine: leaves x hosts_per_leaf hosts, spines "
                "spines, uplinks scaled by oversubscription",
                LeafSpine);
    r->Register("multirail_dumbbell",
                "num_senders hosts -> switch A =rails parallel ECMP links= "
                "switch B -> 1 receiver",
                MultiRailDumbbell);
    return r;
  }();
  return *entries;
}

}  // namespace

int TopologyNaturalDomains(const std::string& name,
                           const TopologyParams& params) {
  if (name == "fat_tree") return params.k + 1;
  if (name == "leaf_spine") return params.leaves + 1;
  return 1;
}

bool TopologyRegistry::Contains(const std::string& name) {
  return Entries().Contains(name);
}

BuiltTopology TopologyRegistry::Build(const std::string& name, Simulator* sim,
                                      const HostFactory& hosts,
                                      const SwitchConfig& sw_config, Rng* rng,
                                      const TopologyParams& params) {
  return Entries().At(name)(sim, hosts, sw_config, rng, params);
}

std::vector<std::string> TopologyRegistry::Names() {
  return Entries().Names();
}

std::string TopologyRegistry::Describe(const std::string& name) {
  return Entries().Describe(name);
}

}  // namespace fncc
