#include "net/network.hpp"

#include <algorithm>
#include <cassert>
#include <deque>
#include <limits>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>

namespace fncc {

// Explicit moves (rather than = default) so the source is left detectably
// empty: a defaulted move would keep sim_ pointing at the simulator while
// every container is hollow — a state that passes nullptr checks but fails
// on first use. See the class comment for the full contract.
Network::Network(Network&& other) noexcept
    : sim_(std::exchange(other.sim_, nullptr)),
      nodes_(std::move(other.nodes_)),
      switches_(std::move(other.switches_)),
      hosts_(std::move(other.hosts_)),
      adj_(std::move(other.adj_)),
      next_port_(std::move(other.next_port_)),
      node_group_(other.node_group_),
      longest_switch_path_(other.longest_switch_path_) {
  other.nodes_.clear();
  other.switches_.clear();
  other.hosts_.clear();
  other.adj_.clear();
  other.next_port_.clear();
}

Network& Network::operator=(Network&& other) noexcept {
  if (this != &other) {
    sim_ = std::exchange(other.sim_, nullptr);
    nodes_ = std::move(other.nodes_);
    switches_ = std::move(other.switches_);
    hosts_ = std::move(other.hosts_);
    adj_ = std::move(other.adj_);
    next_port_ = std::move(other.next_port_);
    node_group_ = other.node_group_;
    longest_switch_path_ = other.longest_switch_path_;
    other.nodes_.clear();
    other.switches_.clear();
    other.hosts_.clear();
    other.adj_.clear();
    other.next_port_.clear();
  }
  return *this;
}

int Network::GroupLane() const {
  const int lanes = sim_->num_lanes();
  return lanes <= 1 ? 0 : node_group_ % lanes;
}

NodeId Network::AddNode(std::unique_ptr<Node> node) {
  assert(node->id() == next_id() && "node ids must be dense and in order");
  const NodeId id = node->id();
  node->set_domain(GroupLane());
  if (node->IsSwitch()) {
    switches_.push_back(static_cast<Switch*>(node.get()));
  } else {
    hosts_.push_back(static_cast<Endpoint*>(node.get()));
  }
  nodes_.push_back(std::move(node));
  adj_.emplace_back();
  next_port_.push_back(0);
  return id;
}

Switch* Network::AddSwitch(const std::string& name,
                           const SwitchConfig& config, Rng* rng) {
  // Construct inside the node's lane: the constructor schedules periodic
  // timers (INT refresh, RoCC epochs) that must live in the owner's queue.
  Simulator::ActiveLaneScope scope(sim_, GroupLane());
  auto sw = std::make_unique<Switch>(sim_, next_id(), name, config, rng);
  Switch* ptr = sw.get();
  AddNode(std::move(sw));
  return ptr;
}

Endpoint* Network::AddHost(const HostFactory& factory,
                           const std::string& name) {
  Simulator::ActiveLaneScope scope(sim_, GroupLane());
  auto host = factory(sim_, next_id(), name);
  Endpoint* ptr = host.get();
  AddNode(std::move(host));
  return ptr;
}

void Network::SealDomains() {
  Time max_prop = 0;
  for (const std::vector<Adjacency>& edges : adj_) {
    for (const Adjacency& e : edges) max_prop = std::max(max_prop, e.prop);
  }
  sim_->set_settle_delay(max_prop);
  if (sim_->num_lanes() <= 1) return;
  Time min_prop = kTimeInfinity;
  for (std::size_t a = 0; a < nodes_.size(); ++a) {
    const int lane_a = nodes_[a]->domain();
    for (const Adjacency& e : adj_[a]) {
      const int lane_b = node(e.peer)->domain();
      if (lane_a == lane_b) continue;
      assert(e.prop > 0 &&
             "cross-domain links need positive propagation delay (the "
             "conservative lookahead window)");
      if (e.prop < min_prop) min_prop = e.prop;
      PortOf(static_cast<NodeId>(a), e.local_port).SetCrossLane(lane_b);
    }
  }
  sim_->set_domain_lookahead(min_prop);
}

EgressPort& Network::PortOf(NodeId node_id, int port) {
  Node* n = node(node_id);
  if (n->IsSwitch()) return static_cast<Switch*>(n)->port(port);
  assert(port == 0 && "endpoints have a single port");
  return static_cast<Endpoint*>(n)->nic();
}

void Network::Connect(NodeId a, int port_a, NodeId b, int port_b, double gbps,
                      Time propagation_delay) {
  PortOf(a, port_a).Connect({node(b), port_b}, gbps, propagation_delay);
  PortOf(b, port_b).Connect({node(a), port_a}, gbps, propagation_delay);
  adj_[a].push_back({port_a, b, gbps, propagation_delay});
  adj_[b].push_back({port_b, a, gbps, propagation_delay});
}

int Network::AllocPort(NodeId node_id) {
  if (!node(node_id)->IsSwitch()) return 0;
  const int p = next_port_[node_id]++;
  assert(p < static_cast<Switch*>(node(node_id))->num_ports());
  return p;
}

void Network::ConnectAuto(NodeId a, NodeId b, double gbps,
                          Time propagation_delay) {
  Connect(a, AllocPort(a), b, AllocPort(b), gbps, propagation_delay);
}

void Network::ComputeRoutes(std::uint32_t ecmp_salt, bool symmetric) {
  const std::size_t n = nodes_.size();
  for (Switch* sw : switches_) {
    sw->routing().Resize(n);
    sw->SetEcmp(ecmp_salt, symmetric);
  }

  // Every host hangs off one switch (Path assumes it too), and every host
  // on a switch shares the routes the other switches hold toward it.
  std::vector<std::vector<NodeId>> attached(n);  // by switch id
  for (const Endpoint* host : hosts_) {
    const std::vector<Adjacency>& links = adj_[host->id()];
    if (links.size() != 1 || !node(links[0].peer)->IsSwitch()) {
      throw std::logic_error("host " + host->name() + " has " +
                             std::to_string(links.size()) +
                             " links; routing needs exactly one, to a switch");
    }
    attached[links[0].peer].push_back(host->id());
  }

  // Switch-to-switch links in (peer id, port) order, flat per switch: the
  // selection order every ECMP set keeps, fabric-wide, for the
  // symmetric-path property (Fig. 5).
  std::vector<std::size_t> first(n + 1, 0);
  std::vector<std::pair<NodeId, int>> links;
  for (std::size_t id = 0; id < n; ++id) {
    first[id] = links.size();
    if (!nodes_[id]->IsSwitch()) continue;
    for (const Adjacency& e : adj_[id]) {
      if (node(e.peer)->IsSwitch()) links.emplace_back(e.peer, e.local_port);
    }
    std::sort(links.begin() + static_cast<std::ptrdiff_t>(first[id]),
              links.end());
  }
  first[n] = links.size();

  constexpr int kUnreached = std::numeric_limits<int>::max();
  std::vector<int> dist(n);
  std::vector<NodeId> order;  // BFS frontier, in visiting order
  std::vector<int> ports;
  int depth = -1;  // deepest BFS level: equal-cost paths are shortest
  for (Switch* home : switches_) {
    const NodeId s = home->id();
    if (attached[s].empty()) continue;
    // The home switch sends each of its hosts out of that host's port.
    for (const Adjacency& e : adj_[s]) {
      if (!node(e.peer)->IsSwitch()) {
        home->routing().SetNextHops(e.peer, std::span(&e.local_port, 1));
      }
    }
    // Hosts never forward transit traffic, so the rest is a BFS over
    // switches from the home switch. Elsewhere the equal-cost next hops
    // are the neighbours one step closer to it.
    std::fill(dist.begin(), dist.end(), kUnreached);
    dist[s] = 0;
    order.assign(1, s);
    for (std::size_t i = 0; i < order.size(); ++i) {
      const NodeId cur = order[i];
      for (std::size_t l = first[cur]; l < first[cur + 1]; ++l) {
        const NodeId peer = links[l].first;
        if (dist[peer] != kUnreached) continue;
        dist[peer] = dist[cur] + 1;
        order.push_back(peer);
      }
    }
    depth = std::max(depth, dist[order.back()]);
    for (std::size_t i = 1; i < order.size(); ++i) {
      const NodeId sw = order[i];
      ports.clear();
      for (std::size_t l = first[sw]; l < first[sw + 1]; ++l) {
        if (dist[links[l].first] == dist[sw] - 1) {
          ports.push_back(links[l].second);
        }
      }
      static_cast<Switch*>(node(sw))->routing().SetNextHops(attached[s],
                                                            ports);
    }
  }
  if (depth >= 0) RecordSwitchPath(depth + 1);
}

void Network::RecordSwitchPath(int switches) {
  longest_switch_path_ = std::max(longest_switch_path_, switches);
  sim_->set_int_block_hops(std::min(longest_switch_path_, kMaxIntHops));
}

void Network::ComputeSpanningTreeRoutes(int num_trees, std::uint32_t salt) {
  assert(num_trees >= 1);
  assert(!switches_.empty());
  const std::size_t n = nodes_.size();
  for (Switch* sw : switches_) {
    sw->ConfigureSpanningTrees(num_trees, salt);
    for (int t = 0; t < num_trees; ++t) sw->tree_routing(t).Resize(n);
  }

  constexpr int kUnreached = std::numeric_limits<int>::max();
  int longest = 0;  // switches on the longest tree path to any host
  for (int t = 0; t < num_trees; ++t) {
    // Roots spread deterministically across the switch set so trees differ.
    const NodeId root =
        switches_[(static_cast<std::size_t>(t) * 7919) % switches_.size()]
            ->id();

    // BFS from the root over the whole fabric: parent[] defines the tree.
    std::vector<NodeId> parent(n, kInvalidNode);
    std::vector<bool> seen(n, false);
    std::deque<NodeId> frontier{root};
    seen[root] = true;
    while (!frontier.empty()) {
      const NodeId cur = frontier.front();
      frontier.pop_front();
      for (const Adjacency& e : adj_[cur]) {
        if (seen[e.peer]) continue;
        seen[e.peer] = true;
        parent[e.peer] = cur;
        // Hosts are always leaves: never expand through them.
        if (node(e.peer)->IsSwitch()) frontier.push_back(e.peer);
      }
    }

    // Tree adjacency: only parent edges survive.
    const auto is_tree_edge = [&](NodeId a, NodeId b) {
      return parent[a] == b || parent[b] == a;
    };

    // Per destination host: BFS from the host restricted to tree edges;
    // every switch then has exactly one next hop toward it.
    std::vector<int> dist(n);
    for (const Endpoint* dst : hosts_) {
      std::fill(dist.begin(), dist.end(), kUnreached);
      std::deque<NodeId> bfs{dst->id()};
      dist[dst->id()] = 0;
      while (!bfs.empty()) {
        const NodeId cur = bfs.front();
        bfs.pop_front();
        for (const Adjacency& e : adj_[cur]) {
          if (!is_tree_edge(cur, e.peer)) continue;
          if (!node(e.peer)->IsSwitch() && e.peer != dst->id()) continue;
          if (dist[e.peer] == kUnreached) {
            dist[e.peer] = dist[cur] + 1;
            if (node(e.peer)->IsSwitch()) bfs.push_back(e.peer);
          }
        }
      }
      for (Switch* sw : switches_) {
        if (dist[sw->id()] == kUnreached) continue;
        // dist counts the host-to-switch link: it is the switch count of
        // the path from `sw` down to `dst`.
        longest = std::max(longest, dist[sw->id()]);
        for (const Adjacency& e : adj_[sw->id()]) {
          if (is_tree_edge(sw->id(), e.peer) &&
              dist[e.peer] == dist[sw->id()] - 1) {
            sw->tree_routing(t).SetNextHops(dst->id(),
                                            std::span(&e.local_port, 1));
            break;  // unique in a tree
          }
        }
      }
    }
  }
  if (longest > 0) RecordSwitchPath(longest);
}

std::vector<NodeId> Network::Path(NodeId src, NodeId dst, std::uint16_t sport,
                                  std::uint16_t dport) const {
  Packet probe;
  probe.src = src;
  probe.dst = dst;
  probe.sport = sport;
  probe.dport = dport;

  std::vector<NodeId> path{src};
  assert(!adj_[src].empty() && "source host not wired");
  NodeId cur = adj_[src][0].peer;  // hosts have one link
  while (cur != dst) {
    path.push_back(cur);
    assert(node(cur)->IsSwitch() && "path wandered into a non-dst host");
    assert(path.size() < nodes_.size() && "routing loop");
    const auto* sw = static_cast<const Switch*>(node(cur));
    if (sw->num_spanning_trees() == 0 && !sw->routing().HasRoute(dst)) {
      throw std::logic_error("no route at switch " + sw->name() +
                             " toward " + node(dst)->name() +
                             " (was Network::ComputeRoutes run?)");
    }
    const int out = sw->RoutePacket(probe);
    const auto it =
        std::find_if(adj_[cur].begin(), adj_[cur].end(),
                     [out](const Adjacency& e) { return e.local_port == out; });
    assert(it != adj_[cur].end());
    cur = it->peer;
  }
  path.push_back(dst);
  return path;
}

const Network::Adjacency& Network::Edge(NodeId node_id, NodeId peer) const {
  const auto it =
      std::find_if(adj_[node_id].begin(), adj_[node_id].end(),
                   [peer](const Adjacency& e) { return e.peer == peer; });
  assert(it != adj_[node_id].end());
  return *it;
}

Time Network::BaseRtt(NodeId src, NodeId dst, std::uint16_t sport,
                      std::uint16_t dport, std::uint32_t data_bytes,
                      std::uint32_t ack_bytes) const {
  const auto accumulate = [this](const std::vector<NodeId>& path,
                                 std::uint32_t bytes) {
    Time total = 0;
    for (std::size_t i = 0; i + 1 < path.size(); ++i) {
      const Adjacency& e = Edge(path[i], path[i + 1]);
      total += e.prop + SerializationDelay(bytes, e.gbps);
    }
    return total;
  };
  // The ACK follows the reverse five-tuple; with symmetric ECMP this is the
  // reversed data path, but we honour whatever the tables actually select.
  return accumulate(Path(src, dst, sport, dport), data_bytes) +
         accumulate(Path(dst, src, dport, sport), ack_bytes);
}

std::uint64_t Network::TotalPauseFrames() const {
  std::uint64_t total = 0;
  for (const Switch* sw : switches_) total += sw->pause_frames_sent();
  return total;
}

std::uint64_t Network::TotalDrops() const {
  std::uint64_t total = 0;
  for (const Switch* sw : switches_) total += sw->drops();
  return total;
}

}  // namespace fncc
