#include "workload/traffic_gen.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>

#include "sim/named_registry.hpp"
#include "workload/flow_source.hpp"
#include "workload/trace_replay.hpp"

namespace fncc {

namespace {

[[noreturn]] void BadParam(const std::string& what) {
  throw std::invalid_argument("workload: " + what);
}

void RequirePopulation(const WorkloadHosts& hosts, std::size_t min) {
  if (hosts.all.size() < min) {
    BadParam("topology has " + std::to_string(hosts.all.size()) +
             " hosts, need >= " + std::to_string(min));
  }
}

/// Appends a run-to-completion flow whose id is its 1-based list position.
void Append(std::vector<GeneratedFlow>* flows, NodeId src, NodeId dst,
            std::uint16_t sport, std::uint16_t dport, std::uint64_t size,
            Time start) {
  GeneratedFlow f;
  f.spec.id = static_cast<FlowId>(flows->size() + 1);
  f.spec.src = src;
  f.spec.dst = dst;
  f.spec.sport = sport;
  f.spec.dport = dport;
  f.spec.size_bytes = size;
  f.spec.start_time = start;
  flows->push_back(f);
}

/// Open-loop Poisson arrivals: exponential inter-arrivals at the aggregate
/// rate matching `load`, uniform source, uniform distinct destination, and
/// sizes from the CDF. One flow per Next(), drawing from the shared Rng in
/// a fixed order (gap, src, dst, sport, dport, size — sequential per flow)
/// while holding O(1) state. ideal_fct is left 0 (the harness resolves it
/// against the topology).
class PoissonFlowSource final : public FlowSource {
 public:
  PoissonFlowSource(Rng& rng, const WorkloadHosts& hosts,
                    const WorkloadParams& p)
      : rng_(rng),
        cdf_(p.cdf),
        hosts_(hosts.all),
        num_flows_(p.num_flows),
        port_base_(p.port_base),
        t_(p.start_time) {
    // Aggregate arrival rate lambda (flows/s) such that the expected
    // offered bytes fill `load` of every host's access link on average:
    //   lambda * E[size] * 8 = load * link_gbps * 1e9 * num_hosts.
    const double lambda = p.load * p.link_gbps * 1e9 *
                          static_cast<double>(hosts_.size()) /
                          (cdf_.mean_bytes() * 8.0);
    mean_gap_sec_ = 1.0 / lambda;
  }

  bool Next(GeneratedFlow* out) override {
    if (emitted_ >= num_flows_) return false;
    t_ += Seconds(rng_.Exponential(mean_gap_sec_));
    FlowSpec f;
    f.id = static_cast<FlowId>(emitted_ + 1);
    const std::size_t s =
        static_cast<std::size_t>(rng_.UniformInt(0, hosts_.size() - 1));
    std::size_t d =
        static_cast<std::size_t>(rng_.UniformInt(0, hosts_.size() - 2));
    if (d >= s) ++d;
    f.src = hosts_[s];
    f.dst = hosts_[d];
    f.sport =
        static_cast<std::uint16_t>(port_base_ + rng_.UniformInt(0, 40'000));
    f.dport =
        static_cast<std::uint16_t>(port_base_ + rng_.UniformInt(0, 40'000));
    f.size_bytes = cdf_.Sample(rng_);
    f.start_time = t_;
    ++emitted_;
    out->spec = f;
    out->stop = kTimeInfinity;
    return true;
  }

 private:
  Rng& rng_;
  SizeCdf cdf_;
  std::vector<NodeId> hosts_;
  int num_flows_;
  std::uint16_t port_base_;
  double mean_gap_sec_ = 0.0;
  Time t_;
  int emitted_ = 0;
};

std::unique_ptr<FlowSource> Poisson(Rng& rng, const WorkloadHosts& hosts,
                                    const WorkloadParams& p) {
  RequirePopulation(hosts, 2);
  if (!(p.load > 0.0 && p.load <= 1.0)) {
    BadParam("poisson load must be in (0, 1]");
  }
  if (p.num_flows < 1) BadParam("poisson num_flows must be >= 1");
  return std::make_unique<PoissonFlowSource>(rng, hosts, p);
}

std::unique_ptr<FlowSource> Trace(Rng& /*rng*/, const WorkloadHosts& hosts,
                                  const WorkloadParams& p) {
  return MakeTraceSource(hosts, p);
}

/// Long-lived flows from the topology's senders to its receiver, one per
/// workload.flows entry; size 0 = the runner's auto duration budget.
std::unique_ptr<FlowSource> Elephants(Rng& /*rng*/,
                                      const WorkloadHosts& hosts,
                                      const WorkloadParams& p) {
  if (hosts.receiver == kInvalidNode) {
    BadParam("elephants needs a topology with a receiver role");
  }
  // No explicit flow list: the canonical two-elephant scenario (§5.1 —
  // flow1 joins 300 us into flow0), or a single elephant on a 1-sender
  // topology.
  std::vector<LongFlow> long_flows = p.long_flows;
  if (long_flows.empty()) {
    long_flows.push_back({0, 0, kTimeInfinity});
    if (hosts.senders.size() >= 2) {
      long_flows.push_back({1, Microseconds(300), kTimeInfinity});
    }
  }
  std::vector<GeneratedFlow> flows;
  flows.reserve(long_flows.size());
  for (std::size_t i = 0; i < long_flows.size(); ++i) {
    const LongFlow& lf = long_flows[i];
    if (lf.sender_index < 0 ||
        static_cast<std::size_t>(lf.sender_index) >= hosts.senders.size()) {
      BadParam("elephants sender_index " + std::to_string(lf.sender_index) +
               " out of range (topology has " +
               std::to_string(hosts.senders.size()) + " senders)");
    }
    Append(&flows, hosts.senders[static_cast<std::size_t>(lf.sender_index)],
           hosts.receiver, static_cast<std::uint16_t>(p.port_base + 2 * i),
           static_cast<std::uint16_t>(p.port_base + 2 * i + 1), p.size_bytes,
           lf.start);
    flows.back().stop = lf.stop;
  }
  return std::make_unique<VectorFlowSource>(std::move(flows));
}

/// N-to-1 incast: every topology sender starts a flow to the receiver at
/// start_time (plus `stagger` per sender).
std::unique_ptr<FlowSource> Incast(Rng& /*rng*/, const WorkloadHosts& hosts,
                                   const WorkloadParams& p) {
  if (hosts.receiver == kInvalidNode || hosts.senders.empty()) {
    BadParam("incast needs a topology with sender/receiver roles");
  }
  const std::uint64_t size = p.size_bytes != 0 ? p.size_bytes : 2'000'000;
  std::vector<GeneratedFlow> flows;
  flows.reserve(hosts.senders.size());
  for (std::size_t i = 0; i < hosts.senders.size(); ++i) {
    Append(&flows, hosts.senders[i], hosts.receiver,
           static_cast<std::uint16_t>(p.port_base + 2 * i),
           static_cast<std::uint16_t>(p.port_base + 2 * i + 1), size,
           p.start_time + static_cast<Time>(i) * p.stagger);
  }
  return std::make_unique<VectorFlowSource>(std::move(flows));
}

/// Random permutation: each host sends one flow to a distinct peer.
std::unique_ptr<FlowSource> Permutation(Rng& rng, const WorkloadHosts& hosts,
                                        const WorkloadParams& p) {
  RequirePopulation(hosts, 2);
  const std::uint64_t size = p.size_bytes != 0 ? p.size_bytes : 1'000'000;
  const std::vector<NodeId>& all = hosts.all;
  // Random derangement-ish permutation: shuffle until no fixed point.
  std::vector<std::size_t> perm(all.size());
  std::iota(perm.begin(), perm.end(), 0);
  bool ok = false;
  while (!ok) {
    std::shuffle(perm.begin(), perm.end(), rng.engine());
    ok = true;
    for (std::size_t i = 0; i < perm.size(); ++i) {
      if (perm[i] == i) {
        ok = false;
        break;
      }
    }
  }
  std::vector<GeneratedFlow> flows;
  flows.reserve(all.size());
  for (std::size_t i = 0; i < all.size(); ++i) {
    Append(&flows, all[i], all[perm[i]],
           static_cast<std::uint16_t>(p.port_base + 2 * i),
           static_cast<std::uint16_t>(p.port_base + 2 * i + 1), size,
           p.start_time);
  }
  return std::make_unique<VectorFlowSource>(std::move(flows));
}

/// All-to-all shuffle: every host sends size_bytes to every other host.
/// Flows are emitted source-major; source i's flows start at
/// `start_time + i * stagger` (stagger staggers the reduce wave).
std::unique_ptr<FlowSource> AllToAll(Rng& /*rng*/, const WorkloadHosts& hosts,
                                     const WorkloadParams& p) {
  RequirePopulation(hosts, 2);
  const std::uint64_t size = p.size_bytes != 0 ? p.size_bytes : 100'000;
  const std::vector<NodeId>& all = hosts.all;
  std::vector<GeneratedFlow> flows;
  flows.reserve(all.size() * (all.size() - 1));
  // Distinct (sport, dport) per flow so ECMP spreads the shuffle across
  // paths; ports wrap within the ephemeral range.
  for (std::size_t i = 0; i < all.size(); ++i) {
    for (std::size_t j = 0; j < all.size(); ++j) {
      if (i == j) continue;
      const std::size_t pair = 2 * (i * all.size() + j);
      Append(&flows, all[i], all[j],
             static_cast<std::uint16_t>(p.port_base + pair % 40'000),
             static_cast<std::uint16_t>(p.port_base + (pair + 1) % 40'000),
             size, p.start_time + static_cast<Time>(i) * p.stagger);
    }
  }
  return std::make_unique<VectorFlowSource>(std::move(flows));
}

/// Staggered multi-group incast: hosts are partitioned into `groups`
/// contiguous groups; within each group every host but the last sends
/// size_bytes to the group's last host. Group g's burst starts at
/// `start_time + g * group_stagger`; within a group, sender j is offset a
/// further `j * stagger`. Models several racks' synchronized reduces
/// landing at staggered times.
std::unique_ptr<FlowSource> StaggeredIncast(Rng& /*rng*/,
                                            const WorkloadHosts& hosts,
                                            const WorkloadParams& p) {
  if (p.groups < 1) BadParam("staggered_incast groups must be >= 1");
  RequirePopulation(hosts, 2 * static_cast<std::size_t>(p.groups));
  const std::uint64_t size = p.size_bytes != 0 ? p.size_bytes : 500'000;
  const std::vector<NodeId>& all = hosts.all;
  const std::size_t per_group = all.size() / static_cast<std::size_t>(p.groups);
  std::vector<GeneratedFlow> flows;
  for (int g = 0; g < p.groups; ++g) {
    const std::size_t base = static_cast<std::size_t>(g) * per_group;
    // The last group absorbs the remainder hosts.
    const std::size_t end = g + 1 == p.groups ? all.size() : base + per_group;
    const Time group_start =
        p.start_time + static_cast<Time>(g) * p.group_stagger;
    for (std::size_t j = base; j + 1 < end; ++j) {
      // Flow k uses ports base+2k / base+2k+1, the convention every other
      // generator follows.
      const std::size_t pair = 2 * flows.size();
      Append(&flows, all[j], all[end - 1],
             static_cast<std::uint16_t>(p.port_base + pair % 40'000),
             static_cast<std::uint16_t>(p.port_base + (pair + 1) % 40'000),
             size, group_start + static_cast<Time>(j - base) * p.stagger);
    }
  }
  return std::make_unique<VectorFlowSource>(std::move(flows));
}

using SourceFn = std::unique_ptr<FlowSource> (*)(Rng& rng,
                                                 const WorkloadHosts& hosts,
                                                 const WorkloadParams& params);

NamedRegistry<SourceFn>& Entries() {
  static NamedRegistry<SourceFn>* entries = [] {
    auto* r = new NamedRegistry<SourceFn>("workload");
    r->Register("elephants",
                "long-lived flows from workload.flows "
                "(sender@start_us[:stop_us]); size 0 = outlast run.duration",
                Elephants);
    r->Register("poisson",
                "open-loop Poisson arrivals at workload.load over "
                "workload.cdf (num_flows flows, uniform src/dst)",
                Poisson);
    r->Register("incast",
                "all topology senders -> receiver, size_bytes each, "
                "stagger_us apart (default 2 MB)",
                Incast);
    r->Register("permutation",
                "random derangement: every host sends size_bytes to a "
                "distinct peer (default 1 MB)",
                Permutation);
    r->Register("all_to_all",
                "shuffle: every host sends size_bytes to every other host, "
                "sources staggered by stagger_us (default 100 KB)",
                AllToAll);
    r->Register("staggered_incast",
                "workload.groups contiguous host groups, each incasting to "
                "its last host; bursts offset by group_stagger_us "
                "(default 500 KB)",
                StaggeredIncast);
    r->Register("trace",
                "replay workload.trace_file (start_us,src,dst,bytes CSV "
                "rows, start-sorted; host indices in creation order)",
                Trace);
    return r;
  }();
  return *entries;
}

}  // namespace

bool WorkloadRegistry::Contains(const std::string& name) {
  return Entries().Contains(name);
}

std::unique_ptr<FlowSource> WorkloadRegistry::MakeSource(
    const std::string& name, Rng& rng, const WorkloadHosts& hosts,
    const WorkloadParams& params) {
  return Entries().At(name)(rng, hosts, params);
}

std::vector<GeneratedFlow> WorkloadRegistry::Generate(
    const std::string& name, Rng& rng, const WorkloadHosts& hosts,
    const WorkloadParams& params) {
  const std::unique_ptr<FlowSource> source =
      MakeSource(name, rng, hosts, params);
  std::vector<GeneratedFlow> flows;
  GeneratedFlow flow;
  while (source->Next(&flow)) flows.push_back(flow);
  return flows;
}

std::vector<std::string> WorkloadRegistry::Names() {
  return Entries().Names();
}

std::string WorkloadRegistry::Describe(const std::string& name) {
  return Entries().Describe(name);
}

}  // namespace fncc
