#include "workload/traffic_gen.hpp"

#include <algorithm>
#include <cassert>
#include <numeric>
#include <stdexcept>

#include "sim/named_registry.hpp"
#include "workload/flow_source.hpp"
#include "workload/trace_replay.hpp"

namespace fncc {

namespace {

/// The incremental form of GeneratePoisson: one flow per Next(), drawing
/// from the shared Rng in exactly the eager loop's order (gap, src, dst,
/// sport, dport, size — sequential per flow), so draining this source
/// reproduces GeneratePoisson bit for bit while holding O(1) state.
class PoissonFlowSource final : public FlowSource {
 public:
  PoissonFlowSource(Rng& rng, const SizeCdf& cdf, std::vector<NodeId> hosts,
                    const PoissonTrafficConfig& config)
      : rng_(rng), cdf_(cdf), hosts_(std::move(hosts)), config_(config) {
    assert(hosts_.size() >= 2);
    assert(config.load > 0.0 && config.load <= 1.0);
    // Aggregate arrival rate lambda (flows/s) such that the expected
    // offered bytes fill `load` of every host's access link on average:
    //   lambda * E[size] * 8 = load * link_gbps * 1e9 * num_hosts.
    const double lambda = config.load * config.link_gbps * 1e9 *
                          static_cast<double>(hosts_.size()) /
                          (cdf_.mean_bytes() * 8.0);
    mean_gap_sec_ = 1.0 / lambda;
    t_ = config.start_time;
  }

  bool Next(GeneratedFlow* out) override {
    if (emitted_ >= config_.num_flows) return false;
    t_ += Seconds(rng_.Exponential(mean_gap_sec_));
    FlowSpec f;
    f.id = config_.first_flow_id + static_cast<FlowId>(emitted_);
    const std::size_t s =
        static_cast<std::size_t>(rng_.UniformInt(0, hosts_.size() - 1));
    std::size_t d =
        static_cast<std::size_t>(rng_.UniformInt(0, hosts_.size() - 2));
    if (d >= s) ++d;
    f.src = hosts_[s];
    f.dst = hosts_[d];
    f.sport = static_cast<std::uint16_t>(config_.port_base +
                                         rng_.UniformInt(0, 40'000));
    f.dport = static_cast<std::uint16_t>(config_.port_base +
                                         rng_.UniformInt(0, 40'000));
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
  PoissonTrafficConfig config_;
  double mean_gap_sec_ = 0.0;
  Time t_ = 0;
  int emitted_ = 0;
};

}  // namespace

std::vector<FlowSpec> GeneratePoisson(Rng& rng, const SizeCdf& cdf,
                                      const std::vector<NodeId>& hosts,
                                      const PoissonTrafficConfig& config) {
  // Drain the incremental source: one code path for eager and streaming.
  PoissonFlowSource source(rng, cdf, hosts, config);
  std::vector<FlowSpec> flows;
  flows.reserve(static_cast<std::size_t>(config.num_flows));
  GeneratedFlow gf;
  while (source.Next(&gf)) flows.push_back(gf.spec);
  return flows;
}

std::vector<FlowSpec> GenerateIncast(const std::vector<NodeId>& senders,
                                     NodeId dst, std::uint64_t size_bytes,
                                     Time start_time, Time stagger,
                                     FlowId first_flow_id,
                                     std::uint16_t port_base) {
  std::vector<FlowSpec> flows;
  flows.reserve(senders.size());
  for (std::size_t i = 0; i < senders.size(); ++i) {
    FlowSpec f;
    f.id = first_flow_id + static_cast<FlowId>(i);
    f.src = senders[i];
    f.dst = dst;
    f.sport = static_cast<std::uint16_t>(port_base + 2 * i);
    f.dport = static_cast<std::uint16_t>(port_base + 2 * i + 1);
    f.size_bytes = size_bytes;
    f.start_time = start_time + static_cast<Time>(i) * stagger;
    flows.push_back(f);
  }
  return flows;
}

std::vector<FlowSpec> GeneratePermutation(Rng& rng,
                                          const std::vector<NodeId>& hosts,
                                          std::uint64_t size_bytes,
                                          Time start_time,
                                          FlowId first_flow_id,
                                          std::uint16_t port_base) {
  assert(hosts.size() >= 2);
  // Random derangement-ish permutation: shuffle until no fixed point.
  std::vector<std::size_t> perm(hosts.size());
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
  std::vector<FlowSpec> flows;
  flows.reserve(hosts.size());
  for (std::size_t i = 0; i < hosts.size(); ++i) {
    FlowSpec f;
    f.id = first_flow_id + static_cast<FlowId>(i);
    f.src = hosts[i];
    f.dst = hosts[perm[i]];
    f.sport = static_cast<std::uint16_t>(port_base + 2 * i);
    f.dport = static_cast<std::uint16_t>(port_base + 2 * i + 1);
    f.size_bytes = size_bytes;
    f.start_time = start_time;
    flows.push_back(f);
  }
  return flows;
}

std::vector<FlowSpec> GenerateAllToAll(const std::vector<NodeId>& hosts,
                                       std::uint64_t size_bytes,
                                       Time start_time, Time stagger,
                                       FlowId first_flow_id,
                                       std::uint16_t port_base) {
  assert(hosts.size() >= 2);
  std::vector<FlowSpec> flows;
  flows.reserve(hosts.size() * (hosts.size() - 1));
  FlowId id = first_flow_id;
  // Source-major with distinct (sport, dport) per flow so ECMP spreads the
  // shuffle across paths; ports wrap within the ephemeral range.
  for (std::size_t i = 0; i < hosts.size(); ++i) {
    for (std::size_t j = 0; j < hosts.size(); ++j) {
      if (i == j) continue;
      FlowSpec f;
      f.id = id++;
      f.src = hosts[i];
      f.dst = hosts[j];
      const std::size_t pair = 2 * (i * hosts.size() + j);
      f.sport = static_cast<std::uint16_t>(port_base + pair % 40'000);
      f.dport = static_cast<std::uint16_t>(port_base + (pair + 1) % 40'000);
      f.size_bytes = size_bytes;
      f.start_time = start_time + static_cast<Time>(i) * stagger;
      flows.push_back(f);
    }
  }
  return flows;
}

std::vector<FlowSpec> GenerateStaggeredIncast(
    const std::vector<NodeId>& hosts, int groups, std::uint64_t size_bytes,
    Time start_time, Time group_stagger, Time stagger, FlowId first_flow_id,
    std::uint16_t port_base) {
  assert(groups >= 1);
  assert(hosts.size() >= 2 * static_cast<std::size_t>(groups));
  const std::size_t per_group = hosts.size() / static_cast<std::size_t>(groups);

  std::vector<FlowSpec> flows;
  FlowId id = first_flow_id;
  for (int g = 0; g < groups; ++g) {
    const std::size_t base = static_cast<std::size_t>(g) * per_group;
    // The last group absorbs the remainder hosts.
    const std::size_t end =
        g + 1 == groups ? hosts.size() : base + per_group;
    const NodeId dst = hosts[end - 1];
    const Time group_start = start_time + static_cast<Time>(g) * group_stagger;
    for (std::size_t j = base; j + 1 < end; ++j) {
      FlowSpec f;
      f.id = id;
      f.src = hosts[j];
      f.dst = dst;
      // Flow k uses ports base+2k / base+2k+1, the convention every other
      // generator follows.
      const std::size_t pair = 2 * (id++ - first_flow_id);
      f.sport = static_cast<std::uint16_t>(port_base + pair % 40'000);
      f.dport = static_cast<std::uint16_t>(port_base + (pair + 1) % 40'000);
      f.size_bytes = size_bytes;
      f.start_time = group_start + static_cast<Time>(j - base) * stagger;
      flows.push_back(f);
    }
  }
  return flows;
}

// --------------------------------------------------------------------------
// Registry
// --------------------------------------------------------------------------

namespace {

[[noreturn]] void BadParam(const std::string& what) {
  throw std::invalid_argument("workload: " + what);
}

std::vector<GeneratedFlow> Wrap(std::vector<FlowSpec> specs) {
  std::vector<GeneratedFlow> flows;
  flows.reserve(specs.size());
  for (FlowSpec& s : specs) flows.push_back({s, kTimeInfinity});
  return flows;
}

void RequirePopulation(const WorkloadHosts& hosts, std::size_t min) {
  if (hosts.all.size() < min) {
    BadParam("topology has " + std::to_string(hosts.all.size()) +
             " hosts, need >= " + std::to_string(min));
  }
}

std::vector<GeneratedFlow> BuildElephants(Rng& /*rng*/,
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
    GeneratedFlow f;
    // spec.id is minted by the flow table at launch (registration order =
    // launch order, so flow i still gets id i+1).
    f.spec.src = hosts.senders[static_cast<std::size_t>(lf.sender_index)];
    f.spec.dst = hosts.receiver;
    f.spec.sport = static_cast<std::uint16_t>(p.port_base + 2 * i);
    f.spec.dport = static_cast<std::uint16_t>(p.port_base + 2 * i + 1);
    f.spec.size_bytes = p.size_bytes;  // 0 = runner's auto duration budget
    f.spec.start_time = lf.start;
    f.stop = lf.stop;
    flows.push_back(f);
  }
  return flows;
}

PoissonTrafficConfig PoissonConfigFromParams(const WorkloadHosts& hosts,
                                             const WorkloadParams& p) {
  RequirePopulation(hosts, 2);
  if (!(p.load > 0.0 && p.load <= 1.0)) {
    BadParam("poisson load must be in (0, 1]");
  }
  if (p.num_flows < 1) BadParam("poisson num_flows must be >= 1");
  PoissonTrafficConfig config;
  config.load = p.load;
  config.link_gbps = p.link_gbps;
  config.start_time = p.start_time;
  config.num_flows = p.num_flows;
  config.port_base = p.port_base;
  return config;
}

std::vector<GeneratedFlow> BuildPoisson(Rng& rng, const WorkloadHosts& hosts,
                                        const WorkloadParams& p) {
  const PoissonTrafficConfig config = PoissonConfigFromParams(hosts, p);
  return Wrap(GeneratePoisson(rng, p.cdf, hosts.all, config));
}

std::unique_ptr<FlowSource> MakePoissonSource(Rng& rng,
                                              const WorkloadHosts& hosts,
                                              const WorkloadParams& p) {
  const PoissonTrafficConfig config = PoissonConfigFromParams(hosts, p);
  return std::make_unique<PoissonFlowSource>(rng, p.cdf, hosts.all, config);
}

std::vector<GeneratedFlow> BuildTrace(Rng& /*rng*/, const WorkloadHosts& hosts,
                                      const WorkloadParams& p) {
  // List form: drain the streaming source (validating the whole file).
  std::unique_ptr<FlowSource> source = MakeTraceSource(hosts, p);
  std::vector<GeneratedFlow> flows;
  GeneratedFlow gf;
  while (source->Next(&gf)) flows.push_back(gf);
  return flows;
}

std::vector<GeneratedFlow> BuildIncast(Rng& /*rng*/,
                                       const WorkloadHosts& hosts,
                                       const WorkloadParams& p) {
  if (hosts.receiver == kInvalidNode || hosts.senders.empty()) {
    BadParam("incast needs a topology with sender/receiver roles");
  }
  const std::uint64_t size = p.size_bytes != 0 ? p.size_bytes : 2'000'000;
  return Wrap(GenerateIncast(hosts.senders, hosts.receiver, size,
                             p.start_time, p.stagger, /*first_flow_id=*/1,
                             p.port_base));
}

std::vector<GeneratedFlow> BuildPermutation(Rng& rng,
                                            const WorkloadHosts& hosts,
                                            const WorkloadParams& p) {
  RequirePopulation(hosts, 2);
  const std::uint64_t size = p.size_bytes != 0 ? p.size_bytes : 1'000'000;
  return Wrap(GeneratePermutation(rng, hosts.all, size, p.start_time,
                                  /*first_flow_id=*/1, p.port_base));
}

std::vector<GeneratedFlow> BuildAllToAll(Rng& /*rng*/,
                                         const WorkloadHosts& hosts,
                                         const WorkloadParams& p) {
  RequirePopulation(hosts, 2);
  const std::uint64_t size = p.size_bytes != 0 ? p.size_bytes : 100'000;
  return Wrap(GenerateAllToAll(hosts.all, size, p.start_time, p.stagger,
                               /*first_flow_id=*/1, p.port_base));
}

std::vector<GeneratedFlow> BuildStaggeredIncast(Rng& /*rng*/,
                                                const WorkloadHosts& hosts,
                                                const WorkloadParams& p) {
  if (p.groups < 1) BadParam("staggered_incast groups must be >= 1");
  RequirePopulation(hosts, 2 * static_cast<std::size_t>(p.groups));
  const std::uint64_t size = p.size_bytes != 0 ? p.size_bytes : 500'000;
  return Wrap(GenerateStaggeredIncast(hosts.all, p.groups, size,
                                      p.start_time, p.group_stagger,
                                      p.stagger, /*first_flow_id=*/1,
                                      p.port_base));
}

/// One registry entry: the eager builder plus its optional native
/// streaming form (null = MakeSource wraps the builder's output in a
/// VectorFlowSource).
struct WorkloadEntry {
  WorkloadBuildFn build;
  WorkloadSourceFn source;
};

NamedRegistry<WorkloadEntry>& Entries() {
  static NamedRegistry<WorkloadEntry>* entries = [] {
    auto* r = new NamedRegistry<WorkloadEntry>("workload");
    r->Register("elephants",
                "long-lived flows from workload.flows "
                "(sender@start_us[:stop_us]); size 0 = outlast run.duration",
                {BuildElephants, nullptr});
    r->Register("poisson",
                "open-loop Poisson arrivals at workload.load over "
                "workload.cdf (num_flows flows, uniform src/dst)",
                {BuildPoisson, MakePoissonSource});
    r->Register("incast",
                "all topology senders -> receiver, size_bytes each, "
                "stagger_us apart (default 2 MB)",
                {BuildIncast, nullptr});
    r->Register("permutation",
                "random derangement: every host sends size_bytes to a "
                "distinct peer (default 1 MB)",
                {BuildPermutation, nullptr});
    r->Register("all_to_all",
                "shuffle: every host sends size_bytes to every other host, "
                "sources staggered by stagger_us (default 100 KB)",
                {BuildAllToAll, nullptr});
    r->Register("staggered_incast",
                "workload.groups contiguous host groups, each incasting to "
                "its last host; bursts offset by group_stagger_us "
                "(default 500 KB)",
                {BuildStaggeredIncast, nullptr});
    r->Register("trace",
                "replay workload.trace_file (start_us,src,dst,bytes CSV "
                "rows, start-sorted; host indices in creation order)",
                {BuildTrace,
                 [](Rng& /*rng*/, const WorkloadHosts& hosts,
                    const WorkloadParams& p) {
                   return MakeTraceSource(hosts, p);
                 }});
    return r;
  }();
  return *entries;
}

}  // namespace

void WorkloadRegistry::Register(const std::string& name,
                                const std::string& description,
                                WorkloadBuildFn build) {
  Entries().Register(name, description, {std::move(build), nullptr});
}

void WorkloadRegistry::Register(const std::string& name,
                                const std::string& description,
                                WorkloadBuildFn build,
                                WorkloadSourceFn source) {
  Entries().Register(name, description,
                     {std::move(build), std::move(source)});
}

bool WorkloadRegistry::Contains(const std::string& name) {
  return Entries().Contains(name);
}

std::vector<GeneratedFlow> WorkloadRegistry::Generate(
    const std::string& name, Rng& rng, const WorkloadHosts& hosts,
    const WorkloadParams& params) {
  return Entries().At(name).build(rng, hosts, params);
}

std::unique_ptr<FlowSource> WorkloadRegistry::MakeSource(
    const std::string& name, Rng& rng, const WorkloadHosts& hosts,
    const WorkloadParams& params) {
  const WorkloadEntry& entry = Entries().At(name);
  if (entry.source) return entry.source(rng, hosts, params);
  return std::make_unique<VectorFlowSource>(
      entry.build(rng, hosts, params));
}

std::vector<std::string> WorkloadRegistry::Names() {
  return Entries().Names();
}

std::string WorkloadRegistry::Describe(const std::string& name) {
  return Entries().Describe(name);
}

}  // namespace fncc
