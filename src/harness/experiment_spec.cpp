#include "harness/experiment_spec.hpp"

#include <cerrno>
#include <climits>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "sim/named_registry.hpp"
#include "stats/fct.hpp"

namespace fncc {

namespace {

// ---------------------------------------------------------------- utilities

std::string Trim(const std::string& s) {
  std::size_t b = s.find_first_not_of(" \t\r\n");
  if (b == std::string::npos) return "";
  std::size_t e = s.find_last_not_of(" \t\r\n");
  return s.substr(b, e - b + 1);
}

std::vector<std::string> SplitList(const std::string& value) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= value.size()) {
    const std::size_t comma = value.find(',', start);
    const std::string item =
        Trim(comma == std::string::npos ? value.substr(start)
                                        : value.substr(start, comma - start));
    if (!item.empty()) out.push_back(item);
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return out;
}

[[noreturn]] void Bad(const std::string& key, const std::string& what) {
  throw SpecError("key '" + key + "': " + what);
}

double ToDouble(const std::string& key, const std::string& v) {
  char* end = nullptr;
  errno = 0;
  const double d = std::strtod(v.c_str(), &end);
  if (end == v.c_str() || *end != '\0' || !std::isfinite(d) ||
      errno == ERANGE) {
    Bad(key, "'" + v + "' is not a representable number");
  }
  return d;
}

long long ToInt(const std::string& key, const std::string& v) {
  char* end = nullptr;
  errno = 0;
  const long long i = std::strtoll(v.c_str(), &end, 10);
  if (end == v.c_str() || *end != '\0' || errno == ERANGE) {
    Bad(key, "'" + v + "' is not a representable integer");
  }
  return i;
}

/// Every `int` field parses through here so an overflowing value errors
/// instead of silently truncating in a narrowing cast.
int ToBoundedInt(const std::string& key, const std::string& v) {
  const long long i = ToInt(key, v);
  if (i < INT_MIN || i > INT_MAX) Bad(key, "'" + v + "' overflows int");
  return static_cast<int>(i);
}

std::uint64_t ToU64(const std::string& key, const std::string& v) {
  if (!v.empty() && v[0] == '-') Bad(key, "'" + v + "' is negative");
  char* end = nullptr;
  errno = 0;
  const unsigned long long u = std::strtoull(v.c_str(), &end, 10);
  if (end == v.c_str() || *end != '\0' || errno == ERANGE) {
    Bad(key, "'" + v + "' is not a representable unsigned integer");
  }
  return u;
}

std::uint64_t ToBoundedU64(const std::string& key, const std::string& v,
                           std::uint64_t max) {
  const std::uint64_t u = ToU64(key, v);
  if (u > max) {
    Bad(key, "'" + v + "' exceeds the maximum " + std::to_string(max));
  }
  return u;
}

bool ToBool(const std::string& key, const std::string& v) {
  if (v == "true" || v == "1" || v == "on" || v == "yes") return true;
  if (v == "false" || v == "0" || v == "off" || v == "no") return false;
  Bad(key, "'" + v + "' is not a boolean (true/false)");
}

/// Times are written in microseconds (or milliseconds for the sim wall);
/// parse with rounding so formatted values round-trip bit-exactly. The
/// product must fit integer picoseconds, and a nonzero value that rounds
/// to zero (e.g. -0.0004 us) is rejected rather than silently flipping
/// semantics (duration 0 means run-to-completion).
Time TimeFromScaled(const std::string& key, const std::string& v,
                    double scale) {
  const double value = ToDouble(key, v);
  const double ps = value * scale;
  if (!(ps >= -9.2e18 && ps <= 9.2e18)) {
    Bad(key, "'" + v + "' is outside the representable time range");
  }
  const Time t = static_cast<Time>(std::llround(ps));
  if (t == 0 && value != 0.0) {
    Bad(key, "'" + v + "' rounds to zero picoseconds");
  }
  return t;
}

Time TimeFromUs(const std::string& key, const std::string& v) {
  return TimeFromScaled(key, v, static_cast<double>(kMicrosecond));
}

Time TimeFromMs(const std::string& key, const std::string& v) {
  return TimeFromScaled(key, v, static_cast<double>(kMillisecond));
}

/// Shortest decimal form that parses back to the same double.
std::string FormatDouble(double d) {
  char buf[64];
  for (int precision : {15, 16, 17}) {
    std::snprintf(buf, sizeof(buf), "%.*g", precision, d);
    if (std::strtod(buf, nullptr) == d) break;
  }
  return buf;
}

}  // namespace

std::string FormatTimeUs(Time t) {
  if (t % kMicrosecond == 0) return std::to_string(t / kMicrosecond);
  return FormatDouble(ToMicroseconds(t));
}

namespace {

std::string FormatTimeMs(Time t) {
  if (t % kMillisecond == 0) return std::to_string(t / kMillisecond);
  return FormatDouble(ToMilliseconds(t));
}

CcMode ModeFromName(const std::string& key, const std::string& v) {
  CcMode mode;
  if (!ParseCcMode(v, &mode)) {
    std::vector<std::string> known;
    for (CcMode m : kAllCcModes) known.emplace_back(CcModeName(m));
    Bad(key, "unknown CC mode '" + v + "' (known: " + JoinNames(known) + ")");
  }
  return mode;
}

/// "sender@start_us[:stop_us]" elephant entries.
std::vector<LongFlow> FlowsFromList(const std::string& key,
                                    const std::string& value) {
  std::vector<LongFlow> flows;
  for (const std::string& item : SplitList(value)) {
    const std::size_t at = item.find('@');
    if (at == std::string::npos) {
      Bad(key, "'" + item + "' is not sender@start_us[:stop_us]");
    }
    LongFlow lf;
    lf.sender_index = ToBoundedInt(key, Trim(item.substr(0, at)));
    std::string rest = Trim(item.substr(at + 1));
    const std::size_t colon = rest.find(':');
    if (colon != std::string::npos) {
      lf.stop = TimeFromUs(key, Trim(rest.substr(colon + 1)));
      rest = Trim(rest.substr(0, colon));
    }
    lf.start = TimeFromUs(key, rest);
    flows.push_back(lf);
  }
  if (flows.empty()) Bad(key, "empty flow list");
  return flows;
}

std::string FlowsToList(const std::vector<LongFlow>& flows) {
  std::string out;
  for (const LongFlow& lf : flows) {
    if (!out.empty()) out += ',';
    out += std::to_string(lf.sender_index);
    out += '@';
    out += FormatTimeUs(lf.start);
    if (lf.stop != kTimeInfinity) {
      out += ':';
      out += FormatTimeUs(lf.stop);
    }
  }
  return out;
}

/// SplitList for sweep axes: an empty list is a spec error.
std::vector<std::string> SweepList(const std::string& key,
                                   const std::string& value) {
  std::vector<std::string> items = SplitList(value);
  if (items.empty()) {
    Bad(key, "empty axis value (drop the key to leave the axis unswept)");
  }
  return items;
}

// ------------------------------------------------------------ key dispatch

void ApplyKey(ExperimentSpec& spec, const std::string& key,
              const std::string& value) {
  // '#' starts a comment and a newline ends a line in spec text, so a
  // value containing either (only reachable via CLI overrides — the file
  // parser strips both) would silently truncate on the SpecToText ->
  // ParseSpecText round trip the manifest relies on.
  if (value.find_first_of("#\n\r") != std::string::npos) {
    Bad(key, "value must not contain '#' or newlines");
  }
  // clang-format off
  if (key == "name") { spec.name = value; return; }

  if (key == "topology.kind") { spec.topology = value; return; }
  if (key == "topology.num_senders") { spec.topo.num_senders = ToBoundedInt(key, value); return; }
  if (key == "topology.num_switches") { spec.topo.num_switches = ToBoundedInt(key, value); return; }
  if (key == "topology.merge_switch") { spec.topo.merge_switch = ToBoundedInt(key, value); return; }
  if (key == "topology.k") { spec.topo.k = ToBoundedInt(key, value); return; }
  if (key == "topology.leaves") { spec.topo.leaves = ToBoundedInt(key, value); return; }
  if (key == "topology.spines") { spec.topo.spines = ToBoundedInt(key, value); return; }
  if (key == "topology.hosts_per_leaf") { spec.topo.hosts_per_leaf = ToBoundedInt(key, value); return; }
  if (key == "topology.oversubscription") { spec.topo.oversubscription = ToDouble(key, value); return; }
  if (key == "topology.rails") { spec.topo.rails = ToBoundedInt(key, value); return; }

  if (key == "workload.kind") { spec.workload = value; return; }
  if (key == "workload.load") { spec.wl.load = ToDouble(key, value); return; }
  if (key == "workload.num_flows") { spec.wl.num_flows = ToBoundedInt(key, value); return; }
  if (key == "workload.size_bytes") { spec.wl.size_bytes = ToU64(key, value); return; }
  if (key == "workload.cdf") { spec.cdf = value; return; }
  if (key == "workload.start_us") { spec.wl.start_time = TimeFromUs(key, value); return; }
  if (key == "workload.stagger_us") { spec.wl.stagger = TimeFromUs(key, value); return; }
  if (key == "workload.groups") { spec.wl.groups = ToBoundedInt(key, value); return; }
  if (key == "workload.group_stagger_us") { spec.wl.group_stagger = TimeFromUs(key, value); return; }
  if (key == "workload.flows") { spec.wl.long_flows = FlowsFromList(key, value); return; }
  if (key == "workload.port_base") { spec.wl.port_base = static_cast<std::uint16_t>(ToBoundedU64(key, value, 65'535)); return; }
  if (key == "workload.trace_file") { spec.wl.trace_file = value; return; }

  if (key == "scenario.mode") { spec.scenario.mode = ModeFromName(key, value); return; }
  if (key == "scenario.link_gbps") { spec.scenario.link_gbps = ToDouble(key, value); return; }
  if (key == "scenario.propagation_delay_us") { spec.scenario.propagation_delay = TimeFromUs(key, value); return; }
  if (key == "scenario.mtu_bytes") { spec.scenario.mtu_bytes = static_cast<std::uint32_t>(ToBoundedU64(key, value, 0xFFFFFFFFull)); return; }
  if (key == "scenario.pfc") { spec.scenario.pfc_enabled = ToBool(key, value); return; }
  if (key == "scenario.pfc_xoff_bytes") { spec.scenario.pfc_xoff_bytes = ToU64(key, value); return; }
  if (key == "scenario.pfc_xon_bytes") { spec.scenario.pfc_xon_bytes = ToU64(key, value); return; }
  if (key == "scenario.ack_every") { spec.scenario.ack_every = ToBoundedInt(key, value); return; }
  if (key == "scenario.seed") { spec.scenario.seed = ToU64(key, value); return; }
  if (key == "scenario.symmetric_ecmp") { spec.scenario.symmetric_ecmp = ToBool(key, value); return; }
  if (key == "scenario.ecmp_salt") { spec.scenario.ecmp_salt = static_cast<std::uint32_t>(ToBoundedU64(key, value, 0xFFFFFFFFull)); return; }
  if (key == "scenario.int_table_refresh_us") { spec.scenario.int_table_refresh = TimeFromUs(key, value); return; }
  if (key == "scenario.quantize_int") { spec.scenario.quantize_int = ToBool(key, value); return; }
  if (key == "scenario.delivery_batch") { spec.scenario.delivery_batch = ToBoundedInt(key, value); return; }
  if (key == "scenario.exec_domains") { spec.scenario.exec_domains = value == "auto" ? 0 : ToBoundedInt(key, value); return; }
  if (key == "scenario.eta") { spec.scenario.eta = ToDouble(key, value); return; }
  if (key == "scenario.max_stage") { spec.scenario.max_stage = ToBoundedInt(key, value); return; }
  if (key == "scenario.wai_bytes") { spec.scenario.wai_bytes = ToDouble(key, value); return; }
  if (key == "scenario.lhcs_alpha") { spec.scenario.lhcs_alpha = ToDouble(key, value); return; }
  if (key == "scenario.lhcs_beta") { spec.scenario.lhcs_beta = ToDouble(key, value); return; }

  if (key == "run.duration_us") { spec.run.duration = TimeFromUs(key, value); return; }
  if (key == "run.max_sim_ms") { spec.run.max_sim_time = TimeFromMs(key, value); return; }
  if (key == "run.queue_sample_us") { spec.run.queue_sample_interval = TimeFromUs(key, value); return; }
  if (key == "run.rate_sample_us") { spec.run.rate_sample_interval = TimeFromUs(key, value); return; }
  if (key == "run.util_sample_us") { spec.run.util_sample_interval = TimeFromUs(key, value); return; }
  if (key == "run.monitor") { spec.run.monitor = ToBool(key, value); return; }
  if (key == "run.launch_window_us") { spec.run.launch_window = TimeFromUs(key, value); return; }

  // Sweep axes. An empty value is rejected, not treated as "clear the
  // axis" — a spec file whose value line was accidentally emptied must not
  // silently collapse the sweep to one default point.
  if (key == "sweep.mode") {
    spec.sweep.modes.clear();
    if (value == "all") {
      spec.sweep.modes.assign(std::begin(kAllCcModes), std::end(kAllCcModes));
    } else {
      for (const std::string& v : SweepList(key, value)) {
        spec.sweep.modes.push_back(ModeFromName(key, v));
      }
    }
    return;
  }
  if (key == "sweep.seed") {
    spec.sweep.seeds.clear();
    for (const std::string& v : SweepList(key, value)) {
      spec.sweep.seeds.push_back(ToU64(key, v));
    }
    return;
  }
  if (key == "sweep.load") {
    spec.sweep.loads.clear();
    for (const std::string& v : SweepList(key, value)) {
      spec.sweep.loads.push_back(ToDouble(key, v));
    }
    return;
  }
  if (key == "sweep.num_flows") {
    spec.sweep.num_flows.clear();
    for (const std::string& v : SweepList(key, value)) {
      spec.sweep.num_flows.push_back(ToBoundedInt(key, v));
    }
    return;
  }
  if (key == "sweep.merge_switch") {
    spec.sweep.merge_switches.clear();
    for (const std::string& v : SweepList(key, value)) {
      spec.sweep.merge_switches.push_back(ToBoundedInt(key, v));
    }
    return;
  }

  if (key == "output.dir") { spec.output.dir = value; return; }
  if (key == "output.fct_csv") { spec.output.fct_csv = value; return; }
  if (key == "output.timeseries_csv") { spec.output.timeseries_csv = value; return; }
  if (key == "output.manifest") { spec.output.manifest = value; return; }
  if (key == "output.buckets") { spec.output.buckets = value; return; }
  if (key == "output.stream_fct") { spec.output.stream_fct = ToBool(key, value); return; }
  if (key == "output.pdes_stats") { spec.output.pdes_stats = ToBool(key, value); return; }
  // clang-format on

  throw SpecError("unknown key '" + key + "'");
}

void Require(bool ok, const std::string& what) {
  if (!ok) throw SpecError("spec validation: " + what);
}

}  // namespace

// ---------------------------------------------------------------- validate

std::size_t SweepAxes::size() const {
  std::size_t n = 1;
  for (std::size_t axis : {modes.size(), seeds.size(), loads.size(),
                           num_flows.size(), merge_switches.size()}) {
    if (axis != 0) n *= axis;
  }
  return n;
}

void ValidateSpec(const ExperimentSpec& spec) {
  Require(!spec.name.empty(), "name must not be empty");
  Require(spec.name.find('/') == std::string::npos,
          "name must not contain '/' (it becomes a file name)");

  if (!TopologyRegistry::Contains(spec.topology)) {
    throw SpecError("unknown topology '" + spec.topology + "' (known: " +
                    JoinNames(TopologyRegistry::Names()) + ")");
  }
  if (!WorkloadRegistry::Contains(spec.workload)) {
    throw SpecError("unknown workload '" + spec.workload + "' (known: " +
                    JoinNames(WorkloadRegistry::Names()) + ")");
  }
  try {
    (void)SizeCdf::ByName(spec.cdf);
  } catch (const std::invalid_argument& e) {
    throw SpecError(std::string("workload.cdf: ") + e.what());
  }

  // Topology ranges (registry builders re-check; failing here gives the
  // key-level message before any simulator exists).
  Require(spec.topo.num_senders >= 1, "topology.num_senders must be >= 1");
  Require(spec.topo.num_switches >= 1, "topology.num_switches must be >= 1");
  Require(spec.topo.k >= 2 && spec.topo.k % 2 == 0,
          "topology.k must be even and >= 2");
  Require(spec.topo.leaves >= 1, "topology.leaves must be >= 1");
  Require(spec.topo.spines >= 1, "topology.spines must be >= 1");
  Require(spec.topo.hosts_per_leaf >= 1,
          "topology.hosts_per_leaf must be >= 1");
  Require(spec.topo.oversubscription > 0.0,
          "topology.oversubscription must be > 0");
  Require(spec.topo.rails >= 1, "topology.rails must be >= 1");
  if (spec.topology == "chain_merge") {
    Require(spec.topo.merge_switch >= 0 &&
                spec.topo.merge_switch < spec.topo.num_switches,
            "topology.merge_switch must be in [0, topology.num_switches)");
    for (int m : spec.sweep.merge_switches) {
      Require(m >= 0 && m < spec.topo.num_switches,
              "sweep.merge_switch value " + std::to_string(m) +
                  " outside [0, topology.num_switches)");
    }
  }

  // Workload ranges.
  Require(spec.wl.load > 0.0 && spec.wl.load <= 1.0,
          "workload.load must be in (0, 1]");
  Require(spec.wl.num_flows >= 1, "workload.num_flows must be >= 1");
  Require(spec.wl.groups >= 1, "workload.groups must be >= 1");
  Require(spec.wl.start_time >= 0, "workload.start_us must be >= 0");
  Require(spec.wl.stagger >= 0, "workload.stagger_us must be >= 0");
  Require(spec.wl.group_stagger >= 0,
          "workload.group_stagger_us must be >= 0");
  for (const LongFlow& lf : spec.wl.long_flows) {
    Require(lf.sender_index >= 0, "workload.flows sender index must be >= 0");
    Require(lf.start >= 0, "workload.flows start must be >= 0");
    Require(lf.stop > lf.start, "workload.flows stop must be after start");
  }
  if (spec.workload == "elephants" && spec.wl.size_bytes == 0) {
    Require(spec.run.duration > 0,
            "elephants with workload.size_bytes = 0 (duration-budget sizing) "
            "need run.duration_us > 0");
  }
  if (spec.workload == "trace") {
    Require(!spec.wl.trace_file.empty(),
            "workload 'trace' needs workload.trace_file (a "
            "start_us,src,dst,bytes CSV)");
  }

  // Scenario ranges.
  Require(spec.scenario.link_gbps > 0.0, "scenario.link_gbps must be > 0");
  Require(spec.scenario.propagation_delay >= 0,
          "scenario.propagation_delay_us must be >= 0");
  Require(spec.scenario.mtu_bytes >= 256,
          "scenario.mtu_bytes must be >= 256");
  Require(spec.scenario.ack_every >= 1, "scenario.ack_every must be >= 1");
  Require(spec.scenario.pfc_xon_bytes <= spec.scenario.pfc_xoff_bytes,
          "scenario.pfc_xon_bytes must be <= scenario.pfc_xoff_bytes");
  Require(spec.scenario.int_table_refresh >= 0,
          "scenario.int_table_refresh_us must be >= 0");
  Require(spec.scenario.delivery_batch >= 1 &&
              spec.scenario.delivery_batch <= 64,
          "scenario.delivery_batch must be in [1, 64]");
  Require(spec.scenario.exec_domains >= 0 && spec.scenario.exec_domains <= 64,
          "scenario.exec_domains must be auto or in [1, 64]");
  // >1 domains need a positive cross-domain lookahead window; auto (0) is
  // fine — it resolves to 1 when there is no propagation delay.
  Require(spec.scenario.exec_domains <= 1 ||
              spec.scenario.propagation_delay > 0,
          "scenario.exec_domains > 1 requires scenario.propagation_delay_us "
          "> 0 (the PDES lookahead window)");
  Require(spec.scenario.eta > 0.0 && spec.scenario.eta <= 1.0,
          "scenario.eta must be in (0, 1]");
  Require(spec.scenario.max_stage >= 1, "scenario.max_stage must be >= 1");
  Require(spec.scenario.wai_bytes >= 0.0, "scenario.wai_bytes must be >= 0");
  Require(spec.scenario.lhcs_alpha > 0.0, "scenario.lhcs_alpha must be > 0");
  Require(spec.scenario.lhcs_beta > 0.0 && spec.scenario.lhcs_beta <= 1.0,
          "scenario.lhcs_beta must be in (0, 1]");

  // Run ranges.
  Require(spec.run.duration >= 0, "run.duration_us must be >= 0");
  Require(spec.run.max_sim_time > 0, "run.max_sim_ms must be > 0");
  Require(spec.run.queue_sample_interval > 0,
          "run.queue_sample_us must be > 0");
  Require(spec.run.rate_sample_interval > 0, "run.rate_sample_us must be > 0");
  Require(spec.run.util_sample_interval > 0, "run.util_sample_us must be > 0");
  Require(spec.run.launch_window >= 0, "run.launch_window_us must be >= 0");
  // The samplers start at t = 0 and follow the flows launched by then;
  // only window 0 launches every flow before the run starts.
  Require(spec.run.launch_window == 0 || !spec.run.monitor,
          "run.monitor = true needs run.launch_window_us = 0 (the samplers "
          "start at t = 0 and need every flow launched by then); set "
          "run.monitor = false to launch in windows");

  // Output ranges. buckets selects a bucket-edge table; the dispatch in
  // stats/fct (BucketEdgesByName) is the single source of truth for which
  // tables exist (empty = no table).
  if (!spec.output.buckets.empty()) {
    try {
      (void)BucketEdgesByName(spec.output.buckets);
    } catch (const std::invalid_argument& e) {
      throw SpecError(std::string("output.buckets: ") + e.what());
    }
  }

  // Sweep ranges.
  for (double load : spec.sweep.loads) {
    Require(load > 0.0 && load <= 1.0, "sweep.load values must be in (0, 1]");
  }
  for (int n : spec.sweep.num_flows) {
    Require(n >= 1, "sweep.num_flows values must be >= 1");
  }
}

// ------------------------------------------------------------------ parse

void ApplySpecOverride(ExperimentSpec& spec, const std::string& key,
                       const std::string& value) {
  ApplyKey(spec, Trim(key), Trim(value));
}

void ApplySpecOverrides(ExperimentSpec& spec,
                        const std::vector<std::string>& tokens) {
  for (const std::string& token : tokens) {
    const std::size_t eq = token.find('=');
    if (eq == std::string::npos) {
      throw SpecError("override '" + token + "' is not key=value");
    }
    ApplySpecOverride(spec, token.substr(0, eq), token.substr(eq + 1));
  }
}

ExperimentSpec ParseSpecText(const std::string& text,
                             const std::string& source) {
  ExperimentSpec spec;
  std::istringstream in(text);
  std::string line;
  std::string section;
  int lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    line = Trim(line);
    if (line.empty()) continue;
    try {
      if (line.front() == '[') {
        if (line.back() != ']') throw SpecError("unterminated section header");
        section = Trim(line.substr(1, line.size() - 2));
        if (section.empty()) throw SpecError("empty section header");
        continue;
      }
      const std::size_t eq = line.find('=');
      if (eq == std::string::npos) {
        throw SpecError("expected key = value");
      }
      std::string key = Trim(line.substr(0, eq));
      const std::string value = Trim(line.substr(eq + 1));
      if (key.empty()) throw SpecError("empty key");
      // A dotted key is absolute; a bare key picks up the section prefix.
      if (!section.empty() && key.find('.') == std::string::npos &&
          key != "name") {
        key = section + "." + key;
      }
      ApplyKey(spec, key, value);
    } catch (const SpecError& e) {
      throw SpecError(source + ":" + std::to_string(lineno) + ": " +
                      e.what());
    }
  }
  try {
    ValidateSpec(spec);
  } catch (const SpecError& e) {
    throw SpecError(source + ": " + e.what());
  }
  return spec;
}

ExperimentSpec ParseSpecFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw SpecError("cannot open spec file '" + path + "'");
  std::ostringstream text;
  text << in.rdbuf();
  ExperimentSpec spec = ParseSpecText(text.str(), path);
  // A relative trace_file is relative to the spec file, not the cwd — a
  // spec in specs/ that names a sibling trace works from anywhere. The
  // resolved path round-trips through SpecToText unchanged.
  if (!spec.wl.trace_file.empty() && spec.wl.trace_file.front() != '/') {
    const std::size_t slash = path.find_last_of('/');
    if (slash != std::string::npos) {
      spec.wl.trace_file = path.substr(0, slash + 1) + spec.wl.trace_file;
    }
  }
  return spec;
}

// ----------------------------------------------------------------- expand

std::vector<ExperimentSpec> ExpandSweep(const ExperimentSpec& spec) {
  ValidateSpec(spec);
  const SweepAxes& ax = spec.sweep;

  // Materialize each axis with a single "keep the scalar" entry when the
  // axis is not swept, so one nested loop covers every combination.
  const std::vector<CcMode> modes =
      ax.modes.empty() ? std::vector<CcMode>{spec.scenario.mode} : ax.modes;
  const std::vector<std::uint64_t> seeds =
      ax.seeds.empty() ? std::vector<std::uint64_t>{spec.scenario.seed}
                       : ax.seeds;
  const std::vector<double> loads =
      ax.loads.empty() ? std::vector<double>{spec.wl.load} : ax.loads;
  const std::vector<int> flows =
      ax.num_flows.empty() ? std::vector<int>{spec.wl.num_flows}
                           : ax.num_flows;
  const std::vector<int> merges =
      ax.merge_switches.empty() ? std::vector<int>{spec.topo.merge_switch}
                                : ax.merge_switches;

  std::vector<ExperimentSpec> points;
  points.reserve(modes.size() * seeds.size() * loads.size() * flows.size() *
                 merges.size());
  for (CcMode mode : modes) {
    for (std::uint64_t seed : seeds) {
      for (double load : loads) {
        for (int num_flows : flows) {
          for (int merge : merges) {
            ExperimentSpec point = spec;
            point.sweep = SweepAxes{};
            point.scenario.mode = mode;
            point.scenario.seed = seed;
            point.wl.load = load;
            point.wl.num_flows = num_flows;
            point.topo.merge_switch = merge;
            std::vector<std::string> parts;
            if (!ax.modes.empty()) parts.emplace_back(CcModeName(mode));
            if (!ax.seeds.empty()) {
              parts.push_back("seed" + std::to_string(seed));
            }
            if (!ax.loads.empty()) {
              parts.push_back("load" + FormatDouble(load));
            }
            if (!ax.num_flows.empty()) {
              parts.push_back("flows" + std::to_string(num_flows));
            }
            if (!ax.merge_switches.empty()) {
              parts.push_back("merge" + std::to_string(merge));
            }
            std::string label;
            for (const std::string& p : parts) {
              if (!label.empty()) label += "-";
              label += p;
            }
            point.label = label;
            points.push_back(std::move(point));
          }
        }
      }
    }
  }
  return points;
}

// -------------------------------------------------------------- serialize

std::string SpecToText(const ExperimentSpec& spec) {
  std::ostringstream out;
  out << "name = " << spec.name << "\n";

  out << "\n[topology]\n";
  out << "kind = " << spec.topology << "\n";
  out << "num_senders = " << spec.topo.num_senders << "\n";
  out << "num_switches = " << spec.topo.num_switches << "\n";
  out << "merge_switch = " << spec.topo.merge_switch << "\n";
  out << "k = " << spec.topo.k << "\n";
  out << "leaves = " << spec.topo.leaves << "\n";
  out << "spines = " << spec.topo.spines << "\n";
  out << "hosts_per_leaf = " << spec.topo.hosts_per_leaf << "\n";
  out << "oversubscription = " << FormatDouble(spec.topo.oversubscription)
      << "\n";
  out << "rails = " << spec.topo.rails << "\n";

  out << "\n[workload]\n";
  out << "kind = " << spec.workload << "\n";
  out << "load = " << FormatDouble(spec.wl.load) << "\n";
  out << "num_flows = " << spec.wl.num_flows << "\n";
  out << "size_bytes = " << spec.wl.size_bytes << "\n";
  out << "cdf = " << spec.cdf << "\n";
  out << "start_us = " << FormatTimeUs(spec.wl.start_time) << "\n";
  out << "stagger_us = " << FormatTimeUs(spec.wl.stagger) << "\n";
  out << "groups = " << spec.wl.groups << "\n";
  out << "group_stagger_us = " << FormatTimeUs(spec.wl.group_stagger) << "\n";
  if (!spec.wl.long_flows.empty()) {
    out << "flows = " << FlowsToList(spec.wl.long_flows) << "\n";
  }
  out << "port_base = " << spec.wl.port_base << "\n";
  if (!spec.wl.trace_file.empty()) {
    out << "trace_file = " << spec.wl.trace_file << "\n";
  }

  out << "\n[scenario]\n";
  out << "mode = " << CcModeName(spec.scenario.mode) << "\n";
  out << "link_gbps = " << FormatDouble(spec.scenario.link_gbps) << "\n";
  out << "propagation_delay_us = "
      << FormatTimeUs(spec.scenario.propagation_delay) << "\n";
  out << "mtu_bytes = " << spec.scenario.mtu_bytes << "\n";
  out << "pfc = " << (spec.scenario.pfc_enabled ? "true" : "false") << "\n";
  out << "pfc_xoff_bytes = " << spec.scenario.pfc_xoff_bytes << "\n";
  out << "pfc_xon_bytes = " << spec.scenario.pfc_xon_bytes << "\n";
  out << "ack_every = " << spec.scenario.ack_every << "\n";
  out << "seed = " << spec.scenario.seed << "\n";
  out << "symmetric_ecmp = "
      << (spec.scenario.symmetric_ecmp ? "true" : "false") << "\n";
  out << "ecmp_salt = " << spec.scenario.ecmp_salt << "\n";
  out << "int_table_refresh_us = "
      << FormatTimeUs(spec.scenario.int_table_refresh) << "\n";
  out << "quantize_int = " << (spec.scenario.quantize_int ? "true" : "false")
      << "\n";
  out << "delivery_batch = " << spec.scenario.delivery_batch << "\n";
  out << "exec_domains = ";
  if (spec.scenario.exec_domains == 0) {
    out << "auto\n";
  } else {
    out << spec.scenario.exec_domains << "\n";
  }
  out << "eta = " << FormatDouble(spec.scenario.eta) << "\n";
  out << "max_stage = " << spec.scenario.max_stage << "\n";
  out << "wai_bytes = " << FormatDouble(spec.scenario.wai_bytes) << "\n";
  out << "lhcs_alpha = " << FormatDouble(spec.scenario.lhcs_alpha) << "\n";
  out << "lhcs_beta = " << FormatDouble(spec.scenario.lhcs_beta) << "\n";

  out << "\n[run]\n";
  out << "duration_us = " << FormatTimeUs(spec.run.duration) << "\n";
  out << "max_sim_ms = " << FormatTimeMs(spec.run.max_sim_time) << "\n";
  out << "queue_sample_us = " << FormatTimeUs(spec.run.queue_sample_interval)
      << "\n";
  out << "rate_sample_us = " << FormatTimeUs(spec.run.rate_sample_interval)
      << "\n";
  out << "util_sample_us = " << FormatTimeUs(spec.run.util_sample_interval)
      << "\n";
  out << "monitor = " << (spec.run.monitor ? "true" : "false") << "\n";
  if (spec.run.launch_window != 0) {
    out << "launch_window_us = " << FormatTimeUs(spec.run.launch_window)
        << "\n";
  }

  if (!spec.sweep.empty()) {
    out << "\n[sweep]\n";
    if (!spec.sweep.modes.empty()) {
      out << "mode = ";
      for (std::size_t i = 0; i < spec.sweep.modes.size(); ++i) {
        out << (i ? "," : "") << CcModeName(spec.sweep.modes[i]);
      }
      out << "\n";
    }
    if (!spec.sweep.seeds.empty()) {
      out << "seed = ";
      for (std::size_t i = 0; i < spec.sweep.seeds.size(); ++i) {
        out << (i ? "," : "") << spec.sweep.seeds[i];
      }
      out << "\n";
    }
    if (!spec.sweep.loads.empty()) {
      out << "load = ";
      for (std::size_t i = 0; i < spec.sweep.loads.size(); ++i) {
        out << (i ? "," : "") << FormatDouble(spec.sweep.loads[i]);
      }
      out << "\n";
    }
    if (!spec.sweep.num_flows.empty()) {
      out << "num_flows = ";
      for (std::size_t i = 0; i < spec.sweep.num_flows.size(); ++i) {
        out << (i ? "," : "") << spec.sweep.num_flows[i];
      }
      out << "\n";
    }
    if (!spec.sweep.merge_switches.empty()) {
      out << "merge_switch = ";
      for (std::size_t i = 0; i < spec.sweep.merge_switches.size(); ++i) {
        out << (i ? "," : "") << spec.sweep.merge_switches[i];
      }
      out << "\n";
    }
  }

  out << "\n[output]\n";
  out << "dir = " << spec.output.dir << "\n";
  if (!spec.output.fct_csv.empty()) {
    out << "fct_csv = " << spec.output.fct_csv << "\n";
  }
  if (!spec.output.timeseries_csv.empty()) {
    out << "timeseries_csv = " << spec.output.timeseries_csv << "\n";
  }
  if (!spec.output.manifest.empty()) {
    out << "manifest = " << spec.output.manifest << "\n";
  }
  if (!spec.output.buckets.empty()) {
    out << "buckets = " << spec.output.buckets << "\n";
  }
  if (spec.output.stream_fct) {
    out << "stream_fct = true\n";
  }
  if (spec.output.pdes_stats) {
    out << "pdes_stats = true\n";
  }
  return out.str();
}

// ---------------------------------------------------------------- resolve

TopologyParams ResolveTopologyParams(const ExperimentSpec& spec) {
  TopologyParams params = spec.topo;
  params.link = spec.scenario.link();
  return params;
}

WorkloadParams ResolveWorkloadParams(const ExperimentSpec& spec) {
  WorkloadParams params = spec.wl;
  params.link_gbps = spec.scenario.link_gbps;
  params.cdf = SizeCdf::ByName(spec.cdf);
  return params;
}

}  // namespace fncc
