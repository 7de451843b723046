#include "harness/experiment_spec.hpp"

#include <cerrno>
#include <climits>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string_view>

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
  if (!(ps >= -kMaxParsedTimePs && ps <= kMaxParsedTimePs)) {
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

// ------------------------------------------------------------ key dispatch

/// One settable key: its full dotted name and the parser that turns value
/// text into the field. Spec files, overrides and sweep points all set
/// fields through this table.
struct KeyDef {
  const char* key;
  void (*set)(ExperimentSpec& spec, const std::string& key,
              const std::string& value);
};

// clang-format off
constexpr KeyDef kKeys[] = {
  {"name", [](auto& s, auto&, auto& v) { s.name = v; }},

  {"topology.kind", [](auto& s, auto&, auto& v) { s.topology = v; }},
  {"topology.num_senders", [](auto& s, auto& k, auto& v) { s.topo.num_senders = ToBoundedInt(k, v); }},
  {"topology.num_switches", [](auto& s, auto& k, auto& v) { s.topo.num_switches = ToBoundedInt(k, v); }},
  {"topology.merge_switch", [](auto& s, auto& k, auto& v) { s.topo.merge_switch = ToBoundedInt(k, v); }},
  {"topology.k", [](auto& s, auto& k, auto& v) { s.topo.k = ToBoundedInt(k, v); }},
  {"topology.leaves", [](auto& s, auto& k, auto& v) { s.topo.leaves = ToBoundedInt(k, v); }},
  {"topology.spines", [](auto& s, auto& k, auto& v) { s.topo.spines = ToBoundedInt(k, v); }},
  {"topology.hosts_per_leaf", [](auto& s, auto& k, auto& v) { s.topo.hosts_per_leaf = ToBoundedInt(k, v); }},
  {"topology.oversubscription", [](auto& s, auto& k, auto& v) { s.topo.oversubscription = ToDouble(k, v); }},
  {"topology.rails", [](auto& s, auto& k, auto& v) { s.topo.rails = ToBoundedInt(k, v); }},

  {"workload.kind", [](auto& s, auto&, auto& v) { s.workload = v; }},
  {"workload.load", [](auto& s, auto& k, auto& v) { s.wl.load = ToDouble(k, v); }},
  {"workload.num_flows", [](auto& s, auto& k, auto& v) { s.wl.num_flows = ToBoundedInt(k, v); }},
  {"workload.size_bytes", [](auto& s, auto& k, auto& v) { s.wl.size_bytes = ToU64(k, v); }},
  {"workload.cdf", [](auto& s, auto&, auto& v) { s.cdf = v; }},
  {"workload.start_us", [](auto& s, auto& k, auto& v) { s.wl.start_time = TimeFromUs(k, v); }},
  {"workload.stagger_us", [](auto& s, auto& k, auto& v) { s.wl.stagger = TimeFromUs(k, v); }},
  {"workload.groups", [](auto& s, auto& k, auto& v) { s.wl.groups = ToBoundedInt(k, v); }},
  {"workload.group_stagger_us", [](auto& s, auto& k, auto& v) { s.wl.group_stagger = TimeFromUs(k, v); }},
  {"workload.flows", [](auto& s, auto& k, auto& v) { s.wl.long_flows = FlowsFromList(k, v); }},
  {"workload.port_base", [](auto& s, auto& k, auto& v) { s.wl.port_base = static_cast<std::uint16_t>(ToBoundedU64(k, v, 65'535)); }},
  {"workload.trace_file", [](auto& s, auto&, auto& v) { s.wl.trace_file = v; }},

  {"scenario.mode", [](auto& s, auto& k, auto& v) { s.scenario.mode = ModeFromName(k, v); }},
  {"scenario.link_gbps", [](auto& s, auto& k, auto& v) { s.scenario.link_gbps = ToDouble(k, v); }},
  {"scenario.propagation_delay_us", [](auto& s, auto& k, auto& v) { s.scenario.propagation_delay = TimeFromUs(k, v); }},
  {"scenario.mtu_bytes", [](auto& s, auto& k, auto& v) { s.scenario.mtu_bytes = static_cast<std::uint32_t>(ToBoundedU64(k, v, 0xFFFFFFFFull)); }},
  {"scenario.pfc", [](auto& s, auto& k, auto& v) { s.scenario.pfc_enabled = ToBool(k, v); }},
  {"scenario.pfc_xoff_bytes", [](auto& s, auto& k, auto& v) { s.scenario.pfc_xoff_bytes = ToU64(k, v); }},
  {"scenario.pfc_xon_bytes", [](auto& s, auto& k, auto& v) { s.scenario.pfc_xon_bytes = ToU64(k, v); }},
  {"scenario.ack_every", [](auto& s, auto& k, auto& v) { s.scenario.ack_every = ToBoundedInt(k, v); }},
  {"scenario.seed", [](auto& s, auto& k, auto& v) { s.scenario.seed = ToU64(k, v); }},
  {"scenario.symmetric_ecmp", [](auto& s, auto& k, auto& v) { s.scenario.symmetric_ecmp = ToBool(k, v); }},
  {"scenario.ecmp_salt", [](auto& s, auto& k, auto& v) { s.scenario.ecmp_salt = static_cast<std::uint32_t>(ToBoundedU64(k, v, 0xFFFFFFFFull)); }},
  {"scenario.int_table_refresh_us", [](auto& s, auto& k, auto& v) { s.scenario.int_table_refresh = TimeFromUs(k, v); }},
  {"scenario.quantize_int", [](auto& s, auto& k, auto& v) { s.scenario.quantize_int = ToBool(k, v); }},
  {"scenario.delivery_batch", [](auto& s, auto& k, auto& v) { s.scenario.delivery_batch = ToBoundedInt(k, v); }},
  {"scenario.exec_domains", [](auto& s, auto& k, auto& v) { s.scenario.exec_domains = v == "auto" ? 0 : ToBoundedInt(k, v); }},
  {"scenario.eta", [](auto& s, auto& k, auto& v) { s.scenario.eta = ToDouble(k, v); }},
  {"scenario.max_stage", [](auto& s, auto& k, auto& v) { s.scenario.max_stage = ToBoundedInt(k, v); }},
  {"scenario.wai_bytes", [](auto& s, auto& k, auto& v) { s.scenario.wai_bytes = ToDouble(k, v); }},
  {"scenario.lhcs_alpha", [](auto& s, auto& k, auto& v) { s.scenario.lhcs_alpha = ToDouble(k, v); }},
  {"scenario.lhcs_beta", [](auto& s, auto& k, auto& v) { s.scenario.lhcs_beta = ToDouble(k, v); }},

  {"run.duration_us", [](auto& s, auto& k, auto& v) { s.run.duration = TimeFromUs(k, v); }},
  {"run.max_sim_ms", [](auto& s, auto& k, auto& v) { s.run.max_sim_time = TimeFromMs(k, v); }},
  {"run.queue_sample_us", [](auto& s, auto& k, auto& v) { s.run.queue_sample_interval = TimeFromUs(k, v); }},
  {"run.rate_sample_us", [](auto& s, auto& k, auto& v) { s.run.rate_sample_interval = TimeFromUs(k, v); }},
  {"run.util_sample_us", [](auto& s, auto& k, auto& v) { s.run.util_sample_interval = TimeFromUs(k, v); }},
  {"run.monitor", [](auto& s, auto& k, auto& v) { s.run.monitor = ToBool(k, v); }},
  {"run.launch_window_us", [](auto& s, auto& k, auto& v) { s.run.launch_window = TimeFromUs(k, v); }},

  {"output.dir", [](auto& s, auto&, auto& v) { s.output.dir = v; }},
  {"output.fct_csv", [](auto& s, auto&, auto& v) { s.output.fct_csv = v; }},
  {"output.timeseries_csv", [](auto& s, auto&, auto& v) { s.output.timeseries_csv = v; }},
  {"output.manifest", [](auto& s, auto&, auto& v) { s.output.manifest = v; }},
  {"output.buckets", [](auto& s, auto&, auto& v) { s.output.buckets = v; }},
  {"output.stream_fct", [](auto& s, auto& k, auto& v) { s.output.stream_fct = ToBool(k, v); }},
  {"output.pdes_stats", [](auto& s, auto& k, auto& v) { s.output.pdes_stats = ToBool(k, v); }},
};
// clang-format on

std::string_view LastComponent(std::string_view key) {
  return key.substr(key.rfind('.') + 1);
}

/// Keys a sweep may vary: the name and outputs belong to the run, not to
/// a point.
bool IsPointKey(std::string_view key) {
  return key != "name" && !key.starts_with("output.");
}

/// The key a `sweep.<axis>` axis varies: `axis` itself when it is a key,
/// else the one key whose last component it is (`mode` -> scenario.mode).
const KeyDef& SweepTarget(const std::string& axis) {
  const std::string key = "sweep." + axis;
  std::vector<std::string> matches;
  const KeyDef* target = nullptr;
  for (const KeyDef& def : kKeys) {
    if (axis == def.key || LastComponent(def.key) == axis) {
      matches.emplace_back(def.key);
      target = &def;
    }
  }
  if (matches.size() == 1 && IsPointKey(target->key)) return *target;
  if (matches.size() == 1 || axis.starts_with("sweep.")) {
    Bad(key, "'" + (target ? matches[0] : axis) +
                 "' cannot be swept: the name, outputs and sweep belong to "
                 "the run, not to a point");
  }
  if (!target) {
    for (const KeyDef& def : kKeys) {
      if (IsPointKey(def.key)) matches.emplace_back(def.key);
    }
  }
  Bad(key, (target ? "'" + axis + "' is ambiguous"
                   : "no spec key '" + axis + "' to sweep") +
               " (candidates: " + JoinNames(matches) + ")");
}

/// Declares `sweep.<axis> = value`, or re-declares it in place. Each value
/// is parsed on a scratch copy here; ValidateSpec range-checks them.
void SetSweepAxis(ExperimentSpec& spec, const std::string& axis,
                  const std::string& value) {
  const std::string key = "sweep." + axis;
  const KeyDef& target = SweepTarget(axis);
  // An empty value is rejected, not treated as "clear the axis" — a spec
  // file whose value line was accidentally emptied must not silently
  // collapse the sweep to one default point.
  std::vector<std::string> values = SplitList(value);
  if (values.empty()) {
    Bad(key, "empty axis value (drop the key to leave the axis unswept)");
  }
  if (std::string_view(target.key) == "scenario.mode" && value == "all") {
    values.clear();
    for (CcMode m : kAllCcModes) values.emplace_back(CcModeName(m));
  }
  ExperimentSpec scratch = spec;
  for (const std::string& v : values) {
    if (v.find('/') != std::string::npos) {
      Bad(key, "value '" + v + "' must not contain '/' (point labels "
                   "become file names)");
    }
    target.set(scratch, key, v);
  }
  for (SweepAxis& declared : spec.sweep) {
    if (&SweepTarget(declared.key) == &target) {
      declared = {axis, std::move(values)};
      return;
    }
  }
  spec.sweep.push_back({axis, std::move(values)});
}

void ApplyKey(ExperimentSpec& spec, const std::string& key,
              const std::string& value) {
  // '#' starts a comment and a newline ends a line in spec text, so a
  // value containing either (only reachable via CLI overrides — the file
  // parser strips both) would silently truncate on the SpecToText ->
  // ParseSpecText round trip the manifest relies on.
  if (value.find_first_of("#\n\r") != std::string::npos) {
    Bad(key, "value must not contain '#' or newlines");
  }
  if (key.starts_with("sweep.")) {
    SetSweepAxis(spec, key.substr(6), value);
    return;
  }
  for (const KeyDef& def : kKeys) {
    if (key == def.key) {
      def.set(spec, key, value);
      return;
    }
  }
  throw SpecError("unknown key '" + key + "'");
}

void Require(bool ok, const std::string& what) {
  if (!ok) throw SpecError("spec validation: " + what);
}

}  // namespace

// ---------------------------------------------------------------- validate

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

  // Sweep axes: every value must make a valid spec on its own
  // (ExpandSweep validates each combination again).
  for (const SweepAxis& axis : spec.sweep) {
    const std::string key = "sweep." + axis.key;
    const KeyDef& target = SweepTarget(axis.key);
    Require(!axis.values.empty(), key + " has no values");
    for (const std::string& value : axis.values) {
      ExperimentSpec scratch = spec;
      scratch.sweep.clear();
      try {
        target.set(scratch, key, value);
        ValidateSpec(scratch);
      } catch (const SpecError& e) {
        throw SpecError(key + " value '" + value + "': " + e.what());
      }
    }
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
      // A dotted key is absolute and a bare key picks up the section
      // prefix, except under [sweep], where every key names an axis.
      if (!section.empty() && key != "name" &&
          (section == "sweep" || key.find('.') == std::string::npos)) {
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
  const std::vector<SweepAxis>& axes = spec.sweep;
  std::vector<const KeyDef*> targets;
  for (const SweepAxis& axis : axes) targets.push_back(&SweepTarget(axis.key));
  ExperimentSpec base = spec;
  base.sweep.clear();
  base.label.clear();

  // An odometer over the axes: digit i indexes axis i's values, and the
  // last axis turns fastest.
  std::vector<std::size_t> digit(axes.size(), 0);
  std::vector<ExperimentSpec> points;
  while (true) {
    ExperimentSpec point = base;
    for (std::size_t i = 0; i < axes.size(); ++i) {
      const std::string_view key = targets[i]->key;
      const std::string& value = axes[i].values[digit[i]];
      targets[i]->set(point, "sweep." + axes[i].key, value);
      if (!point.label.empty()) point.label += '-';
      if (key != "scenario.mode") point.label += LastComponent(key);
      point.label += value;
    }
    ValidateSpec(point);
    points.push_back(std::move(point));
    std::size_t i = axes.size();
    while (i > 0 && ++digit[i - 1] == axes[i - 1].values.size()) {
      digit[--i] = 0;
    }
    if (i == 0) return points;
  }
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
    for (const SweepAxis& axis : spec.sweep) {
      out << axis.key << " = ";
      for (std::size_t i = 0; i < axis.values.size(); ++i) {
        out << (i ? "," : "") << axis.values[i];
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
