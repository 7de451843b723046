#include "harness/experiment_spec.hpp"

#include <cerrno>
#include <climits>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <sstream>
#include <string_view>
#include <type_traits>
#include <utility>

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

/// Every `int` field parses through here so an overflowing value errors
/// instead of silently truncating in a narrowing cast.
int ToBoundedInt(const std::string& key, const std::string& v) {
  char* end = nullptr;
  errno = 0;
  const long long i = std::strtoll(v.c_str(), &end, 10);
  if (end == v.c_str() || *end != '\0' || errno == ERANGE) {
    Bad(key, "'" + v + "' is not a representable integer");
  }
  if (i < INT_MIN || i > INT_MAX) Bad(key, "'" + v + "' overflows int");
  return static_cast<int>(i);
}

/// Every unsigned field parses through here, with `max` its type's maximum.
std::uint64_t ToBoundedU64(const std::string& key, const std::string& v,
                           std::uint64_t max) {
  if (!v.empty() && v[0] == '-') Bad(key, "'" + v + "' is negative");
  char* end = nullptr;
  errno = 0;
  const unsigned long long u = std::strtoull(v.c_str(), &end, 10);
  if (end == v.c_str() || *end != '\0' || errno == ERANGE) {
    Bad(key, "'" + v + "' is not a representable unsigned integer");
  }
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

// ------------------------------------------------------------------ codecs

// A codec is how a key's value text becomes its field's type (Parse, whose
// errors name the key) and how the field prints back (Format, text that
// Parse reads back to the same value).

struct Text {
  static std::string Parse(const std::string&, const std::string& v) {
    return v;
  }
  static std::string Format(const std::string& v) { return v; }
};

struct Int {
  static constexpr auto Parse = ToBoundedInt;
  static std::string Format(int v) { return std::to_string(v); }
};

/// An unsigned field of type T: the value must fit T.
template <typename T>
struct Unsigned {
  static T Parse(const std::string& key, const std::string& v) {
    return static_cast<T>(ToBoundedU64(key, v, std::numeric_limits<T>::max()));
  }
  static std::string Format(T v) { return std::to_string(v); }
};
using U16 = Unsigned<std::uint16_t>;
using U32 = Unsigned<std::uint32_t>;
using U64 = Unsigned<std::uint64_t>;

struct Double {
  static constexpr auto Parse = ToDouble;
  static constexpr auto Format = FormatDouble;
};

struct Bool {
  static constexpr auto Parse = ToBool;
  static std::string Format(bool v) { return v ? "true" : "false"; }
};

struct TimeUs {
  static Time Parse(const std::string& key, const std::string& v) {
    return TimeFromScaled(key, v, static_cast<double>(kMicrosecond));
  }
  static constexpr auto Format = FormatTimeUs;
};

struct TimeMs {
  static Time Parse(const std::string& key, const std::string& v) {
    return TimeFromScaled(key, v, static_cast<double>(kMillisecond));
  }
  static std::string Format(Time t) {
    if (t % kMillisecond == 0) return std::to_string(t / kMillisecond);
    return FormatDouble(ToMilliseconds(t));
  }
};

/// A CC mode name. Its values form a closed set (Every), which a sweep
/// axis `= all` expands to.
struct Mode {
  static CcMode Parse(const std::string& key, const std::string& v) {
    CcMode mode;
    if (!ParseCcMode(v, &mode)) {
      Bad(key,
          "unknown CC mode '" + v + "' (known: " + JoinNames(Every()) + ")");
    }
    return mode;
  }
  static std::string Format(CcMode mode) { return CcModeName(mode); }
  static std::vector<std::string> Every() {
    std::vector<std::string> names;
    for (CcMode m : kAllCcModes) names.emplace_back(CcModeName(m));
    return names;
  }
};

/// Elephant entries, "sender@start_us[:stop_us]" each.
struct Flows {
  static std::vector<LongFlow> Parse(const std::string& key,
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
        lf.stop = TimeUs::Parse(key, Trim(rest.substr(colon + 1)));
        rest = Trim(rest.substr(0, colon));
      }
      lf.start = TimeUs::Parse(key, rest);
      flows.push_back(lf);
    }
    if (flows.empty()) Bad(key, "empty flow list");
    return flows;
  }
  static std::string Format(const std::vector<LongFlow>& flows) {
    std::string out;
    for (const LongFlow& lf : flows) {
      if (!out.empty()) out += ',';
      out += std::to_string(lf.sender_index) + '@' + FormatTimeUs(lf.start);
      if (lf.stop != kTimeInfinity) out += ':' + FormatTimeUs(lf.stop);
    }
    return out;
  }
};

/// A lane count, or `auto` (stored as 0) to take the topology's own.
struct Domains {
  static int Parse(const std::string& key, const std::string& v) {
    return v == "auto" ? 0 : ToBoundedInt(key, v);
  }
  static std::string Format(int v) {
    return v == 0 ? "auto" : std::to_string(v);
  }
};

// ------------------------------------------------------------- range rules

/// A range rule on one key's value: the predicate every valid value meets
/// and the message text after the key name when a value does not.
template <typename Pred>
struct Rule {
  Pred ok;
  const char* text;
};
template <typename Pred>
Rule(Pred, const char*) -> Rule<Pred>;

constexpr Rule kAnyValue{[](const auto&) { return true; }, ""};
constexpr Rule kAtLeastOne{[](auto v) { return v >= 1; }, "must be >= 1"};
constexpr Rule kPositive{[](auto v) { return v > 0; }, "must be > 0"};
constexpr Rule kNonNegative{[](auto v) { return v >= 0; }, "must be >= 0"};
constexpr Rule kUnitInterval{[](auto v) { return v > 0 && v <= 1; },
                             "must be in (0, 1]"};

// ------------------------------------------------------------ key dispatch

/// One settable key and everything that knows it: its full dotted name,
/// how value text sets its field (`set`, through the codec) and how the
/// field prints back (`get`), and the range rule on this key alone. Spec
/// files, overrides, sweep points, SpecToText and ValidateSpec all read
/// this table; rules that involve more than one key stay in ValidateSpec.
struct KeyDef {
  const char* key;
  void (*set)(ExperimentSpec& spec, const std::string& key,
              const std::string& value);
  std::string (*get)(const ExperimentSpec& spec);
  /// False when the spec's value breaks the key's range rule; the message
  /// is the key name followed by `rule`.
  bool (*in_range)(const ExperimentSpec& spec);
  const char* rule;
  /// For a key whose values form a closed set: every value, which
  /// `sweep.<axis> = all` expands to and whose points are labelled by the
  /// bare value. nullptr for every other key.
  std::vector<std::string> (*every)() = nullptr;
  /// SpecToText leaves the key out while it holds its default value.
  bool sparse = false;

  constexpr KeyDef Sparse() const {
    KeyDef def = *this;
    def.sparse = true;
    return def;
  }
};

/// The row for `key`: `Field` is a stateless lambda that returns the
/// spec's field, `C` the codec of its type and `rule` its range rule.
template <typename C, typename Field, typename Pred = decltype(kAnyValue.ok)>
constexpr KeyDef Key(const char* key, Field, Rule<Pred> rule = kAnyValue) {
  using T = std::remove_cvref_t<decltype(Field{}(
      std::declval<ExperimentSpec&>()))>;
  static_assert(std::is_same_v<decltype(C::Parse({}, {})), T>,
                "the codec must parse the field's type");
  KeyDef def{
      key,
      [](ExperimentSpec& s, const std::string& k, const std::string& v) {
        Field{}(s) = C::Parse(k, v);
      },
      [](const ExperimentSpec& s) { return C::Format(Field{}(s)); },
      [](const ExperimentSpec& s) { return Pred{}(Field{}(s)); },
      rule.text};
  if constexpr (requires { C::Every(); }) def.every = C::Every;
  return def;
}

// Rows are in SpecToText's order, grouped by section.
// clang-format off
constexpr KeyDef kKeys[] = {
  Key<Text>("name", [](auto& s) -> auto& { return s.name; }),

  Key<Text>("topology.kind", [](auto& s) -> auto& { return s.topology; }),
  Key<Int>("topology.num_senders", [](auto& s) -> auto& { return s.topo.num_senders; }, kAtLeastOne),
  Key<Int>("topology.num_switches", [](auto& s) -> auto& { return s.topo.num_switches; }, kAtLeastOne),
  Key<Int>("topology.merge_switch", [](auto& s) -> auto& { return s.topo.merge_switch; }),
  Key<Int>("topology.k", [](auto& s) -> auto& { return s.topo.k; }, Rule{[](int k) { return k >= 2 && k % 2 == 0; }, "must be even and >= 2"}),
  Key<Int>("topology.leaves", [](auto& s) -> auto& { return s.topo.leaves; }, kAtLeastOne),
  Key<Int>("topology.spines", [](auto& s) -> auto& { return s.topo.spines; }, kAtLeastOne),
  Key<Int>("topology.hosts_per_leaf", [](auto& s) -> auto& { return s.topo.hosts_per_leaf; }, kAtLeastOne),
  Key<Double>("topology.oversubscription", [](auto& s) -> auto& { return s.topo.oversubscription; }, kPositive),
  Key<Int>("topology.rails", [](auto& s) -> auto& { return s.topo.rails; }, kAtLeastOne),

  Key<Text>("workload.kind", [](auto& s) -> auto& { return s.workload; }),
  Key<Double>("workload.load", [](auto& s) -> auto& { return s.wl.load; }, kUnitInterval),
  Key<Int>("workload.num_flows", [](auto& s) -> auto& { return s.wl.num_flows; }, kAtLeastOne),
  Key<U64>("workload.size_bytes", [](auto& s) -> auto& { return s.wl.size_bytes; }),
  Key<Text>("workload.cdf", [](auto& s) -> auto& { return s.cdf; }),
  Key<TimeUs>("workload.start_us", [](auto& s) -> auto& { return s.wl.start_time; }, kNonNegative),
  Key<TimeUs>("workload.stagger_us", [](auto& s) -> auto& { return s.wl.stagger; }, kNonNegative),
  Key<Int>("workload.groups", [](auto& s) -> auto& { return s.wl.groups; }, kAtLeastOne),
  Key<TimeUs>("workload.group_stagger_us", [](auto& s) -> auto& { return s.wl.group_stagger; }, kNonNegative),
  Key<Flows>("workload.flows", [](auto& s) -> auto& { return s.wl.long_flows; }).Sparse(),
  Key<U16>("workload.port_base", [](auto& s) -> auto& { return s.wl.port_base; }),
  Key<Text>("workload.trace_file", [](auto& s) -> auto& { return s.wl.trace_file; }).Sparse(),

  Key<Mode>("scenario.mode", [](auto& s) -> auto& { return s.scenario.mode; }),
  Key<Double>("scenario.link_gbps", [](auto& s) -> auto& { return s.scenario.link_gbps; }, kPositive),
  Key<TimeUs>("scenario.propagation_delay_us", [](auto& s) -> auto& { return s.scenario.propagation_delay; }, kNonNegative),
  Key<U32>("scenario.mtu_bytes", [](auto& s) -> auto& { return s.scenario.mtu_bytes; }, Rule{[](std::uint32_t mtu) { return mtu >= 256; }, "must be >= 256"}),
  Key<Bool>("scenario.pfc", [](auto& s) -> auto& { return s.scenario.pfc_enabled; }),
  Key<U64>("scenario.pfc_xoff_bytes", [](auto& s) -> auto& { return s.scenario.pfc_xoff_bytes; }),
  Key<U64>("scenario.pfc_xon_bytes", [](auto& s) -> auto& { return s.scenario.pfc_xon_bytes; }),
  Key<Int>("scenario.ack_every", [](auto& s) -> auto& { return s.scenario.ack_every; }, kAtLeastOne),
  Key<U64>("scenario.seed", [](auto& s) -> auto& { return s.scenario.seed; }),
  Key<Bool>("scenario.symmetric_ecmp", [](auto& s) -> auto& { return s.scenario.symmetric_ecmp; }),
  Key<U32>("scenario.ecmp_salt", [](auto& s) -> auto& { return s.scenario.ecmp_salt; }),
  Key<TimeUs>("scenario.int_table_refresh_us", [](auto& s) -> auto& { return s.scenario.int_table_refresh; }, kNonNegative),
  Key<Bool>("scenario.quantize_int", [](auto& s) -> auto& { return s.scenario.quantize_int; }),
  Key<Int>("scenario.delivery_batch", [](auto& s) -> auto& { return s.scenario.delivery_batch; }, Rule{[](int b) { return b >= 1 && b <= 64; }, "must be in [1, 64]"}),
  Key<Domains>("scenario.exec_domains", [](auto& s) -> auto& { return s.scenario.exec_domains; }, Rule{[](int d) { return d >= 0 && d <= 64; }, "must be auto or in [1, 64]"}),
  Key<Double>("scenario.eta", [](auto& s) -> auto& { return s.scenario.eta; }, kUnitInterval),
  Key<Int>("scenario.max_stage", [](auto& s) -> auto& { return s.scenario.max_stage; }, kAtLeastOne),
  Key<Double>("scenario.wai_bytes", [](auto& s) -> auto& { return s.scenario.wai_bytes; }, kNonNegative),
  Key<Double>("scenario.lhcs_alpha", [](auto& s) -> auto& { return s.scenario.lhcs_alpha; }, kPositive),
  Key<Double>("scenario.lhcs_beta", [](auto& s) -> auto& { return s.scenario.lhcs_beta; }, kUnitInterval),

  Key<TimeUs>("run.duration_us", [](auto& s) -> auto& { return s.run.duration; }, kNonNegative),
  Key<TimeMs>("run.max_sim_ms", [](auto& s) -> auto& { return s.run.max_sim_time; }, kPositive),
  Key<TimeUs>("run.queue_sample_us", [](auto& s) -> auto& { return s.run.queue_sample_interval; }, kPositive),
  Key<TimeUs>("run.rate_sample_us", [](auto& s) -> auto& { return s.run.rate_sample_interval; }, kPositive),
  Key<TimeUs>("run.util_sample_us", [](auto& s) -> auto& { return s.run.util_sample_interval; }, kPositive),
  Key<Bool>("run.monitor", [](auto& s) -> auto& { return s.run.monitor; }),
  Key<TimeUs>("run.launch_window_us", [](auto& s) -> auto& { return s.run.launch_window; }, kNonNegative).Sparse(),

  Key<Text>("output.dir", [](auto& s) -> auto& { return s.output.dir; }),
  Key<Text>("output.fct_csv", [](auto& s) -> auto& { return s.output.fct_csv; }).Sparse(),
  Key<Text>("output.timeseries_csv", [](auto& s) -> auto& { return s.output.timeseries_csv; }).Sparse(),
  Key<Text>("output.manifest", [](auto& s) -> auto& { return s.output.manifest; }).Sparse(),
  Key<Text>("output.buckets", [](auto& s) -> auto& { return s.output.buckets; }).Sparse(),
  Key<Bool>("output.stream_fct", [](auto& s) -> auto& { return s.output.stream_fct; }).Sparse(),
  Key<Bool>("output.pdes_stats", [](auto& s) -> auto& { return s.output.pdes_stats; }).Sparse(),
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
  if (target.every && value == "all") values = target.every();
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

[[noreturn]] void Invalid(const std::string& what) {
  throw SpecError("spec validation: " + what);
}

void Require(bool ok, const std::string& what) {
  if (!ok) Invalid(what);
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

  // Each key's own range (registry builders re-check; failing here gives
  // the key-level message before any simulator exists).
  for (const KeyDef& def : kKeys) {
    if (!def.in_range(spec)) Invalid(std::string(def.key) + " " + def.rule);
  }

  // Ranges that involve more than one key.
  if (spec.topology == "chain_merge") {
    Require(spec.topo.merge_switch >= 0 &&
                spec.topo.merge_switch < spec.topo.num_switches,
            "topology.merge_switch must be in [0, topology.num_switches)");
  }
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
  Require(spec.scenario.pfc_xon_bytes <= spec.scenario.pfc_xoff_bytes,
          "scenario.pfc_xon_bytes must be <= scenario.pfc_xoff_bytes");
  // >1 domains need a positive cross-domain lookahead window; auto (0) is
  // fine — it resolves to 1 when there is no propagation delay.
  Require(spec.scenario.exec_domains <= 1 ||
              spec.scenario.propagation_delay > 0,
          "scenario.exec_domains > 1 requires scenario.propagation_delay_us "
          "> 0 (the PDES lookahead window)");
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
      const KeyDef& target = *targets[i];
      const std::string& value = axes[i].values[digit[i]];
      target.set(point, "sweep." + axes[i].key, value);
      if (!point.label.empty()) point.label += '-';
      if (!target.every) point.label += LastComponent(target.key);
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
  static const ExperimentSpec kDefaults;
  std::string out;
  std::string_view section;
  for (const KeyDef& def : kKeys) {
    const std::string_view key = def.key;
    const std::size_t dot = key.find('.');
    const std::string_view key_section =
        dot == std::string_view::npos ? "" : key.substr(0, dot);
    if (key_section != section) {
      // The sweep axes go between the point's keys and the outputs.
      if (key_section == "output" && !spec.sweep.empty()) {
        out += "\n[sweep]\n";
        for (const SweepAxis& axis : spec.sweep) {
          out += axis.key + " = ";
          for (std::size_t i = 0; i < axis.values.size(); ++i) {
            out += (i ? "," : "") + axis.values[i];
          }
          out += '\n';
        }
      }
      section = key_section;
      out += "\n[" + std::string(section) + "]\n";
    }
    const std::string value = def.get(spec);
    if (def.sparse && value == def.get(kDefaults)) continue;
    out += key.substr(section.empty() ? 0 : dot + 1);
    out += " = " + value + '\n';
  }
  return out;
}

std::vector<std::string> SpecKeys() {
  std::vector<std::string> keys;
  for (const KeyDef& def : kKeys) keys.emplace_back(def.key);
  return keys;
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
