// Congestion-control modes, the per-flow config, and the state every
// algorithm shares. A sender QP owns one CongestionControl (see
// core/congestion_control.hpp); the algorithm it holds owns the pacing rate
// / window it computes and the QP consults them before each transmission.
#pragma once

#include <cassert>
#include <cstdint>
#include <string>

#include "net/packet.hpp"
#include "sim/simulator.hpp"
#include "sim/time.hpp"

namespace fncc {

enum class CcMode {
  kFncc,        // the paper's contribution (fast notification + LHCS)
  kFnccNoLhcs,  // ablation: fast notification only (Fig. 13)
  kHpcc,        // Li et al., SIGCOMM'19
  kDcqcn,       // Zhu et al., SIGCOMM'15
  kRocc,        // Taheri et al., CoNEXT'20 (switch PI fair rate)
  kTimely,      // Mittal et al., SIGCOMM'15 (RTT gradient; extension)
  kSwift,       // Kumar et al., SIGCOMM'20 (delay target; extension)
};

[[nodiscard]] const char* CcModeName(CcMode mode);

/// Every implemented algorithm, in the canonical comparison order the
/// examples and sweeps use.
inline constexpr CcMode kAllCcModes[] = {
    CcMode::kFncc, CcMode::kFnccNoLhcs, CcMode::kHpcc,  CcMode::kDcqcn,
    CcMode::kRocc, CcMode::kTimely,     CcMode::kSwift,
};

/// Inverse of CcModeName (exact match). Returns false on an unknown name,
/// leaving *mode untouched.
[[nodiscard]] bool ParseCcMode(const std::string& name, CcMode* mode);

struct DcqcnParams {
  double g = 1.0 / 256.0;
  Time alpha_timer = 55 * kMicrosecond;
  Time increase_timer = 55 * kMicrosecond;
  std::uint64_t byte_counter = 10'000'000;
  int fast_recovery_stages = 5;
  /// Additive/hyper increase steps. Scaled linearly with line rate from the
  /// 40/400 Mbps the DCQCN paper recommends at 40 Gbps.
  double rate_ai_fraction = 0.001;   // of line rate
  double rate_hai_fraction = 0.01;   // of line rate
  double min_rate_gbps = 0.1;

  [[nodiscard]] bool operator==(const DcqcnParams&) const = default;
};

struct RoccSenderParams {
  /// With no switch feedback for this long, probe upward additively.
  Time feedback_hold = 100 * kMicrosecond;
  double probe_fraction = 0.01;  // of line rate, per ACK while probing

  [[nodiscard]] bool operator==(const RoccSenderParams&) const = default;
};

struct TimelyParams {
  /// 0 = auto-scale from the flow's base RTT (t_low 1.5x, t_high 5x).
  Time t_low = 0;
  Time t_high = 0;
  Time min_rtt = 0;  // 0 = base RTT
  double addstep_fraction = 0.01;  // of line rate
  double beta = 0.8;
  double alpha_ewma = 0.875;  // RTT-diff EWMA weight on history
  int hai_threshold = 5;
  double min_rate_gbps = 0.1;

  [[nodiscard]] bool operator==(const TimelyParams&) const = default;
};

/// Constants the HPCC-family per-ACK path derives from the plain config
/// fields. Filled by ResolveCcConfig before the flow table interns the
/// config, so every flow of a scenario reads them from the one shared
/// pooled line instead of carrying ~2 cache lines of identical copies in
/// its own per-ACK footprint.
struct HpccDerivedConsts {
  double t_sec = 0.0;            // ToSeconds(base_rtt), the T of Alg. 3
  double wai_bytes = 0.0;        // resolved W_AI (auto rule applied)
  double max_window_bytes = 0.0; // BDP
  double min_window_bytes = 0.0;

  [[nodiscard]] bool operator==(const HpccDerivedConsts&) const = default;
};

/// Fully resolved per-flow configuration (the harness fills line rate and
/// base RTT from the topology before starting each flow). Field-wise
/// equality lets the flow table intern one shared copy per distinct
/// configuration (see FlowTable::InternConfig) instead of keeping ~250
/// bytes of identical constants in every flow's cache footprint.
struct CcConfig {
  CcMode mode = CcMode::kFncc;
  double line_rate_gbps = 100.0;
  Time base_rtt = 0;  // T in Alg. 3; must be set
  std::uint32_t mtu_bytes = kDefaultMtuBytes;

  // HPCC / FNCC (Alg. 3).
  double eta = 0.95;
  int max_stage = 5;
  /// Additive-increase step W_AI in bytes; 0 = auto (BDP * (1-eta) / 4).
  double wai_bytes = 0;
  double min_window_fraction_of_mtu = 0.05;

  // FNCC last-hop congestion speedup (Alg. 2).
  double lhcs_alpha = 1.05;
  double lhcs_beta = 0.9;

  /// Derived per-ACK constants (HPCC family); filled by ResolveCcConfig,
  /// equal whenever the fields above are equal, so interning still pools
  /// flows correctly.
  HpccDerivedConsts hpcc_derived;

  DcqcnParams dcqcn;
  RoccSenderParams rocc;
  TimelyParams timely;

  [[nodiscard]] bool operator==(const CcConfig&) const = default;

  [[nodiscard]] double BdpBytesValue() const {
    return BdpBytes(line_rate_gbps, base_rtt);
  }
};

/// Fills everything the algorithms derive from the plain fields: HPCC's
/// HpccDerivedConsts (HPCC and both FNCC modes) and Timely's auto-scaled
/// RTT thresholds. Idempotent. FlowTable::Register resolves before it
/// interns, so every algorithm reads a config that is already final.
[[nodiscard]] CcConfig ResolveCcConfig(CcConfig config);

/// The two per-flow control words every transmission decision reads and
/// every ACK may write. They normally live *outside* the algorithm object,
/// in the flow table's dense hot-row array (one cache line per flow slot,
/// see transport/hot_flow.hpp); an unbound algorithm falls back to a pair
/// of words it owns. Binding is a pure relocation: values are copied, so
/// results are bit-identical wherever the words live.
struct CcHotWords {
  double rate_gbps = 0.0;
  double window_bytes = 0.0;
};

/// State every algorithm shares: a pacing rate, an optional window and the
/// config. Not polymorphic — CongestionControl (core/congestion_control.hpp)
/// holds the concrete algorithm and dispatches on its CcMode.
///
/// The per-ACK path touches only the first bytes of the object (flags,
/// hot-word pointer, config pointer), so a derived class's own per-ACK
/// scalars share the object's first cache line.
class CcBase {
 public:
  CcBase(const CcBase&) = delete;
  CcBase& operator=(const CcBase&) = delete;

  /// Current pacing rate in Gbps. Always valid.
  [[nodiscard]] double rate_gbps() const { return words_->rate_gbps; }

  /// In-flight byte cap; only meaningful when uses_window() is true.
  [[nodiscard]] double window_bytes() const { return words_->window_bytes; }

  /// Whether the scheme enforces a window (set by the constructor).
  [[nodiscard]] bool uses_window() const { return uses_window_; }

  /// Relocate the hot words into an externally owned slot (the flow
  /// table's SoA row). Copies the current values first, so binding at any
  /// point — before or after the constructor seeded rate/window — is
  /// value-preserving.
  void BindHotWords(CcHotWords* words) {
    *words = *words_;
    words_ = words;
  }

  [[nodiscard]] const CcConfig& config() const { return *config_; }

 protected:
  /// `config` must already be resolved (ResolveCcConfig) and outlive the
  /// algorithm: it is read, never copied. Every algorithm deletes its
  /// constructor overload for an rvalue config, so a temporary cannot bind.
  explicit CcBase(const CcConfig& config) : config_(&config) {
    assert(ResolveCcConfig(config) == config && "config not resolved");
  }
  ~CcBase() = default;

  [[nodiscard]] const CcConfig& cfg() const { return *config_; }

  [[nodiscard]] double& rate_mut() { return words_->rate_gbps; }
  [[nodiscard]] double& window_mut() { return words_->window_bytes; }

  bool uses_window_ = false;  // set once by window-based schemes' ctors

  /// Spare constructor-set flag in the object's first bytes, for a derived
  /// scheme's hottest boolean (FNCC: "LHCS enabled"). Keeps the per-ACK
  /// hook off the object's cold tail lines.
  bool scheme_flag_ = false;

 private:
  CcHotWords* words_ = &own_words_;  // -> flow-table row or own_words_
  const CcConfig* config_;           // -> the flow table's interned copy
  CcHotWords own_words_;             // target until BindHotWords
};

}  // namespace fncc
