// CongestionControl: one flow's congestion control — the CcMode tag plus
// the concrete algorithm, stored inline in a tagged union.
//
// CcMode lists every scheme the simulator runs, so the set is closed when
// the config is built: every entry point is a switch over the tag calling
// the concrete class directly. Nothing is polymorphic and constructing a
// flow's CC allocates nothing. This lives in core/ (not cc/) because FNCC —
// the paper's contribution — is one of the stored types.
#pragma once

#include <cstdint>
#include <type_traits>

#include "cc/cc_algorithm.hpp"
#include "cc/dcqcn.hpp"
#include "cc/hpcc.hpp"
#include "cc/rocc.hpp"
#include "cc/swift.hpp"
#include "cc/timely.hpp"
#include "core/fncc.hpp"
#include "net/switch.hpp"

namespace fncc {

class CongestionControl {
 public:
  /// Constructs the algorithm for `config.mode`. `config` must be resolved
  /// (ResolveCcConfig) and outlive this object; FlowTable passes its
  /// interned copy. `timers` routes DCQCN's timer carriers (see
  /// DcqcnAlgorithm); the other modes have no timers and ignore it.
  CongestionControl(const CcConfig& config, Simulator* sim,
                    TimerRoute timers);
  CongestionControl(const CcConfig&& config, Simulator* sim,
                    TimerRoute timers) = delete;
  CongestionControl(const CongestionControl&) = delete;
  CongestionControl& operator=(const CongestionControl&) = delete;

  [[nodiscard]] CcMode mode() const { return mode_; }

  /// Called for every (cumulative) ACK. `snd_nxt` is the sender's next new
  /// sequence number, used by HPCC's per-RTT reference-window bookkeeping.
  void OnAck(const Packet& ack, std::uint64_t snd_nxt) {
    switch (mode_) {
      case CcMode::kFncc:
      case CcMode::kFnccNoLhcs:
        u_.fncc.OnAck(ack, snd_nxt);
        return;
      case CcMode::kHpcc:
        u_.hpcc.OnAck(ack, snd_nxt);
        return;
      case CcMode::kDcqcn:
        return;  // DCQCN reacts to CNPs and timers only
      case CcMode::kRocc:
        u_.rocc.OnAck(ack, snd_nxt);
        return;
      case CcMode::kTimely:
        u_.timely.OnAck(ack, snd_nxt);
        return;
      case CcMode::kSwift:
        u_.swift.OnAck(ack, snd_nxt);
        return;
    }
  }

  // DCQCN is the only scheme with CNPs, a sent-byte counter or timers to
  // start and stop; every other mode ignores these four.

  /// Flow started: arm any self-rescheduling timers.
  void Start() {
    if (mode_ == CcMode::kDcqcn) u_.dcqcn.Start();
  }

  /// DCQCN congestion notification packet.
  void OnCnp() {
    if (mode_ == CcMode::kDcqcn) u_.dcqcn.OnCnp();
  }

  /// Bytes handed to the NIC (drives DCQCN's byte counter). Once per
  /// transmitted packet.
  void OnBytesSent(std::uint64_t bytes) {
    if (mode_ == CcMode::kDcqcn) u_.dcqcn.OnBytesSent(bytes);
  }

  /// Flow finished: disarm any self-rescheduling timers.
  void Shutdown() {
    if (mode_ == CcMode::kDcqcn) u_.dcqcn.Shutdown();
  }

  /// A carrier of DCQCN timer `which` popped (DcqcnAlgorithm::OnTimer).
  void OnTimer(std::uint32_t which) {
    if (mode_ == CcMode::kDcqcn) {
      u_.dcqcn.OnTimer(static_cast<DcqcnAlgorithm::Timer>(which));
    }
  }

  /// The DCQCN state (alpha, stages, target rate); null for other modes.
  [[nodiscard]] const DcqcnAlgorithm* dcqcn() const {
    return mode_ == CcMode::kDcqcn ? &u_.dcqcn : nullptr;
  }

  /// Times FNCC's Last-Hop Congestion Speedup fired; 0 for every other mode.
  [[nodiscard]] std::uint64_t lhcs_triggers() const {
    return mode_ == CcMode::kFncc ? u_.fncc.lhcs_triggers() : 0;
  }

  /// Called after DCQCN's rate increases (the only asynchronous ones), so a
  /// pacing-blocked QP can re-arm earlier. A no-op for other modes.
  void BindUpdateHook(DcqcnAlgorithm::UpdateHook hook, void* ctx) {
    if (mode_ == CcMode::kDcqcn) u_.dcqcn.BindUpdateHook(hook, ctx);
  }

  // The state every algorithm shares (see CcBase).
  [[nodiscard]] double rate_gbps() const { return base().rate_gbps(); }
  [[nodiscard]] double window_bytes() const { return base().window_bytes(); }
  [[nodiscard]] bool uses_window() const { return base().uses_window(); }
  [[nodiscard]] const CcConfig& config() const { return base().config(); }
  void BindHotWords(CcHotWords* words) { base().BindHotWords(words); }

 private:
  [[nodiscard]] CcBase& base();
  [[nodiscard]] const CcBase& base() const {
    return const_cast<CongestionControl*>(this)->base();
  }

  // Every member is trivially destructible (asserted below), so the union
  // needs no destructor call.
  union Storage {
    Storage() {}
    FnccAlgorithm fncc;
    HpccAlgorithm hpcc;
    DcqcnAlgorithm dcqcn;
    RoccAlgorithm rocc;
    TimelyAlgorithm timely;
    SwiftAlgorithm swift;
  };

  CcMode mode_;
  Storage u_;
};

static_assert(!std::is_polymorphic_v<CongestionControl> &&
              !std::is_polymorphic_v<FnccAlgorithm> &&
              !std::is_polymorphic_v<HpccAlgorithm> &&
              !std::is_polymorphic_v<DcqcnAlgorithm> &&
              !std::is_polymorphic_v<RoccAlgorithm> &&
              !std::is_polymorphic_v<TimelyAlgorithm> &&
              !std::is_polymorphic_v<SwiftAlgorithm>);
static_assert(std::is_trivially_destructible_v<FnccAlgorithm> &&
              std::is_trivially_destructible_v<HpccAlgorithm> &&
              std::is_trivially_destructible_v<DcqcnAlgorithm> &&
              std::is_trivially_destructible_v<RoccAlgorithm> &&
              std::is_trivially_destructible_v<TimelyAlgorithm> &&
              std::is_trivially_destructible_v<SwiftAlgorithm>);

/// Applies the switch-side features a CC mode relies on: INT stamping of
/// data packets (HPCC), INT stamping of ACKs (FNCC, Alg. 1), ECN marking
/// (DCQCN), or the PI fair-rate controller (RoCC). ECN thresholds scale
/// linearly with the given line rate from their 100 Gbps defaults.
void ApplySwitchFeatures(CcMode mode, double line_rate_gbps,
                         SwitchConfig& config);

}  // namespace fncc
