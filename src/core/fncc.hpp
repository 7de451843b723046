// FNCC reaction-point algorithm: HPCC's window control fed by return-path
// INT, plus the Last-Hop Congestion Speedup of Alg. 2.
//
// The "fast notification" half of FNCC lives in the switch (Alg. 1 — see
// Switch with SwitchConfig::stamp_ack_int): INT is inserted into ACKs on the
// return path instead of into data packets, so this sender sees telemetry
// that is fresher by up to one RTT. This class adds the sender-side half:
// when the most congested hop is the last hop and U exceeds alpha, the
// reference window jumps straight to the fair share B*RTT*beta/N using the
// concurrent-flow count N the receiver writes into every ACK.
#pragma once

#include "cc/hpcc.hpp"

namespace fncc {

class FnccAlgorithm final : public HpccAlgorithm {
 public:
  /// `enable_lhcs` = false gives the "FNCC without LHCS" ablation of
  /// Fig. 13 (fast notification only).
  explicit FnccAlgorithm(const CcConfig& config, bool enable_lhcs = true);
  explicit FnccAlgorithm(const CcConfig&& config, bool enable_lhcs = true) =
      delete;

  /// Statically binds the LHCS UpdateWc hook below.
  void OnAck(const Packet& ack, std::uint64_t snd_nxt) {
    OnAckImpl<FnccAlgorithm>(ack, snd_nxt);
  }

  /// Stored in the base's first-line spare flag (scheme_flag_): the only
  /// per-flow LHCS state the per-ACK hook reads, so UpdateWc never touches
  /// this object's tail lines unless it actually triggers.
  [[nodiscard]] bool lhcs_enabled() const { return scheme_flag_; }
  /// Number of times LHCS snapped the window to the fair share.
  [[nodiscard]] std::uint64_t lhcs_triggers() const { return lhcs_triggers_; }

  /// Alg. 2: hop detection + fair-share jump. Shadows the HpccAlgorithm
  /// hook; selected statically by OnAckImpl<FnccAlgorithm>.
  bool UpdateWc(const Packet& ack, const IntView& view,
                const std::array<double, kMaxIntHops>& link_u,
                std::size_t hops);

 private:
  // Touched only when LHCS fires (rare), so cold-tail placement is fine.
  // alpha/beta are read from the shared interned config (cfg()).
  std::uint64_t lhcs_triggers_ = 0;
};

}  // namespace fncc
