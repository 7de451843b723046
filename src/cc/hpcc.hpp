// HPCC (Li et al., SIGCOMM'19) sender algorithm, following Alg. 3 of the
// FNCC paper (which is HPCC's reaction point plus the FNCC hooks). FNCC
// derives from this class and shadows the reference-window hook.
//
// OnAckImpl<Self> resolves the UpdateWc hook statically (Self =
// HpccAlgorithm or the final FnccAlgorithm), so an ACK makes no indirect
// calls.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>

#include "cc/cc_algorithm.hpp"
#include "cc/int_view.hpp"

namespace fncc {

class HpccAlgorithm : public CcBase {
 public:
  explicit HpccAlgorithm(const CcConfig& config);
  explicit HpccAlgorithm(const CcConfig&& config) = delete;

  void OnAck(const Packet& ack, std::uint64_t snd_nxt) {
    OnAckImpl<HpccAlgorithm>(ack, snd_nxt);
  }

  /// Normalized in-flight estimate U (EWMA), exposed for tests.
  [[nodiscard]] double utilization_estimate() const { return u_ewma_; }
  [[nodiscard]] double reference_window() const { return wc_bytes_; }

  /// FNCC's LHCS hook (Alg. 3 line 30 calls UpdateWc before the window
  /// computation). `view` is this ACK's INT in request-path order and
  /// `link_u` holds per-hop U_j with an instantaneous queue term plus an
  /// EWMA-filtered rate term (per-packet ACKs make the raw tx-rate term
  /// 0-or-2x noisy). Returns true when the reference window was snapped to
  /// the fair share — the window then adopts it directly ("directly set to
  /// the final convergence value", §3.2.2) instead of the MI/AI branches.
  /// FnccAlgorithm shadows it and OnAckImpl<Self> selects the shadow
  /// statically.
  bool UpdateWc(const Packet& /*ack*/, const IntView& /*view*/,
                const std::array<double, kMaxIntHops>& /*link_u*/,
                std::size_t /*hops*/) {
    return false;
  }

 protected:
  /// Alg. 3 OnAck body, shared by HPCC and FNCC; `Self` statically selects
  /// the UpdateWc hook.
  template <class Self>
  void OnAckImpl(const Packet& ack, std::uint64_t snd_nxt);

  /// Alg. 3 ComputeWind; updates the window (and wc on per-RTT ACKs).
  template <class Self>
  void ComputeWind(double u, bool update_wc, const Packet& ack,
                   const IntView& view,
                   const std::array<double, kMaxIntHops>& link_u);

  /// Alg. 3 MeasureInFlight. Returns the EWMA-filtered U and fills
  /// `link_u` with this ACK's per-hop instantaneous values.
  double MeasureInFlight(const IntView& view,
                         std::array<double, kMaxIntHops>& link_u);

  // Derived constants live in the interned config (one copy per scenario,
  // L1-resident for every flow), not in per-flow members: see
  // CcConfig::hpcc_derived.
  [[nodiscard]] double wai_bytes() const { return cfg().hpcc_derived.wai_bytes; }
  [[nodiscard]] double max_window() const {
    return cfg().hpcc_derived.max_window_bytes;
  }
  [[nodiscard]] double min_window() const {
    return cfg().hpcc_derived.min_window_bytes;
  }
  [[nodiscard]] double t_sec() const { return cfg().hpcc_derived.t_sec; }

  // Hot per-ACK scalars first: with the slim CcBase (flag bytes, the
  // hot-word/config pointers and the fallback words) everything down to
  // prev_hops_ shares the object's first cache line.
  double wc_bytes_ = 0.0;  // reference window W^c

 private:
  void SetRateFromWindow();

  double u_ewma_ = 0.0;
  int inc_stage_ = 0;
  std::uint8_t prev_hops_ = 0;  // <= kMaxIntHops, so a byte suffices
  bool have_prev_ = false;
  std::uint64_t last_update_seq_ = 0;

  // Per-link EWMA of the normalized tx rate (the rate half of Alg. 3's
  // U[] array, noise-filtered; the queue half stays instantaneous).
  std::array<double, kMaxIntHops> link_rate_ewma_{};
  // Previous INT per request-path hop (the L array of Alg. 3). Last: the
  // coldest of the per-ACK state (bulk-copied once per ACK, never seeked
  // into), so it cannot push the scalars above off the leading lines.
  std::array<IntEntry, kMaxIntHops> prev_l_{};
};

template <class Self>
void HpccAlgorithm::ComputeWind(double u, bool update_wc, const Packet& ack,
                                const IntView& view,
                                const std::array<double, kMaxIntHops>& link_u) {
  // FNCC LHCS hook; no-op in HPCC. A trigger pins the window to the fair
  // share for this ACK, bypassing the multiplicative branch (which would
  // divide the just-set fair share by the still-high U).
  if (static_cast<Self*>(this)->Self::UpdateWc(ack, view, link_u,
                                               view.hops())) {
    window_mut() = wc_bytes_;
    if (update_wc) inc_stage_ = 0;
    SetRateFromWindow();
    return;
  }

  const double eta = cfg().eta;
  const double wai = wai_bytes();
  const double min_w = min_window();
  const double max_w = max_window();
  double w = 0.0;
  if (u >= eta || inc_stage_ >= cfg().max_stage) {
    // Multiplicative adjustment toward eta plus additive increase.
    w = wc_bytes_ / (u / eta) + wai;
    if (update_wc) {
      inc_stage_ = 0;
      wc_bytes_ = std::clamp(w, min_w, max_w);
    }
  } else {
    w = wc_bytes_ + wai;
    if (update_wc) {
      ++inc_stage_;
      wc_bytes_ = std::clamp(w, min_w, max_w);
    }
  }
  window_mut() = std::clamp(w, min_w, max_w);
  SetRateFromWindow();
}

template <class Self>
void HpccAlgorithm::OnAckImpl(const Packet& ack, std::uint64_t snd_nxt) {
  const IntView view(ack);
  if (view.empty()) return;  // no telemetry yet

  if (!have_prev_ || prev_hops_ != view.hops()) {
    // First sample (or path change): just record L.
    for (std::size_t i = 0; i < view.hops(); ++i) prev_l_[i] = view.hop(i);
    prev_hops_ = static_cast<std::uint8_t>(view.hops());
    have_prev_ = true;
    return;
  }

  std::array<double, kMaxIntHops> link_u{};
  const double u = MeasureInFlight(view, link_u);

  // Per-RTT vs per-ACK: only the first ACK covering data sent with the
  // current W^c commits the reference window (Alg. 3 lines 41-46).
  const bool update_wc = ack.seq > last_update_seq_;
  ComputeWind<Self>(u, update_wc, ack, view, link_u);
  if (update_wc) last_update_seq_ = snd_nxt;

  for (std::size_t i = 0; i < view.hops(); ++i) prev_l_[i] = view.hop(i);
  prev_hops_ = static_cast<std::uint8_t>(view.hops());
}

}  // namespace fncc
