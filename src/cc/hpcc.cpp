#include "cc/hpcc.hpp"

#include <algorithm>
#include <cmath>

namespace fncc {

HpccAlgorithm::HpccAlgorithm(const CcConfig& config) : CcBase(config) {
  // W_init = B * T: start at line rate, as HPCC does.
  const double bdp = cfg().hpcc_derived.max_window_bytes;
  window_mut() = bdp;
  wc_bytes_ = bdp;
  rate_mut() = cfg().line_rate_gbps;
  uses_window_ = true;
}

double HpccAlgorithm::MeasureInFlight(
    const IntView& view, std::array<double, kMaxIntHops>& link_u) {
  const double t_sec = cfg().hpcc_derived.t_sec;
  const Time base_rtt = cfg().base_rtt;
  double u_max = 0.0;
  Time tau = base_rtt;

  for (std::size_t i = 0; i < view.hops(); ++i) {
    const IntEntry& cur = view.hop(i);
    const IntEntry& prev = prev_l_[i];
    const Time dt = cur.ts - prev.ts;
    const double bps = BytesPerSecond(cur.bandwidth_gbps);
    const double qterm =
        static_cast<double>(dt > 0 ? std::min(cur.qlen_bytes, prev.qlen_bytes)
                                   : cur.qlen_bytes) /
        (bps * t_sec);
    if (dt > 0) {
      // Instantaneous per-link u' drives Alg. 3's global U (then EWMA'd).
      const double tx_rate =
          static_cast<double>(cur.tx_bytes - prev.tx_bytes) / ToSeconds(dt);
      const double u = qterm + tx_rate / bps;
      if (u > u_max) {
        u_max = u;
        tau = dt;
      }
      // The rate term over one-packet ACK windows flips between 0 and ~2x
      // line rate; smooth it (same tau/T filter as the global U) so LHCS
      // hop detection sees a stable signal. The queue term is already
      // stable and must stay instantaneous for sub-RTT reaction.
      const double fl = ToSeconds(std::min(dt, base_rtt)) / t_sec;
      link_rate_ewma_[i] =
          (1.0 - fl) * link_rate_ewma_[i] + fl * (tx_rate / bps);
    }
    link_u[i] = qterm + link_rate_ewma_[i];
  }

  tau = std::min(tau, base_rtt);
  const double f = ToSeconds(tau) / t_sec;
  u_ewma_ = (1.0 - f) * u_ewma_ + f * u_max;
  return u_ewma_;
}

void HpccAlgorithm::SetRateFromWindow() {
  // R = W / T (Alg. 3 line 47), capped at line rate.
  rate_mut() = std::min(cfg().line_rate_gbps,
                        window_bytes() * 8.0 / (cfg().hpcc_derived.t_sec * 1e9));
}

}  // namespace fncc
