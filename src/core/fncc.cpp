#include "core/fncc.hpp"

#include <algorithm>

namespace fncc {

FnccAlgorithm::FnccAlgorithm(const CcConfig& config, bool enable_lhcs)
    : HpccAlgorithm(config) {
  scheme_flag_ = enable_lhcs;
}

// (UpdateWc shadows the HpccAlgorithm hook; see OnAckImpl<Self> in
// cc/hpcc.hpp for the static dispatch.)

bool FnccAlgorithm::UpdateWc(const Packet& ack, const IntView& view,
                             const std::array<double, kMaxIntHops>& link_u,
                             std::size_t hops) {
  if (!lhcs_enabled() || hops == 0) return false;

  // Alg. 2 lines 3-8: locate the most congested hop.
  double u_max = 0.0;
  std::size_t hop = 0;
  for (std::size_t j = 0; j < hops; ++j) {
    if (link_u[j] > u_max) {
      u_max = link_u[j];
      hop = j;
    }
  }

  // Alg. 2 line 11: react only to genuine last-hop congestion. alpha is
  // slightly above 1 to avoid over-sensitivity to transient state.
  if (hop != view.last_hop_index() || u_max <= cfg().lhcs_alpha) {
    return false;
  }
  const std::uint16_t n = ack.concurrent_flows;
  if (n == 0) return false;  // receiver not reporting N; nothing to do

  // Alg. 2 line 12 / Alg. 3 line 25: W^c <- B * RTT * beta / N, where B is
  // the last hop's bandwidth from its INT entry.
  const double b_bytes_per_sec =
      BytesPerSecond(view.hop(view.last_hop_index()).bandwidth_gbps);
  const double fair =
      b_bytes_per_sec * t_sec() * cfg().lhcs_beta / static_cast<double>(n);
  wc_bytes_ = std::clamp(fair, min_window(), max_window());
  ++lhcs_triggers_;
  return true;
}

}  // namespace fncc
