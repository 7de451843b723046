#include "cc/swift.hpp"

#include <algorithm>

namespace fncc {

SwiftAlgorithm::SwiftAlgorithm(const CcConfig& config, Simulator* sim,
                               SwiftParams params)
    : CcBase(config), sim_(sim), params_(params) {
  target_delay_ = static_cast<Time>(
      static_cast<double>(cfg().base_rtt) * params_.target_rtt_multiple);
  max_window_bytes_ = cfg().BdpBytesValue() * 1.2;
  min_window_bytes_ = params_.min_window_mtus * cfg().mtu_bytes;
  window_mut() = cfg().BdpBytesValue();
  rate_mut() = cfg().line_rate_gbps;
  uses_window_ = true;
}

void SwiftAlgorithm::OnAck(const Packet& ack, std::uint64_t) {
  if (ack.t_sent <= 0) return;  // no timestamp echo
  const Time now = sim_->Now();
  const Time delay = now - ack.t_sent;

  if (delay < target_delay_) {
    // Additive increase, normalized so the window grows ~ai_mtus per RTT
    // regardless of how many ACKs arrive.
    const double ack_fraction =
        static_cast<double>(cfg().mtu_bytes) /
        std::max(window_mut(), static_cast<double>(cfg().mtu_bytes));
    window_mut() += params_.ai_mtus * cfg().mtu_bytes * ack_fraction;
  } else if (now - last_decrease_ >= cfg().base_rtt) {
    // At most one multiplicative decrease per RTT.
    const double overshoot =
        static_cast<double>(delay - target_delay_) /
        static_cast<double>(delay);
    const double factor =
        std::max(1.0 - params_.beta * overshoot, 1.0 - params_.max_mdf);
    window_mut() *= factor;
    last_decrease_ = now;
    ++decreases_;
  }
  window_mut() =
      std::clamp(window_mut(), min_window_bytes_, max_window_bytes_);
  SetRateFromWindow();
}

void SwiftAlgorithm::SetRateFromWindow() {
  rate_mut() = std::min(
      cfg().line_rate_gbps,
      window_mut() * 8.0 / (ToSeconds(cfg().base_rtt) * 1e9));
}

}  // namespace fncc
