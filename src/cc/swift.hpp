// Swift (Kumar et al., SIGCOMM'20): delay-target congestion control.
// Window-based AIMD against an end-to-end RTT target, with at most one
// multiplicative decrease per RTT. Included as an additional end-to-end
// baseline the paper cites among the schemes with delayed congestion
// reaction; simplified to the fabric-delay path (no host-side NIC delay
// split).
#pragma once

#include "cc/cc_algorithm.hpp"

namespace fncc {

struct SwiftParams {
  /// Target delay as a multiple of the flow's base RTT.
  double target_rtt_multiple = 1.25;
  /// Additive increase per RTT, in MTUs.
  double ai_mtus = 1.0;
  double beta = 0.8;      // multiplicative-decrease gain
  double max_mdf = 0.5;   // largest single decrease factor
  double min_window_mtus = 0.1;
};

class SwiftAlgorithm final : public CcBase {
 public:
  SwiftAlgorithm(const CcConfig& config, Simulator* sim,
                 SwiftParams params = {});
  SwiftAlgorithm(const CcConfig&& config, Simulator* sim,
                 SwiftParams params = {}) = delete;

  void OnAck(const Packet& ack, std::uint64_t snd_nxt);

  [[nodiscard]] Time target_delay() const { return target_delay_; }
  [[nodiscard]] std::uint64_t decreases() const { return decreases_; }

 private:
  void SetRateFromWindow();

  Simulator* sim_;
  SwiftParams params_;
  Time target_delay_ = 0;
  Time last_decrease_ = -kSecond;
  double max_window_bytes_ = 0.0;
  double min_window_bytes_ = 0.0;
  std::uint64_t decreases_ = 0;
};

}  // namespace fncc
