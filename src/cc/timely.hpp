// Timely (Mittal et al., SIGCOMM'15): RTT-gradient rate control. Included
// as an extra end-to-end baseline (the paper cites it among the schemes
// FNCC improves on); not part of the headline figures.
#pragma once

#include "cc/cc_algorithm.hpp"

namespace fncc {

class TimelyAlgorithm final : public CcBase {
 public:
  /// The auto-scaled thresholds (TimelyParams zeros) are already filled in
  /// by ResolveCcConfig.
  TimelyAlgorithm(const CcConfig& config, Simulator* sim)
      : CcBase(config), sim_(sim) {
    rate_mut() = cfg().line_rate_gbps;
  }
  TimelyAlgorithm(const CcConfig&& config, Simulator* sim) = delete;

  void OnAck(const Packet& ack, std::uint64_t snd_nxt);

  [[nodiscard]] double normalized_gradient() const { return gradient_; }

 private:
  Simulator* sim_;
  Time prev_rtt_ = 0;
  double rtt_diff_us_ = 0.0;
  double gradient_ = 0.0;
  int completed_in_low_ = 0;  // consecutive gradient<=0 ACKs, for HAI
};

}  // namespace fncc
