// RoCC sender (Taheri et al., CoNEXT'20). The heavy lifting happens in the
// switch PI controller (SwitchConfig::rocc_enabled); the sender simply
// adopts the minimum advertised fair rate and probes upward when feedback
// goes quiet.
#pragma once

#include "cc/cc_algorithm.hpp"

namespace fncc {

class RoccAlgorithm final : public CcBase {
 public:
  RoccAlgorithm(const CcConfig& config, Simulator* sim)
      : CcBase(config), sim_(sim) {
    rate_mut() = cfg().line_rate_gbps;
  }
  RoccAlgorithm(const CcConfig&& config, Simulator* sim) = delete;

  void OnAck(const Packet& ack, std::uint64_t snd_nxt);

 private:
  Simulator* sim_;
  // "Long ago" but safe to subtract from Now() without overflow.
  Time last_feedback_ = -kSecond;
};

}  // namespace fncc
