#include "core/congestion_control.hpp"

#include <new>

namespace fncc {

CongestionControl::CongestionControl(const CcConfig& config, Simulator* sim,
                                     TimerRoute timers)
    : mode_(config.mode) {
  switch (mode_) {
    case CcMode::kFncc:
    case CcMode::kFnccNoLhcs:
      ::new (&u_.fncc) FnccAlgorithm(config, mode_ == CcMode::kFncc);
      return;
    case CcMode::kHpcc:
      ::new (&u_.hpcc) HpccAlgorithm(config);
      return;
    case CcMode::kDcqcn:
      ::new (&u_.dcqcn) DcqcnAlgorithm(config, sim, timers);
      return;
    case CcMode::kRocc:
      ::new (&u_.rocc) RoccAlgorithm(config, sim);
      return;
    case CcMode::kTimely:
      ::new (&u_.timely) TimelyAlgorithm(config, sim);
      return;
    case CcMode::kSwift:
      ::new (&u_.swift) SwiftAlgorithm(config, sim);
      return;
  }
}

CcBase& CongestionControl::base() {
  switch (mode_) {
    case CcMode::kFncc:
    case CcMode::kFnccNoLhcs:
      break;
    case CcMode::kHpcc:
      return u_.hpcc;
    case CcMode::kDcqcn:
      return u_.dcqcn;
    case CcMode::kRocc:
      return u_.rocc;
    case CcMode::kTimely:
      return u_.timely;
    case CcMode::kSwift:
      return u_.swift;
  }
  return u_.fncc;
}

void ApplySwitchFeatures(CcMode mode, double line_rate_gbps,
                         SwitchConfig& config) {
  config.stamp_data_int = false;
  config.stamp_ack_int = false;
  config.ecn_enabled = false;
  config.rocc_enabled = false;
  switch (mode) {
    case CcMode::kFncc:
    case CcMode::kFnccNoLhcs:
      config.stamp_ack_int = true;
      break;
    case CcMode::kHpcc:
      config.stamp_data_int = true;
      break;
    case CcMode::kDcqcn: {
      config.ecn_enabled = true;
      // K_min/K_max default to 100/400 KB at 100 Gbps; keep the marking
      // latency constant across line rates by scaling with capacity.
      const double scale = line_rate_gbps / 100.0;
      config.ecn_kmin_bytes = static_cast<std::uint64_t>(100'000 * scale);
      config.ecn_kmax_bytes = static_cast<std::uint64_t>(400'000 * scale);
      break;
    }
    case CcMode::kRocc:
      config.rocc_enabled = true;
      break;
    case CcMode::kTimely:
    case CcMode::kSwift:
      break;  // pure end-to-end delay: no switch support needed
  }
}

}  // namespace fncc
