#include "cc/cc_algorithm.hpp"

namespace fncc {

const char* CcModeName(CcMode mode) {
  switch (mode) {
    case CcMode::kFncc:
      return "FNCC";
    case CcMode::kFnccNoLhcs:
      return "FNCC-noLHCS";
    case CcMode::kHpcc:
      return "HPCC";
    case CcMode::kDcqcn:
      return "DCQCN";
    case CcMode::kRocc:
      return "RoCC";
    case CcMode::kTimely:
      return "Timely";
    case CcMode::kSwift:
      return "Swift";
  }
  return "?";
}

CcConfig ResolveCcConfig(CcConfig config) {
  assert(config.base_rtt > 0 && "base_rtt must be resolved per flow");
  switch (config.mode) {
    case CcMode::kFncc:
    case CcMode::kFnccNoLhcs:
    case CcMode::kHpcc: {
      const double bdp = config.BdpBytesValue();
      HpccDerivedConsts& d = config.hpcc_derived;
      d.t_sec = ToSeconds(config.base_rtt);
      d.max_window_bytes = bdp;
      d.min_window_bytes =
          config.min_window_fraction_of_mtu * config.mtu_bytes;
      d.wai_bytes = config.wai_bytes > 0
                        ? config.wai_bytes
                        : bdp * (1.0 - config.eta) / 4.0;
      break;
    }
    case CcMode::kTimely: {
      TimelyParams& p = config.timely;
      if (p.min_rtt == 0) p.min_rtt = config.base_rtt;
      if (p.t_low == 0) p.t_low = config.base_rtt * 3 / 2;
      if (p.t_high == 0) p.t_high = config.base_rtt * 5;
      break;
    }
    case CcMode::kDcqcn:
    case CcMode::kRocc:
    case CcMode::kSwift:
      break;  // nothing derived ahead of time
  }
  return config;
}

bool ParseCcMode(const std::string& name, CcMode* mode) {
  for (CcMode m : kAllCcModes) {
    if (name == CcModeName(m)) {
      *mode = m;
      return true;
    }
  }
  return false;
}

}  // namespace fncc
