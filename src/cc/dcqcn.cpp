#include "cc/dcqcn.hpp"

#include <algorithm>
#include <stdexcept>

namespace fncc {

DcqcnAlgorithm::DcqcnAlgorithm(const CcConfig& config, Simulator* sim,
                               TimerRoute timers)
    : CcBase(config), sim_(sim), timers_(timers) {
  if (timers_.run == nullptr) {
    throw std::invalid_argument("DCQCN needs a route for its timer carriers");
  }
  rate_mut() = cfg().line_rate_gbps;
  rt_gbps_ = cfg().line_rate_gbps;
}

void DcqcnAlgorithm::Start() {
  ArmAlphaTimer();
  ArmIncreaseTimer();
}

void DcqcnAlgorithm::Shutdown() {
  shut_down_ = true;
  alpha_timer_.Disarm();
  increase_timer_.Disarm();
}

void DcqcnAlgorithm::OnCnp() {
  // Rate decrease (RP reaction to congestion notification).
  rt_gbps_ = rate_mut();
  rate_mut() = std::max(cfg().dcqcn.min_rate_gbps,
                        rate_mut() * (1.0 - alpha_ / 2.0));
  alpha_ = (1.0 - cfg().dcqcn.g) * alpha_ + cfg().dcqcn.g;

  // Restart the increase machinery from fast recovery.
  t_stage_ = 0;
  b_stage_ = 0;
  bytes_acc_ = 0;
  ArmAlphaTimer();
  ArmIncreaseTimer();
}

void DcqcnAlgorithm::OnBytesSent(std::uint64_t bytes) {
  if (shut_down_) return;
  bytes_acc_ += bytes;
  while (bytes_acc_ >= cfg().dcqcn.byte_counter) {
    bytes_acc_ -= cfg().dcqcn.byte_counter;
    ++b_stage_;
    IncreaseEvent();
  }
}

void DcqcnAlgorithm::OnTimer(Timer which) {
  LazyTimer& timer = which == Timer::kAlpha ? alpha_timer_ : increase_timer_;
  if (!timer.Expired(*sim_, Carrier(which))) return;
  if (which == Timer::kAlpha) {
    OnAlphaTimer();
  } else {
    OnIncreaseTimer();
  }
}

void DcqcnAlgorithm::ArmAlphaTimer() {
  // Every CNP restarts this timer: the re-arm only moves the deadline (see
  // sim/lazy_timer.hpp).
  alpha_timer_.Arm(*sim_, sim_->Now() + cfg().dcqcn.alpha_timer,
                   Carrier(Timer::kAlpha));
}

void DcqcnAlgorithm::ArmIncreaseTimer() {
  increase_timer_.Arm(*sim_, sim_->Now() + cfg().dcqcn.increase_timer,
                      Carrier(Timer::kIncrease));
}

void DcqcnAlgorithm::OnAlphaTimer() {
  // No CNP for a full interval: decay the congestion estimate.
  alpha_ = (1.0 - cfg().dcqcn.g) * alpha_;
  ArmAlphaTimer();
}

void DcqcnAlgorithm::OnIncreaseTimer() {
  ++t_stage_;
  IncreaseEvent();
  ArmIncreaseTimer();
}

void DcqcnAlgorithm::IncreaseEvent() {
  const int f = cfg().dcqcn.fast_recovery_stages;
  const double line = cfg().line_rate_gbps;
  if (t_stage_ < f && b_stage_ < f) {
    // Fast recovery: halve the gap to the target rate.
  } else if (t_stage_ >= f && b_stage_ >= f) {
    // Hyper increase.
    rt_gbps_ = std::min(line, rt_gbps_ + line * cfg().dcqcn.rate_hai_fraction);
  } else {
    // Additive increase.
    rt_gbps_ = std::min(line, rt_gbps_ + line * cfg().dcqcn.rate_ai_fraction);
  }
  rate_mut() = std::min(line, (rate_mut() + rt_gbps_) / 2.0);
  if (on_update_ != nullptr) on_update_(update_ctx_);
}

}  // namespace fncc
