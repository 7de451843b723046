#include "cc/dcqcn.hpp"

#include <algorithm>

namespace fncc {

DcqcnAlgorithm::DcqcnAlgorithm(const CcConfig& config, Simulator* sim)
    : CcBase(config), sim_(sim) {
  rate_mut() = cfg().line_rate_gbps;
  rt_gbps_ = cfg().line_rate_gbps;
}

void DcqcnAlgorithm::Start() {
  ArmAlphaTimer();
  ArmIncreaseTimer();
}

DcqcnAlgorithm::~DcqcnAlgorithm() { Shutdown(); }

void DcqcnAlgorithm::Shutdown() {
  if (shut_down_) return;
  shut_down_ = true;
  sim_->Cancel(alpha_event_);
  sim_->Cancel(increase_event_);
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

void DcqcnAlgorithm::AlphaTimerEvent(void* cc, void* /*unused*/,
                                     std::uint64_t /*arg*/) {
  static_cast<DcqcnAlgorithm*>(cc)->OnAlphaTimer();
}

void DcqcnAlgorithm::IncreaseTimerEvent(void* cc, void* /*unused*/,
                                        std::uint64_t /*arg*/) {
  static_cast<DcqcnAlgorithm*>(cc)->OnIncreaseTimer();
}

void DcqcnAlgorithm::ArmAlphaTimer() {
  // Rearm fast path (every CNP restarts this timer): the fused
  // Reschedule reuses the pending event's slot; only after the timer fired
  // (or on first arm) is a fresh typed event scheduled.
  alpha_event_ = sim_->Reschedule(alpha_event_, cfg().dcqcn.alpha_timer);
  if (alpha_event_ == kInvalidEventId) {
    alpha_event_ = sim_->Schedule(
        cfg().dcqcn.alpha_timer,
        TypedEvent{.run = &DcqcnAlgorithm::AlphaTimerEvent,
                   .drop = nullptr,
                   .p0 = this,
                   .p1 = nullptr,
                   .arg = 0});
  }
}

void DcqcnAlgorithm::ArmIncreaseTimer() {
  increase_event_ =
      sim_->Reschedule(increase_event_, cfg().dcqcn.increase_timer);
  if (increase_event_ == kInvalidEventId) {
    increase_event_ = sim_->Schedule(
        cfg().dcqcn.increase_timer,
        TypedEvent{.run = &DcqcnAlgorithm::IncreaseTimerEvent,
                   .drop = nullptr,
                   .p0 = this,
                   .p1 = nullptr,
                   .arg = 0});
  }
}

void DcqcnAlgorithm::OnAlphaTimer() {
  // No CNP for a full interval: decay the congestion estimate.
  alpha_ = (1.0 - cfg().dcqcn.g) * alpha_;
  alpha_event_ = kInvalidEventId;
  ArmAlphaTimer();
}

void DcqcnAlgorithm::OnIncreaseTimer() {
  ++t_stage_;
  increase_event_ = kInvalidEventId;
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
