// DCQCN (Zhu et al., SIGCOMM'15): ECN-marking switches, per-flow CNPs from
// the receiver, and the sender-side rate state machine implemented here
// (rate decrease on CNP, alpha decay, fast recovery / additive / hyper
// increase driven by a timer and a byte counter).
#pragma once

#include <cstdint>

#include "cc/cc_algorithm.hpp"
#include "sim/lazy_timer.hpp"

namespace fncc {

class DcqcnAlgorithm final : public CcBase {
 public:
  /// Called after every rate increase so a pacing-blocked QP can re-arm
  /// earlier. A plain function pointer plus context: nothing allocated.
  using UpdateHook = void (*)(void* ctx);

  /// The two periodic timers (sim/lazy_timer.hpp).
  enum class Timer : std::uint32_t { kAlpha, kIncrease };

  /// Timer `which` files `timers.Carrier(which)`. The route's `run`
  /// resolves the key back to this algorithm and calls OnTimer(which), or
  /// drops the carrier when the key no longer resolves; the carrier never
  /// holds `this`. Throws std::invalid_argument on a route with no `run`.
  DcqcnAlgorithm(const CcConfig& config, Simulator* sim, TimerRoute timers);
  DcqcnAlgorithm(const CcConfig&& config, Simulator* sim,
                 TimerRoute timers) = delete;

  void OnCnp();
  void OnBytesSent(std::uint64_t bytes);

  void BindUpdateHook(UpdateHook hook, void* ctx) {
    on_update_ = hook;
    update_ctx_ = ctx;
  }

  /// A carrier of timer `which` popped: the timer expires, re-files
  /// itself or does nothing (see LazyTimer::Expired).
  void OnTimer(Timer which);

  [[nodiscard]] double alpha() const { return alpha_; }
  [[nodiscard]] double target_rate_gbps() const { return rt_gbps_; }
  [[nodiscard]] int timer_stage() const { return t_stage_; }
  [[nodiscard]] int byte_stage() const { return b_stage_; }

  /// Arms the periodic alpha-decay and rate-increase timers (flow
  /// started). Their phase is the flow's start, not its construction.
  void Start();

  /// Stops the periodic timers (flow finished).
  void Shutdown();

 private:
  [[nodiscard]] TypedEvent Carrier(Timer which) const {
    return timers_.Carrier(static_cast<std::uint32_t>(which));
  }
  void ArmAlphaTimer();
  void ArmIncreaseTimer();
  void OnAlphaTimer();
  void OnIncreaseTimer();
  void IncreaseEvent();

  Simulator* sim_;
  double rt_gbps_;      // target rate R_T
  double alpha_ = 1.0;  // congestion estimate
  std::uint64_t bytes_acc_ = 0;
  int t_stage_ = 0;
  int b_stage_ = 0;
  LazyTimer alpha_timer_;
  LazyTimer increase_timer_;
  bool shut_down_ = false;
  UpdateHook on_update_ = nullptr;
  void* update_ctx_ = nullptr;
  TimerRoute timers_;
};

}  // namespace fncc
