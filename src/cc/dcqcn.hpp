// DCQCN (Zhu et al., SIGCOMM'15): ECN-marking switches, per-flow CNPs from
// the receiver, and the sender-side rate state machine implemented here
// (rate decrease on CNP, alpha decay, fast recovery / additive / hyper
// increase driven by a timer and a byte counter).
#pragma once

#include <cstdint>

#include "cc/cc_algorithm.hpp"

namespace fncc {

class DcqcnAlgorithm final : public CcBase {
 public:
  /// Called after every rate increase so a pacing-blocked QP can re-arm
  /// earlier. A plain function pointer plus context: nothing allocated.
  using UpdateHook = void (*)(void* ctx);

  DcqcnAlgorithm(const CcConfig& config, Simulator* sim);
  DcqcnAlgorithm(const CcConfig&& config, Simulator* sim) = delete;
  ~DcqcnAlgorithm();

  void OnCnp();
  void OnBytesSent(std::uint64_t bytes);

  void BindUpdateHook(UpdateHook hook, void* ctx) {
    on_update_ = hook;
    update_ctx_ = ctx;
  }

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
  // TypedEvent trampolines: the periodic timers fire closure-free.
  static void AlphaTimerEvent(void* cc, void* unused, std::uint64_t arg);
  static void IncreaseTimerEvent(void* cc, void* unused, std::uint64_t arg);

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
  EventId alpha_event_ = kInvalidEventId;
  EventId increase_event_ = kInvalidEventId;
  bool shut_down_ = false;
  UpdateHook on_update_ = nullptr;
  void* update_ctx_ = nullptr;
};

}  // namespace fncc
