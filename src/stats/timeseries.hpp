// Time-series capture: the raw material of every figure in the paper.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "sim/simulator.hpp"
#include "sim/time.hpp"

namespace fncc {

/// An ordered (time, value) series with the summary reductions the tests
/// and benches need.
class TimeSeries {
 public:
  struct Sample {
    Time t;
    double value;
  };

  void Add(Time t, double value) { samples_.push_back({t, value}); }

  [[nodiscard]] const std::vector<Sample>& samples() const {
    return samples_;
  }
  [[nodiscard]] bool empty() const { return samples_.empty(); }
  [[nodiscard]] std::size_t size() const { return samples_.size(); }

  [[nodiscard]] double Max() const;
  /// Mean restricted to samples with t in [from, to).
  [[nodiscard]] double MeanOver(Time from, Time to) const;
  /// First time the series drops below `threshold` at or after `from`
  /// (kTimeInfinity if never) — used for reaction-time measurements.
  [[nodiscard]] Time FirstTimeBelow(double threshold, Time from) const;

 private:
  std::vector<Sample> samples_;
};

/// Samples a probe function at a fixed interval into a TimeSeries. Its
/// tick events point at the sampler, so it must outlive every run of the
/// simulator after construction.
class PeriodicSampler {
 public:
  PeriodicSampler(Simulator* sim, Time interval,
                  std::function<double()> probe, TimeSeries* out)
      : sim_(sim), interval_(interval), probe_(std::move(probe)), out_(out) {
    Arm();
  }

 private:
  void Arm() {
    sim_->Schedule(interval_,
                   TypedEvent{.run = &PeriodicSampler::TickEvent, .p0 = this});
  }
  static void TickEvent(void* self, void* /*unused*/, std::uint64_t /*arg*/) {
    auto* s = static_cast<PeriodicSampler*>(self);
    s->out_->Add(s->sim_->Now(), s->probe_());
    s->Arm();
  }

  Simulator* sim_;
  Time interval_;
  std::function<double()> probe_;
  TimeSeries* out_;
};

/// Converts a monotone byte counter into a rate (Gbps) between samples —
/// used for utilization and per-flow goodput series.
class RateMeter {
 public:
  /// Returns the average rate since the previous call (0 on the first).
  double SampleGbps(Time now, std::uint64_t byte_counter) {
    if (last_time_ < 0) {
      last_time_ = now;
      last_bytes_ = byte_counter;
      return 0.0;
    }
    const Time dt = now - last_time_;
    const std::uint64_t db = byte_counter - last_bytes_;
    last_time_ = now;
    last_bytes_ = byte_counter;
    if (dt <= 0) return 0.0;
    return static_cast<double>(db) * 8.0 / ToSeconds(dt) / 1e9;
  }

 private:
  Time last_time_ = -1;
  std::uint64_t last_bytes_ = 0;
};

}  // namespace fncc
