// Streaming FCT sink: the bounded-memory replacement for "accumulate an
// FctRecorder, then WriteFctCsv at the end". Completed flows are appended
// one at a time — in the harness's canonical completion order — and the
// sink (1) writes the CSV row immediately through a large stdio buffer and
// (2) folds the slowdown into online state only: count, exact sum (the
// mean numerator) and a QuantileSketch, globally and per size bucket.
// Memory is O(log value-range + buckets), independent of the flow count; a
// million-flow point holds kilobytes instead of a hundred MB of
// FlowResults.
//
// Determinism: callers append in the canonical FCT merge order (see
// experiment_runner.cpp CompletionBefore) — by completion time, then
// deliveries by edge order word, then natives by dense launch serial.
// Every key in that order is partition-invariant, so the per-lane tallies
// of a multi-domain (scenario.exec_domains) run merge into the exact
// byte stream a single-lane run appends, at any launch window. That fixes
// the CSV bytes and the floating-point sum order; the sketches are
// order-invariant (stats/quantile_sketch.hpp). The CSV row format is
// byte-identical to the legacy WriteFctCsv output — WriteFctCsv is now
// implemented on top of this sink, so there is exactly one formatting path.
#pragma once

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "stats/fct.hpp"
#include "stats/quantile_sketch.hpp"

namespace fncc {

struct FctSinkOptions {
  /// CSV file to append completed flows to; empty = keep stats only.
  std::string csv_path;
  /// Ascending size-bucket edges (size <= edge; larger flows land in the
  /// last bucket — the FctRecorder::Bucketed convention). Empty = no
  /// per-bucket stats.
  std::vector<std::uint64_t> bucket_edges;
};

class FctSink {
 public:
  explicit FctSink(FctSinkOptions options);
  ~FctSink();  // flushes and closes (Finish)
  FctSink(const FctSink&) = delete;
  FctSink& operator=(const FctSink&) = delete;

  /// Appends one completed flow (spec.ideal_fct must be resolved).
  /// Returns false once the sink is in a failed I/O state.
  bool Append(const FlowSpec& spec, Time fct);

  /// Flushes and closes the CSV. Idempotent; returns ok().
  bool Finish();

  /// False after any open/write failure (the failure is sticky).
  [[nodiscard]] bool ok() const { return ok_; }

  [[nodiscard]] const std::string& csv_path() const {
    return options_.csv_path;
  }
  [[nodiscard]] std::uint64_t count() const { return slowdown_.count(); }
  [[nodiscard]] double mean_slowdown() const {
    return count() ? slowdown_sum_ / static_cast<double>(count()) : 0.0;
  }
  /// Approximate percentiles (p in [0, 100], within
  /// QuantileSketch::kDefaultAlpha relative error).
  [[nodiscard]] double SlowdownQuantile(double p) const {
    return slowdown_.Quantile(p);
  }
  [[nodiscard]] const QuantileSketch& slowdown_sketch() const {
    return slowdown_;
  }

  /// Per-size-bucket slowdown stats from the online state — the streaming
  /// analogue of FctRecorder::Bucketed (avg is exact, percentiles are
  /// sketch-approximate). Empty when no bucket_edges were configured.
  [[nodiscard]] std::vector<BucketStats> BucketedApprox() const;

 private:
  struct BucketState {
    QuantileSketch slowdown;
    double slowdown_sum = 0.0;
  };

  FctSinkOptions options_;
  std::FILE* file_ = nullptr;
  std::unique_ptr<char[]> io_buffer_;
  bool ok_ = true;

  QuantileSketch slowdown_;
  double slowdown_sum_ = 0.0;  // accumulated in append order (canonical)
  std::vector<BucketState> bucket_state_;  // parallel to options_.bucket_edges
};

}  // namespace fncc
