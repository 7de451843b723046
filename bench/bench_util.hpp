// Shared helpers for the figure-reproduction harnesses: consistent CSV
// emission plus paper-vs-measured summary lines for EXPERIMENTS.md.
#pragma once

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "exec/wall_timer.hpp"
#include "stats/timeseries.hpp"

namespace fncc::bench {

/// Environment override helper (FNCC_FLOWS, FNCC_SEED, ...).
inline long EnvLong(const char* name, long fallback) {
  const char* v = std::getenv(name);
  return v != nullptr ? std::atol(v) : fallback;
}

/// Emits a time series as CSV rows: series,<label>,<t_us>,<value>.
inline void PrintSeries(const char* figure, const std::string& label,
                        const TimeSeries& ts, double scale = 1.0,
                        Time from = 0, Time to = kTimeInfinity,
                        Time stride = 0) {
  Time next = from;
  for (const auto& s : ts.samples()) {
    if (s.t < from || s.t > to) continue;
    if (stride > 0 && s.t < next) continue;
    next = s.t + stride;
    std::printf("series,%s,%s,%.1f,%.4f\n", figure, label.c_str(),
                ToMicroseconds(s.t), s.value * scale);
  }
}

inline void Banner(const char* title) {
  std::printf("==== %s ====\n", title);
}

/// One EXPERIMENTS.md comparison row.
inline void PaperVsMeasured(const char* figure, const char* metric,
                            const char* paper, const std::string& measured) {
  std::printf("compare,%s,%s,paper=%s,measured=%s\n", figure, metric, paper,
              measured.c_str());
}

inline std::string Fmt(const char* fmt, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), fmt, v);
  return buf;
}

/// One scenario point's wall-time record for the sweep meta JSON.
struct SweepPointMeta {
  std::string label;
  double wall_time_seconds = 0.0;
};

/// Writes BENCH_<figure>.json recording how the figure's sweep executed:
/// thread count, elapsed wall time, the serial-equivalent time (sum of
/// per-point wall times), the aggregate parallel speedup
/// (serial-equivalent / elapsed), and each point's wall time with its
/// wall_time_share (point seconds per elapsed second — how much of its
/// serial cost the sweep hid behind other points). Wall-time fields are
/// machine- and thread-count-dependent; never compare them across runs
/// with different thread counts. Also prints a one-line "sweep," CSV
/// summary. Returns false, after naming the path and the OS error on
/// stderr, when the JSON cannot be written; the bench then exits 1.
[[nodiscard]] inline bool WriteSweepMeta(
    const char* figure, int threads, double wall_time_seconds,
    const std::vector<SweepPointMeta>& points) {
  // Record how the sweep actually executed: a sweep never uses more
  // threads than it has points (and a single-point sweep runs inline).
  threads = std::min(threads, static_cast<int>(std::max<std::size_t>(
                                  points.size(), 1)));
  double serial_seconds = 0.0;
  for (const SweepPointMeta& p : points) {
    serial_seconds += p.wall_time_seconds;
  }
  const double speedup =
      wall_time_seconds > 0.0 ? serial_seconds / wall_time_seconds : 0.0;

  const std::string path = std::string("BENCH_") + figure + ".json";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s: %s\n", path.c_str(),
                 std::strerror(errno));
    return false;
  }
  std::fprintf(f,
               "{\n  \"figure\": \"%s\",\n  \"threads\": %d,\n"
               "  \"wall_time_seconds\": %.6f,\n"
               "  \"serial_wall_time_seconds\": %.6f,\n"
               "  \"speedup\": %.3f,\n  \"points\": [\n",
               figure, threads, wall_time_seconds, serial_seconds, speedup);
  for (std::size_t i = 0; i < points.size(); ++i) {
    std::fprintf(
        f,
        "    {\"label\": \"%s\", \"wall_time_seconds\": %.6f, "
        "\"wall_time_share\": %.3f}%s\n",
        points[i].label.c_str(), points[i].wall_time_seconds,
        wall_time_seconds > 0.0
            ? points[i].wall_time_seconds / wall_time_seconds
            : 0.0,
        i + 1 < points.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("sweep,%s,threads=%d,wall_s=%.3f,serial_s=%.3f,speedup=%.2f\n",
              figure, threads, wall_time_seconds, serial_seconds, speedup);
  return true;
}

}  // namespace fncc::bench
