// Time representation for the FNCC simulator.
//
// All simulation time is kept in integer picoseconds. At the link rates this
// library targets (100/200/400 Gbps) a byte serializes in 80/40/20 ps, so
// picoseconds keep every transmission time integer-exact while int64_t still
// covers ~106 days of simulated time.
#pragma once

#include <cstdint>

namespace fncc {

/// Simulation time in picoseconds.
using Time = std::int64_t;

inline constexpr Time kPicosecond = 1;
inline constexpr Time kNanosecond = 1'000;
inline constexpr Time kMicrosecond = 1'000'000;
inline constexpr Time kMillisecond = 1'000'000'000;
inline constexpr Time kSecond = 1'000'000'000'000;

/// A time value that compares greater than any schedulable event time.
inline constexpr Time kTimeInfinity = INT64_MAX;

/// Largest |picoseconds| a parsed double may hold and still round to a
/// Time (below INT64_MAX ~ 9.223e18); parsers reject, never wrap, beyond.
inline constexpr double kMaxParsedTimePs = 9.2e18;

constexpr Time Nanoseconds(double ns) {
  return static_cast<Time>(ns * static_cast<double>(kNanosecond));
}
constexpr Time Microseconds(double us) {
  return static_cast<Time>(us * static_cast<double>(kMicrosecond));
}
constexpr Time Milliseconds(double ms) {
  return static_cast<Time>(ms * static_cast<double>(kMillisecond));
}
constexpr Time Seconds(double s) {
  return static_cast<Time>(s * static_cast<double>(kSecond));
}

constexpr double ToNanoseconds(Time t) {
  return static_cast<double>(t) / static_cast<double>(kNanosecond);
}
constexpr double ToMicroseconds(Time t) {
  return static_cast<double>(t) / static_cast<double>(kMicrosecond);
}
constexpr double ToMilliseconds(Time t) {
  return static_cast<double>(t) / static_cast<double>(kMillisecond);
}
constexpr double ToSeconds(Time t) {
  return static_cast<double>(t) / static_cast<double>(kSecond);
}

/// Bandwidth helpers. Link rates are carried as double Gbps in configuration
/// and converted here so every module agrees on the arithmetic.
constexpr double BytesPerSecond(double gbps) { return gbps * 1e9 / 8.0; }

/// Serialization delay of `bytes` at `gbps`, rounded to the nearest ps.
constexpr Time SerializationDelay(std::uint64_t bytes, double gbps) {
  // bits / (gbps * 1e9 bits/s) seconds -> ps:  bits * 1000 / gbps.
  return static_cast<Time>(static_cast<double>(bytes) * 8.0 * 1000.0 / gbps +
                           0.5);
}

/// Bandwidth-delay product in bytes for a line rate and round-trip time.
constexpr double BdpBytes(double gbps, Time rtt) {
  return BytesPerSecond(gbps) * ToSeconds(rtt);
}

}  // namespace fncc
