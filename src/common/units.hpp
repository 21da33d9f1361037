// Strongly typed units used throughout the simulator: byte counts, bandwidth
// and simulated time. Keeping these as distinct vocabulary types (rather than
// bare integers) prevents the classic bits-vs-bytes and ms-vs-ns mistakes that
// plague network simulators.
#pragma once

#include <cstdint>
#include <string>

namespace smarth {

/// Simulated time in integer nanoseconds since simulation start.
/// An integral representation keeps the event queue exactly ordered and the
/// simulation bit-for-bit reproducible across platforms.
using SimTime = std::int64_t;

/// Simulated duration in nanoseconds.
using SimDuration = std::int64_t;

inline constexpr SimDuration kNanosecond = 1;
inline constexpr SimDuration kMicrosecond = 1000 * kNanosecond;
inline constexpr SimDuration kMillisecond = 1000 * kMicrosecond;
inline constexpr SimDuration kSecond = 1000 * kMillisecond;

constexpr SimDuration nanoseconds(std::int64_t n) { return n; }
constexpr SimDuration microseconds(std::int64_t n) { return n * kMicrosecond; }
constexpr SimDuration milliseconds(std::int64_t n) { return n * kMillisecond; }
constexpr SimDuration seconds(std::int64_t n) { return n * kSecond; }

/// Converts a (possibly fractional) second count to a SimDuration.
constexpr SimDuration seconds_f(double s) {
  return static_cast<SimDuration>(s * static_cast<double>(kSecond));
}

/// Converts a (possibly fractional) millisecond count to a SimDuration.
constexpr SimDuration milliseconds_f(double ms) {
  return static_cast<SimDuration>(ms * static_cast<double>(kMillisecond));
}

/// Converts a SimDuration to fractional seconds (for reporting only).
constexpr double to_seconds(SimDuration d) {
  return static_cast<double>(d) / static_cast<double>(kSecond);
}

/// Byte counts. Plain integer with named constructors; all data sizes in the
/// system are expressed in bytes.
using Bytes = std::int64_t;

inline constexpr Bytes kKiB = 1024;
inline constexpr Bytes kMiB = 1024 * kKiB;
inline constexpr Bytes kGiB = 1024 * kMiB;

constexpr Bytes kib(std::int64_t n) { return n * kKiB; }
constexpr Bytes mib(std::int64_t n) { return n * kMiB; }
constexpr Bytes gib(std::int64_t n) { return n * kGiB; }

/// Network / disk bandwidth in bits per second. Stored as a double so that
/// shaped fractional rates (e.g. 216 Mbps NICs shared between flows) are
/// representable; comparisons in the simulator always go through durations,
/// which are integral.
class Bandwidth {
 public:
  constexpr Bandwidth() = default;
  static constexpr Bandwidth bits_per_second(double v) { return Bandwidth{v}; }
  static constexpr Bandwidth mbps(double v) { return Bandwidth{v * 1e6}; }
  /// Disk vendors quote bytes/s; convert explicitly.
  static constexpr Bandwidth mega_bytes_per_second(double v) {
    return Bandwidth{v * 8e6};
  }

  constexpr double bits_per_second() const { return bps_; }
  constexpr double mbps() const { return bps_ / 1e6; }
  constexpr double bytes_per_second() const { return bps_ / 8.0; }
  constexpr bool is_unlimited() const { return bps_ <= 0.0; }

  /// Time to serialize `size` bytes at this rate. Unlimited bandwidth
  /// serializes instantly.
  constexpr SimDuration transmit_time(Bytes size) const {
    if (is_unlimited() || size <= 0) return 0;
    const double secs = static_cast<double>(size) * 8.0 / bps_;
    return static_cast<SimDuration>(secs * static_cast<double>(kSecond));
  }

  friend constexpr bool operator==(Bandwidth a, Bandwidth b) {
    return a.bps_ == b.bps_;
  }
  friend constexpr bool operator<(Bandwidth a, Bandwidth b) {
    // "Unlimited" (<=0) compares greater than any finite rate.
    if (a.is_unlimited()) return false;
    if (b.is_unlimited()) return true;
    return a.bps_ < b.bps_;
  }
  friend constexpr Bandwidth min(Bandwidth a, Bandwidth b) {
    return a < b ? a : b;
  }

 private:
  explicit constexpr Bandwidth(double bps) : bps_(bps) {}
  double bps_ = 0.0;  // <= 0 means unlimited
};

/// Sentinel for an unshaped link.
inline constexpr Bandwidth kUnlimitedBandwidth = Bandwidth{};

/// Human-readable formatting helpers (reporting only).
std::string format_bytes(Bytes b);
std::string format_bandwidth(Bandwidth bw);
std::string format_duration(SimDuration d);

/// Observed throughput of `size` bytes moved in `elapsed`.
Bandwidth throughput_of(Bytes size, SimDuration elapsed);

}  // namespace smarth
