// Monotonic wall-clock helpers for the serving runtime and load benches.
// All durations are microseconds as f64 (the natural unit for request
// latencies on a simulated accelerator: big enough to avoid ns clutter,
// fine enough for queueing math).
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>

#include "common/types.h"

namespace msh {

/// Microseconds since an arbitrary (but fixed) monotonic epoch.
inline f64 monotonic_now_us() {
  const auto t = std::chrono::steady_clock::now().time_since_epoch();
  return static_cast<f64>(
             std::chrono::duration_cast<std::chrono::nanoseconds>(t).count()) /
         1e3;
}

/// f64-microsecond timeout -> std::chrono duration, rounding *up* to the
/// next whole microsecond. Truncating (the obvious
/// `microseconds(static_cast<i64>(us))`) silently turns any sub-microsecond
/// timeout into 0 — an immediate-timeout busy spin on every wait path that
/// takes a fractional budget. Zero (and negative, and NaN) stay zero,
/// preserving the non-blocking `pop(0.0)` contract.
///
/// Large budgets, +inf included, saturate at kMaxTimeoutUs (~31.7 years):
/// casting ceil(inf) to i64 is undefined (INT64_MIN on x86, so "wait
/// forever" became "never wait"), and a wait_for budget must also survive
/// its conversion to steady_clock nanoseconds added to now() without
/// overflowing.
inline constexpr f64 kMaxTimeoutUs = 1e15;

inline std::chrono::microseconds microseconds_ceil(f64 timeout_us) {
  if (!(timeout_us > 0.0)) return std::chrono::microseconds(0);
  return std::chrono::microseconds(
      static_cast<i64>(std::ceil(std::min(timeout_us, kMaxTimeoutUs))));
}

/// Elapsed-time meter around monotonic_now_us().
class Stopwatch {
 public:
  Stopwatch() : start_us_(monotonic_now_us()) {}

  void reset() { start_us_ = monotonic_now_us(); }
  f64 elapsed_us() const { return monotonic_now_us() - start_us_; }
  f64 elapsed_s() const { return elapsed_us() / 1e6; }

 private:
  f64 start_us_;
};

}  // namespace msh
