// Shared wall-clock helper for the engine's latency stamps and the
// benches, plus the trace clock behind the spans src/model, src/kvcache and
// src/serve open: a raw monotonic tick counter (TSC where the target has
// one) with lazy steady_clock calibration, so a trace span costs one TSC
// read instead of a clock_gettime syscall path.
#pragma once

#include <chrono>
#include <cstdint>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#include <x86intrin.h>
#define KF_TRACE_TSC 1
#endif

namespace kf {

/// Seconds on a monotonic clock; only differences are meaningful.
inline double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Raw ticks on the trace clock. On x86-64 this is one `rdtsc` (the cheap
/// path KF_TRACE_SCOPE pays when tracing is enabled); elsewhere, and when
/// the KF_TRACE_CLOCK=ns env override asks for it, steady_clock nanoseconds.
/// Only differences are meaningful; convert with trace_ticks_to_seconds.
std::uint64_t trace_ticks() noexcept;

/// The tick value captured when the trace clock was first touched in this
/// process. Every tick returned by trace_ticks() afterwards is >= this, so
/// it anchors trace timestamps at ~0.
std::uint64_t trace_clock_anchor();

/// Converts a tick difference to seconds using a steady_clock-calibrated
/// rate (exact when the nanosecond fallback is active). The first call may
/// block ~200us to measure a usable rate; afterwards the rate is cached.
double trace_ticks_to_seconds(std::uint64_t ticks_delta);

#if defined(KF_TRACE_TSC)
namespace detail {
/// True unless KF_TRACE_CLOCK=ns forced the portable nanosecond clock.
bool trace_clock_uses_tsc();
}  // namespace detail

inline std::uint64_t trace_ticks() noexcept {
  if (detail::trace_clock_uses_tsc()) {
    return __rdtsc();
  }
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}
#else
inline std::uint64_t trace_ticks() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}
#endif

}  // namespace kf
