// Trace-clock calibration: anchors the raw tick counter (TSC or steady_clock
// nanoseconds) against kf::now_seconds() so tick differences convert to
// seconds. The rate is measured lazily on the first conversion -- spinning a
// short interval if needed -- and cached; recording a span never pays more
// than the tick read itself.
#include "core/timing.h"

#include <atomic>
#include <cstdlib>

namespace kf {
namespace {

struct TraceClockAnchor {
  std::uint64_t ticks0;
  double seconds0;
};

const TraceClockAnchor& anchor() {
  static const TraceClockAnchor a{trace_ticks(), now_seconds()};
  return a;
}

// Ticks per second, measured against steady_clock. 0.0 = not yet measured.
std::atomic<double> g_ticks_per_second{0.0};

#if defined(KF_TRACE_TSC)
bool tsc_enabled_from_env() {
  const char* env = std::getenv("KF_TRACE_CLOCK");
  if (env != nullptr && env[0] == 'n' && env[1] == 's' && env[2] == '\0') {
    return false;
  }
  return true;
}
#endif

bool clock_is_exact_nanos() {
#if defined(KF_TRACE_TSC)
  return !detail::trace_clock_uses_tsc();
#else
  return true;
#endif
}

// Measures ticks/second against the anchor, spinning until enough wall time
// has elapsed for the ratio to be stable (~200us is plenty for a TSC-class
// counter). Caches the result once a high-confidence interval (>=10ms) has
// been observed; earlier calls return the short-interval measurement without
// caching so a later, longer-baseline call can improve it.
double measure_ticks_per_second() {
  constexpr double kMinInterval = 200e-6;
  constexpr double kCacheInterval = 10e-3;
  const TraceClockAnchor& a = anchor();
  double elapsed = now_seconds() - a.seconds0;
  while (elapsed < kMinInterval) {
    elapsed = now_seconds() - a.seconds0;
  }
  const std::uint64_t ticks = trace_ticks() - a.ticks0;
  const double rate = static_cast<double>(ticks) / elapsed;
  if (elapsed >= kCacheInterval) {
    g_ticks_per_second.store(rate, std::memory_order_relaxed);
  }
  return rate;
}

double ticks_per_second() {
  if (clock_is_exact_nanos()) {
    return 1e9;
  }
  const double cached = g_ticks_per_second.load(std::memory_order_relaxed);
  if (cached > 0.0) {
    return cached;
  }
  return measure_ticks_per_second();
}

}  // namespace

#if defined(KF_TRACE_TSC)
namespace detail {
bool trace_clock_uses_tsc() {
  static const bool use_tsc = tsc_enabled_from_env();
  return use_tsc;
}
}  // namespace detail
#endif

std::uint64_t trace_clock_anchor() { return anchor().ticks0; }

double trace_ticks_to_seconds(std::uint64_t ticks_delta) {
  return static_cast<double>(ticks_delta) / ticks_per_second();
}

}  // namespace kf
