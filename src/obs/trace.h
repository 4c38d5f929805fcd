// Span tracer: Chrome trace-event JSON (chrome://tracing, Perfetto) from
// lock-free per-thread ring buffers.
//
// Cost model: when tracing is disabled, KF_TRACE_SCOPE is one relaxed
// atomic load; compiled with -DKF_TRACE_DISABLED it is nothing at all.
// When enabled, a scope costs two trace_ticks() reads (TSC on x86-64) and
// one buffer slot write -- no locks, no allocation after a thread's first
// event. Event names and categories must be string literals (the buffer
// stores the pointers).
//
// Buffers never wrap: each thread publishes events [0, head) with a
// release store and a full buffer drops new events (counted). A published
// slot is never rewritten, so write_chrome_trace() may run concurrently
// with recorders and still reads only complete events; call it after
// Engine::run() returns (ThreadPool joins give the happens-before) for a
// complete file. trace_reset() additionally requires quiescence.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>

#include "core/timing.h"

namespace kf::obs {

/// True when spans are being collected (process-wide, relaxed load).
bool trace_enabled() noexcept;

/// Turns collection on/off. Enabling touches the trace clock so the
/// calibration anchor predates every event.
void set_trace_enabled(bool on);

/// Events currently buffered across all threads.
std::size_t trace_event_count();

/// Events dropped because a thread's buffer filled.
std::size_t trace_dropped_count();

/// Resets all buffers and the dropped counter. Requires quiescence: no
/// concurrent recorders (tracing disabled, worker pools joined).
void trace_reset();

/// Records a completed span [start_ticks, end_ticks] on this thread.
/// `name`/`cat` must be string literals (pointers are stored).
void trace_complete(const char* name, const char* cat,
                    std::uint64_t start_ticks,
                    std::uint64_t end_ticks) noexcept;

/// Records an instantaneous event ("ph":"i") on this thread.
void trace_instant(const char* name, const char* cat = "engine") noexcept;

/// Writes buffered events as Chrome trace-event JSON ({"traceEvents":
/// [...]}, timestamps in microseconds since the trace-clock anchor).
/// Returns false when the file cannot be written.
bool write_chrome_trace(const std::string& path);

/// Count and summed duration of the buffered complete spans of one name.
struct SpanTotal {
  std::size_t count = 0;
  double seconds = 0.0;
};

/// Totals per span name (compared by content) over every thread's
/// buffered complete spans; instants are skipped. Same concurrency
/// contract as write_chrome_trace.
std::map<std::string, SpanTotal> trace_totals();

/// RAII span: records [construction, destruction] when tracing was
/// enabled at construction.
class TraceScope {
 public:
  explicit TraceScope(const char* name,
                      const char* cat = "engine") noexcept {
    if (trace_enabled()) {
      name_ = name;
      cat_ = cat;
      start_ = trace_ticks();
    }
  }
  ~TraceScope() {
    if (name_ != nullptr) {
      trace_complete(name_, cat_, start_, trace_ticks());
    }
  }
  TraceScope(const TraceScope&) = delete;
  TraceScope& operator=(const TraceScope&) = delete;

 private:
  const char* name_ = nullptr;
  const char* cat_ = nullptr;
  std::uint64_t start_ = 0;
};

}  // namespace kf::obs

// KF_TRACE_SCOPE(name[, cat]): names a span covering the rest of the
// enclosing block. Compiles to nothing under -DKF_TRACE_DISABLED. Keep
// out of per-ISA src/cpu variant TUs (scripts/lint.py enforces this):
// the innermost kernels are measured by the spans src/model and
// src/kvcache open around their dispatched calls.
#if defined(KF_TRACE_DISABLED)
#define KF_TRACE_SCOPE(...) \
  do {                      \
  } while (false)
#define KF_TRACE_INSTANT(...) \
  do {                        \
  } while (false)
#else
#define KF_TRACE_CONCAT_IMPL(a, b) a##b
#define KF_TRACE_CONCAT(a, b) KF_TRACE_CONCAT_IMPL(a, b)
#define KF_TRACE_SCOPE(...)                                    \
  const ::kf::obs::TraceScope KF_TRACE_CONCAT(kf_trace_scope_, \
                                              __COUNTER__) {   \
    __VA_ARGS__                                                \
  }
#define KF_TRACE_INSTANT(...) ::kf::obs::trace_instant(__VA_ARGS__)
#endif
