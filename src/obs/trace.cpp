#include "obs/trace.h"

#include <atomic>
#include <cstdio>
#include <fstream>
#include <memory>
#include <vector>

#include "core/mutex.h"

namespace kf::obs {

namespace {

struct TraceEvent {
  const char* name;
  const char* cat;
  std::uint64_t start_ticks;
  std::uint64_t end_ticks;  ///< == start_ticks for instants
  bool instant;
};

/// Per-thread event buffer. The owning thread writes slots_[head] then
/// publishes with a release store of head_; readers acquire-load head_
/// and see complete slots. head_ only grows until trace_reset(). The
/// slots are left uninitialized, so only pages that hold events become
/// resident.
struct ThreadBuffer {
  static constexpr std::size_t kCapacity = std::size_t{1} << 20;  ///< 1M/thread

  void record(const TraceEvent& ev) noexcept {
    const std::uint64_t h = head_.load(std::memory_order_relaxed);
    if (h >= kCapacity) {
      dropped_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    slots_[h] = ev;
    head_.store(h + 1, std::memory_order_release);
  }

  std::unique_ptr<TraceEvent[]> slots_ =
      std::make_unique_for_overwrite<TraceEvent[]>(kCapacity);
  std::atomic<std::uint64_t> head_{0};
  std::atomic<std::uint64_t> dropped_{0};
  std::uint32_t tid = 0;
};

std::atomic<bool> g_enabled{false};

/// Registry of every thread's buffer. Buffers are owned here (not by the
/// thread) so events survive thread exit and flush can walk them all.
struct BufferRegistry {
  Mutex mu;
  std::vector<std::unique_ptr<ThreadBuffer>> buffers KF_GUARDED_BY(mu);
};

BufferRegistry& registry() {
  static BufferRegistry* r = new BufferRegistry();  // leaked: outlive TLS
  return *r;
}

ThreadBuffer& local_buffer() {
  thread_local ThreadBuffer* buf = [] {
    auto owned = std::make_unique<ThreadBuffer>();
    ThreadBuffer* raw = owned.get();
    BufferRegistry& reg = registry();
    LockGuard lock(reg.mu);
    raw->tid = static_cast<std::uint32_t>(reg.buffers.size() + 1);
    reg.buffers.push_back(std::move(owned));
    return raw;
  }();
  return *buf;
}

/// Snapshot of the buffer list; each buffer is then drained lock-free.
std::vector<ThreadBuffer*> all_buffers() {
  BufferRegistry& reg = registry();
  LockGuard lock(reg.mu);
  std::vector<ThreadBuffer*> out;
  out.reserve(reg.buffers.size());
  for (const auto& b : reg.buffers) {
    out.push_back(b.get());
  }
  return out;
}

void append_json_string(std::string& out, const char* s) {
  out.push_back('"');
  for (; *s != '\0'; ++s) {
    const char c = *s;
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (static_cast<unsigned char>(c) >= 0x20) {
      out.push_back(c);
    }
  }
  out.push_back('"');
}

/// Duration of a complete span in ticks; an end before its start clamps
/// to 0.
std::uint64_t span_ticks(const TraceEvent& ev) {
  return ev.end_ticks >= ev.start_ticks ? ev.end_ticks - ev.start_ticks : 0;
}

void append_micros(std::string& out, double us) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.3f", us);
  out.append(buf);
}

}  // namespace

bool trace_enabled() noexcept {
  return g_enabled.load(std::memory_order_relaxed);
}

void set_trace_enabled(bool on) {
  if (on) {
    // Touch the clock so the anchor predates every recorded event.
    (void)trace_clock_anchor();
  }
  g_enabled.store(on, std::memory_order_relaxed);
}

std::size_t trace_event_count() {
  std::size_t total = 0;
  for (ThreadBuffer* b : all_buffers()) {
    total += static_cast<std::size_t>(
        b->head_.load(std::memory_order_acquire));
  }
  return total;
}

std::size_t trace_dropped_count() {
  std::size_t total = 0;
  for (ThreadBuffer* b : all_buffers()) {
    total += static_cast<std::size_t>(
        b->dropped_.load(std::memory_order_relaxed));
  }
  return total;
}

void trace_reset() {
  for (ThreadBuffer* b : all_buffers()) {
    b->head_.store(0, std::memory_order_relaxed);
    b->dropped_.store(0, std::memory_order_relaxed);
  }
}

void trace_complete(const char* name, const char* cat,
                    std::uint64_t start_ticks,
                    std::uint64_t end_ticks) noexcept {
  if (!trace_enabled()) {
    return;
  }
  local_buffer().record(
      TraceEvent{name, cat, start_ticks, end_ticks, false});
}

void trace_instant(const char* name, const char* cat) noexcept {
  if (!trace_enabled()) {
    return;
  }
  const std::uint64_t t = trace_ticks();
  local_buffer().record(TraceEvent{name, cat, t, t, true});
}

bool write_chrome_trace(const std::string& path) {
  std::ofstream out(path);
  if (!out) {
    return false;
  }
  const std::uint64_t anchor = trace_clock_anchor();
  std::string json;
  json.reserve(std::size_t{1} << 16);
  json.append("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
  bool first = true;
  for (ThreadBuffer* b : all_buffers()) {
    const std::uint64_t n = b->head_.load(std::memory_order_acquire);
    for (std::uint64_t i = 0; i < n; ++i) {
      const TraceEvent& ev = b->slots_[i];
      if (!first) {
        json.push_back(',');
      }
      first = false;
      json.append("{\"name\":");
      append_json_string(json, ev.name);
      json.append(",\"cat\":");
      append_json_string(json, ev.cat);
      const std::uint64_t rel =
          ev.start_ticks >= anchor ? ev.start_ticks - anchor : 0;
      const double ts = trace_ticks_to_seconds(rel) * 1e6;
      if (ev.instant) {
        json.append(",\"ph\":\"i\",\"s\":\"t\",\"ts\":");
        append_micros(json, ts);
      } else {
        const double dur = trace_ticks_to_seconds(span_ticks(ev)) * 1e6;
        json.append(",\"ph\":\"X\",\"ts\":");
        append_micros(json, ts);
        json.append(",\"dur\":");
        append_micros(json, dur);
      }
      json.append(",\"pid\":1,\"tid\":");
      json.append(std::to_string(b->tid));
      json.push_back('}');
    }
  }
  json.append("]}\n");
  out << json;
  return static_cast<bool>(out);
}

std::map<std::string, SpanTotal> trace_totals() {
  std::map<std::string, SpanTotal> totals;
  for (ThreadBuffer* b : all_buffers()) {
    const std::uint64_t n = b->head_.load(std::memory_order_acquire);
    for (std::uint64_t i = 0; i < n; ++i) {
      const TraceEvent& ev = b->slots_[i];
      if (ev.instant) continue;
      SpanTotal& t = totals[ev.name];
      ++t.count;
      t.seconds += trace_ticks_to_seconds(span_ticks(ev));
    }
  }
  return totals;
}

}  // namespace kf::obs
