// Metrics registry for the serving stack: named counters, gauges, and
// log-bucketed latency histograms with p50/p95/p99 extraction.
//
// Hot-path cost model:
//   - Counter::add is one relaxed fetch_add on a per-thread cache-line-
//     padded shard (no sharing between decode workers);
//   - Histogram::record is one relaxed fetch_add on a bucket plus relaxed
//     min/max/sum maintenance -- no mutex on any record path;
//   - MetricsRegistry lookups (name -> metric) take the annotated
//     kf::Mutex, so resolve metric pointers once at construction time and
//     keep them; the returned references stay valid for the registry's
//     lifetime.
//
// Histogram buckets are HDR-style: 8 sub-buckets per power-of-two octave
// over [1ns, ~2^42ns], so any reported percentile is the bucket upper
// bound, within 12.5% of the true value (and exact for the recorded
// maximum -- the top of the distribution is what p99 columns care about).
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/annotations.h"
#include "core/mutex.h"

namespace kf::obs {

/// Monotonic event counter, sharded per thread so concurrent add() calls
/// from decode workers never contend on one cache line.
class Counter {
 public:
  Counter() = default;
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  /// Adds `n` (relaxed; one atomic add on this thread's shard).
  void add(std::uint64_t n = 1) noexcept {
    shards_[shard_index()].v.fetch_add(n, std::memory_order_relaxed);
  }

  /// Sum over shards. Concurrent adds may or may not be included.
  std::uint64_t value() const noexcept {
    std::uint64_t total = 0;
    for (const Shard& s : shards_) {
      total += s.v.load(std::memory_order_relaxed);
    }
    return total;
  }

 private:
  static constexpr std::size_t kShards = 16;
  struct alignas(64) Shard {
    std::atomic<std::uint64_t> v{0};
  };
  static std::size_t shard_index() noexcept;
  std::array<Shard, kShards> shards_;
};

/// Last-write-wins scalar (pool utilization, active batch size, ...).
class Gauge {
 public:
  Gauge() = default;
  Gauge(const Gauge&) = delete;
  Gauge& operator=(const Gauge&) = delete;

  void set(double v) noexcept { v_.store(v, std::memory_order_relaxed); }
  double value() const noexcept { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> v_{0.0};
};

/// Snapshot of a latency distribution, in seconds.
struct Percentiles {
  std::uint64_t count = 0;
  double p50 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;
  double mean = 0.0;
  double max = 0.0;
};

struct HistogramSnapshot;

/// Log-bucketed concurrent histogram of durations in seconds.
///
/// record() is wait-free (relaxed atomics only); percentile extraction
/// walks the bucket array without locking, so a snapshot taken while
/// recorders are active is approximate but never torn or racy.
class Histogram {
 public:
  Histogram() = default;
  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  /// Records one duration. Negative values clamp to zero; values above
  /// ~2^42 ns (~73 minutes) saturate into the top bucket (the exact
  /// maximum is still tracked and returned for top-bucket percentiles).
  void record(double seconds) noexcept;

  /// Nearest-rank percentile in seconds, `q` in [0, 1]. Returns the
  /// bucket upper bound clamped to the recorded maximum (hence exact for
  /// single-bucket and top-of-range queries); 0 when empty.
  double percentile(double q) const noexcept;

  std::uint64_t count() const noexcept {
    return count_.load(std::memory_order_relaxed);
  }
  double sum() const noexcept;
  double min() const noexcept;
  double max() const noexcept;

  /// One consistent-enough snapshot of count/p50/p95/p99/mean/max.
  Percentiles snapshot() const noexcept;

  /// Full-resolution copy of the bucket array and registers — the input
  /// to exporters (Prometheus `_bucket` series) and to per-window deltas
  /// (snapshot_diff). Same consistency model as snapshot().
  HistogramSnapshot full_snapshot() const noexcept;

  static constexpr std::size_t kSubBits = 3;  ///< 8 sub-buckets per octave.
  static constexpr std::size_t kSubCount = std::size_t{1} << kSubBits;
  static constexpr std::size_t kMaxShift = 39;  ///< top octave ~2^42 ns.
  static constexpr std::size_t kBucketCount =
      (kMaxShift + 2) << kSubBits;  ///< 328 buckets.

  /// Inclusive upper bound, in ns, of bucket `index`. The last bucket is
  /// a saturation bucket whose nominal bound understates its contents.
  static std::uint64_t bucket_upper_ns(std::size_t index) noexcept;

 private:
  static std::size_t bucket_index(std::uint64_t ns) noexcept;

  std::array<std::atomic<std::uint64_t>, kBucketCount> buckets_{};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_ns_{0};
  std::atomic<std::uint64_t> min_ns_{~std::uint64_t{0}};
  std::atomic<std::uint64_t> max_ns_{0};
};

/// Plain-value copy of a Histogram: per-bucket counts plus the count /
/// sum / min / max registers. Two uses:
///   - exporters walk `buckets` to emit cumulative Prometheus `_bucket`
///     series;
///   - a monitor keeps the previous snapshot and calls snapshot_diff()
///     to get the *window's* distribution — per-window rates and
///     percentiles instead of run-cumulative ones.
struct HistogramSnapshot {
  std::array<std::uint64_t, Histogram::kBucketCount> buckets{};
  std::uint64_t count = 0;
  std::uint64_t sum_ns = 0;
  std::uint64_t min_ns = ~std::uint64_t{0};
  std::uint64_t max_ns = 0;

  /// Nearest-rank percentile in seconds over the snapshot's buckets,
  /// same contract as Histogram::percentile.
  double percentile(double q) const noexcept;
  /// count/p50/p95/p99/mean/max distilled from this snapshot.
  Percentiles percentiles() const noexcept;

  double sum() const noexcept { return static_cast<double>(sum_ns) * 1e-9; }
  double min() const noexcept {
    return min_ns == ~std::uint64_t{0} ? 0.0
                                       : static_cast<double>(min_ns) * 1e-9;
  }
  double max() const noexcept { return static_cast<double>(max_ns) * 1e-9; }
};

/// The per-window delta `newer - older` (bucket-wise, saturating at 0, so
/// a torn concurrent pair can never underflow). min/max are recovered
/// from the window's occupied bucket bounds — within one bucket width of
/// the true window extremes — because the cumulative registers only track
/// lifetime extremes.
HistogramSnapshot snapshot_diff(const HistogramSnapshot& newer,
                                const HistogramSnapshot& older) noexcept;

/// One named-metric row in a registry dump.
struct MetricRow {
  std::string name;
  enum class Kind { kCounter, kGauge, kHistogram } kind = Kind::kCounter;
  std::uint64_t count = 0;    ///< counter value / histogram count
  double value = 0.0;         ///< gauge value
  Percentiles percentiles{};  ///< histogram summary
};

/// Named metric store. Lookup creates on first use and is internally
/// synchronized with the annotated kf::Mutex; the returned references are
/// stable for the registry's lifetime, so callers resolve once and record
/// lock-free afterwards.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter& counter(const std::string& name) KF_EXCLUDES(mu_);
  Gauge& gauge(const std::string& name) KF_EXCLUDES(mu_);
  Histogram& histogram(const std::string& name) KF_EXCLUDES(mu_);

  /// Sum of the counters `pattern` names: one exact name, or a family
  /// where one '*' stands for any run of characters (evict.*.decisions:
  /// one counter per eviction policy). 0 when none exists; creates none.
  std::uint64_t counter_sum(std::string_view pattern) const KF_EXCLUDES(mu_);
  /// The named gauge's value; 0 when it does not exist (creates none).
  double gauge_value(const std::string& name) const KF_EXCLUDES(mu_);

  /// All metrics, sorted by name (counters, then gauges, then histograms).
  std::vector<MetricRow> rows() const KF_EXCLUDES(mu_);

  /// Name -> full bucket snapshot for every histogram, sorted by name —
  /// what the Prometheus exporter renders as `_bucket`/`_sum`/`_count`.
  std::vector<std::pair<std::string, HistogramSnapshot>> histogram_snapshots()
      const KF_EXCLUDES(mu_);

 private:
  mutable Mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_
      KF_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Gauge>> gauges_ KF_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Histogram>> histograms_
      KF_GUARDED_BY(mu_);
};

/// Canonical CSV column names for a latency distribution: `prefix`_p50_ms,
/// `prefix`_p95_ms, `prefix`_p99_ms. Both bench_serve_throughput and
/// serve_sim emit these so downstream plotting parses one schema.
/// Canonical prefixes: "ttft", "itl" (inter-token), "queue_wait", "step".
std::vector<std::string> percentile_columns(const std::string& prefix);

/// The matching cell values, formatted in milliseconds with 3 decimals.
std::vector<std::string> percentile_cells(const Percentiles& p);

}  // namespace kf::obs
