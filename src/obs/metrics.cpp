#include "obs/metrics.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>

namespace kf::obs {

namespace {

/// Round-robin thread slots: each thread gets a stable shard for its
/// lifetime; 16 shards keep simultaneous decode workers on distinct lines.
std::atomic<std::size_t> g_next_thread_slot{0};

std::uint64_t seconds_to_ns(double seconds) noexcept {
  if (!(seconds > 0.0)) {
    return 0;
  }
  const double ns = seconds * 1e9;
  constexpr double kMaxNs = 9.2e18;  // < 2^63; avoids UB in the cast
  if (ns >= kMaxNs) {
    return static_cast<std::uint64_t>(kMaxNs);
  }
  return static_cast<std::uint64_t>(std::llround(ns));
}

template <typename Map, typename Metric>
Metric& find_or_create(Map& map, const std::string& name) {
  std::unique_ptr<Metric>& slot = map[name];
  if (slot == nullptr) {
    slot = std::make_unique<Metric>();
  }
  return *slot;
}

}  // namespace

std::size_t Counter::shard_index() noexcept {
  thread_local const std::size_t slot =
      g_next_thread_slot.fetch_add(1, std::memory_order_relaxed) % kShards;
  return slot;
}

std::size_t Histogram::bucket_index(std::uint64_t ns) noexcept {
  if (ns < kSubCount) {
    return static_cast<std::size_t>(ns);
  }
  const auto msb = static_cast<std::size_t>(std::bit_width(ns)) - 1;
  if (msb - kSubBits > kMaxShift) {
    // Beyond the top octave: everything saturates into the LAST bucket
    // (not scattered by the wrapped sub-index), keeping bucket order
    // monotone so percentile()'s saturation clamp stays correct.
    return kBucketCount - 1;
  }
  const std::size_t shift = msb - kSubBits;
  const auto sub =
      static_cast<std::size_t>((ns >> shift) & (kSubCount - 1));
  return ((shift + 1) << kSubBits) + sub;
}

std::uint64_t Histogram::bucket_upper_ns(std::size_t index) noexcept {
  if (index < kSubCount) {
    return index;
  }
  const std::size_t shift = (index >> kSubBits) - 1;
  const std::uint64_t sub = index & (kSubCount - 1);
  const std::uint64_t low = (kSubCount + sub) << shift;
  return low + ((std::uint64_t{1} << shift) - 1);
}

void Histogram::record(double seconds) noexcept {
  const std::uint64_t ns = seconds_to_ns(seconds);
  buckets_[bucket_index(ns)].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_ns_.fetch_add(ns, std::memory_order_relaxed);
  std::uint64_t seen_min = min_ns_.load(std::memory_order_relaxed);
  while (ns < seen_min && !min_ns_.compare_exchange_weak(
                              seen_min, ns, std::memory_order_relaxed)) {
  }
  std::uint64_t seen_max = max_ns_.load(std::memory_order_relaxed);
  while (ns > seen_max && !max_ns_.compare_exchange_weak(
                              seen_max, ns, std::memory_order_relaxed)) {
  }
}

double Histogram::percentile(double q) const noexcept {
  const std::uint64_t n = count();
  if (n == 0) {
    return 0.0;
  }
  q = std::clamp(q, 0.0, 1.0);
  // Nearest-rank: the smallest bucket whose cumulative count reaches
  // ceil(q * n), at least 1.
  const auto rank = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(std::ceil(q * static_cast<double>(n))));
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i < kBucketCount; ++i) {
    cumulative += buckets_[i].load(std::memory_order_relaxed);
    if (cumulative >= rank) {
      if (i == kBucketCount - 1) {
        // Saturated overflow bucket: its nominal upper bound means
        // nothing, the tracked maximum is the honest answer.
        return max();
      }
      const double upper = static_cast<double>(bucket_upper_ns(i)) * 1e-9;
      return std::min(upper, max());
    }
  }
  // A concurrent recorder bumped count_ before its bucket: report the max.
  return max();
}

double Histogram::sum() const noexcept {
  return static_cast<double>(sum_ns_.load(std::memory_order_relaxed)) * 1e-9;
}

double Histogram::min() const noexcept {
  const std::uint64_t v = min_ns_.load(std::memory_order_relaxed);
  return v == ~std::uint64_t{0} ? 0.0 : static_cast<double>(v) * 1e-9;
}

double Histogram::max() const noexcept {
  return static_cast<double>(max_ns_.load(std::memory_order_relaxed)) * 1e-9;
}

Percentiles Histogram::snapshot() const noexcept {
  Percentiles p;
  p.count = count();
  if (p.count == 0) {
    return p;
  }
  p.p50 = percentile(0.50);
  p.p95 = percentile(0.95);
  p.p99 = percentile(0.99);
  p.mean = sum() / static_cast<double>(p.count);
  p.max = max();
  return p;
}

HistogramSnapshot Histogram::full_snapshot() const noexcept {
  HistogramSnapshot snap;
  for (std::size_t i = 0; i < kBucketCount; ++i) {
    snap.buckets[i] = buckets_[i].load(std::memory_order_relaxed);
  }
  snap.count = count_.load(std::memory_order_relaxed);
  snap.sum_ns = sum_ns_.load(std::memory_order_relaxed);
  snap.min_ns = min_ns_.load(std::memory_order_relaxed);
  snap.max_ns = max_ns_.load(std::memory_order_relaxed);
  return snap;
}

double HistogramSnapshot::percentile(double q) const noexcept {
  if (count == 0) {
    return 0.0;
  }
  q = std::clamp(q, 0.0, 1.0);
  const auto rank = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(
             std::ceil(q * static_cast<double>(count))));
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i < Histogram::kBucketCount; ++i) {
    cumulative += buckets[i];
    if (cumulative >= rank) {
      if (i == Histogram::kBucketCount - 1) {
        return max();  // saturated overflow bucket (see Histogram)
      }
      const double upper =
          static_cast<double>(Histogram::bucket_upper_ns(i)) * 1e-9;
      return std::min(upper, max());
    }
  }
  return max();  // count raced ahead of its bucket in the source histogram
}

Percentiles HistogramSnapshot::percentiles() const noexcept {
  Percentiles p;
  p.count = count;
  if (p.count == 0) {
    return p;
  }
  p.p50 = percentile(0.50);
  p.p95 = percentile(0.95);
  p.p99 = percentile(0.99);
  p.mean = sum() / static_cast<double>(p.count);
  p.max = max();
  return p;
}

HistogramSnapshot snapshot_diff(const HistogramSnapshot& newer,
                                const HistogramSnapshot& older) noexcept {
  HistogramSnapshot d;
  std::size_t first = Histogram::kBucketCount;
  std::size_t last = 0;
  for (std::size_t i = 0; i < Histogram::kBucketCount; ++i) {
    const std::uint64_t n = newer.buckets[i];
    const std::uint64_t o = older.buckets[i];
    d.buckets[i] = n > o ? n - o : 0;
    if (d.buckets[i] > 0) {
      if (first == Histogram::kBucketCount) first = i;
      last = i;
    }
  }
  d.count = newer.count > older.count ? newer.count - older.count : 0;
  d.sum_ns = newer.sum_ns > older.sum_ns ? newer.sum_ns - older.sum_ns : 0;
  if (first < Histogram::kBucketCount) {
    d.min_ns = first == 0 ? 0 : Histogram::bucket_upper_ns(first - 1) + 1;
    d.min_ns = std::max(d.min_ns, newer.min_ns);
    d.max_ns = std::min(Histogram::bucket_upper_ns(last), newer.max_ns);
    d.max_ns = std::max(d.max_ns, d.min_ns);
  }
  return d;
}

Counter& MetricsRegistry::counter(const std::string& name) {
  LockGuard lock(mu_);
  return find_or_create<decltype(counters_), Counter>(counters_, name);
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
  LockGuard lock(mu_);
  return find_or_create<decltype(gauges_), Gauge>(gauges_, name);
}

Histogram& MetricsRegistry::histogram(const std::string& name) {
  LockGuard lock(mu_);
  return find_or_create<decltype(histograms_), Histogram>(histograms_, name);
}

std::uint64_t MetricsRegistry::counter_sum(std::string_view pattern) const {
  const std::size_t star = pattern.find('*');
  const std::string head(pattern.substr(0, star));
  const std::string_view tail =
      star == std::string_view::npos ? "" : pattern.substr(star + 1);
  std::uint64_t total = 0;
  LockGuard lock(mu_);
  for (auto it = counters_.lower_bound(head);
       it != counters_.end() && it->first.starts_with(head); ++it) {
    const std::string& name = it->first;
    const bool match = star == std::string_view::npos
                           ? name.size() == head.size()
                           : name.size() >= head.size() + tail.size() &&
                                 name.ends_with(tail);
    if (match) total += it->second->value();
  }
  return total;
}

double MetricsRegistry::gauge_value(const std::string& name) const {
  LockGuard lock(mu_);
  const auto it = gauges_.find(name);
  return it == gauges_.end() ? 0.0 : it->second->value();
}

std::vector<MetricRow> MetricsRegistry::rows() const {
  std::vector<MetricRow> out;
  LockGuard lock(mu_);
  for (const auto& [name, c] : counters_) {
    MetricRow row;
    row.name = name;
    row.kind = MetricRow::Kind::kCounter;
    row.count = c->value();
    out.push_back(std::move(row));
  }
  for (const auto& [name, g] : gauges_) {
    MetricRow row;
    row.name = name;
    row.kind = MetricRow::Kind::kGauge;
    row.value = g->value();
    out.push_back(std::move(row));
  }
  for (const auto& [name, h] : histograms_) {
    MetricRow row;
    row.name = name;
    row.kind = MetricRow::Kind::kHistogram;
    row.count = h->count();
    row.percentiles = h->snapshot();
    out.push_back(std::move(row));
  }
  return out;
}

std::vector<std::pair<std::string, HistogramSnapshot>>
MetricsRegistry::histogram_snapshots() const {
  std::vector<std::pair<std::string, HistogramSnapshot>> out;
  LockGuard lock(mu_);
  out.reserve(histograms_.size());
  for (const auto& [name, h] : histograms_) {
    out.emplace_back(name, h->full_snapshot());
  }
  return out;
}

std::vector<std::string> percentile_columns(const std::string& prefix) {
  return {prefix + "_p50_ms", prefix + "_p95_ms", prefix + "_p99_ms"};
}

namespace {
std::string format_ms(double seconds) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3f", seconds * 1e3);
  return buf;
}
}  // namespace

std::vector<std::string> percentile_cells(const Percentiles& p) {
  return {format_ms(p.p50), format_ms(p.p95), format_ms(p.p99)};
}

}  // namespace kf::obs
