// Observability layer: histogram bucket math and edge cases, counter
// sharding under contention, percentile column schema, span tracing with
// Chrome-JSON output, and the per-request timeline derivations.
#include "obs/metrics.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/timeline.h"
#include "obs/trace.h"

namespace kf::obs {
namespace {

// ---------------------------------------------------------------- histogram

TEST(Histogram, EmptyReportsZero) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.percentile(0.5), 0.0);
  EXPECT_EQ(h.percentile(0.99), 0.0);
  EXPECT_EQ(h.sum(), 0.0);
  EXPECT_EQ(h.min(), 0.0);
  EXPECT_EQ(h.max(), 0.0);
  const Percentiles p = h.snapshot();
  EXPECT_EQ(p.count, 0u);
  EXPECT_EQ(p.p99, 0.0);
}

TEST(Histogram, SingleSampleIsExactAtEveryPercentile) {
  Histogram h;
  const double v = 0.00317;  // 3.17 ms
  h.record(v);
  // Every percentile clamps the bucket upper bound to the recorded max,
  // so a one-sample histogram answers exactly.
  EXPECT_DOUBLE_EQ(h.percentile(0.0), v);
  EXPECT_DOUBLE_EQ(h.percentile(0.5), v);
  EXPECT_DOUBLE_EQ(h.percentile(0.99), v);
  EXPECT_DOUBLE_EQ(h.percentile(1.0), v);
  EXPECT_DOUBLE_EQ(h.min(), v);
  EXPECT_DOUBLE_EQ(h.max(), v);
}

TEST(Histogram, IdenticalSamplesStayInOneBucketAndExact) {
  Histogram h;
  const double v = 0.010;  // 10 ms
  for (int i = 0; i < 1000; ++i) h.record(v);
  EXPECT_EQ(h.count(), 1000u);
  EXPECT_DOUBLE_EQ(h.percentile(0.5), v);
  EXPECT_DOUBLE_EQ(h.percentile(0.95), v);
  EXPECT_DOUBLE_EQ(h.percentile(0.99), v);
  EXPECT_NEAR(h.sum(), 1000 * v, 1e-6);
}

TEST(Histogram, TopBucketSaturationStillReportsExactMax) {
  Histogram h;
  const double huge = 2.0e5;  // 200,000 s >> the ~2^42 ns top octave
  h.record(huge);
  h.record(3.0e5);
  // Both land in the saturated top bucket; the recorded max keeps the
  // answer exact instead of the bucket's astronomically large bound.
  EXPECT_DOUBLE_EQ(h.percentile(0.99), 3.0e5);
  EXPECT_DOUBLE_EQ(h.max(), 3.0e5);
  EXPECT_DOUBLE_EQ(h.min(), huge);
}

TEST(Histogram, NegativeSamplesClampToZero) {
  Histogram h;
  h.record(-1.5);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_DOUBLE_EQ(h.percentile(0.5), 0.0);
  EXPECT_DOUBLE_EQ(h.max(), 0.0);
}

TEST(Histogram, PinnedSyntheticLatencies) {
  // 1..100 ms, one sample each: nearest-rank p50 is the 50th sample
  // (50 ms), p95 the 95th, p99 the 99th — each reported within the
  // documented 12.5% bucket error, never below the true value.
  Histogram h;
  for (int ms = 1; ms <= 100; ++ms) h.record(ms * 1e-3);
  EXPECT_EQ(h.count(), 100u);
  const struct {
    double q;
    double true_value;
  } cases[] = {{0.50, 0.050}, {0.95, 0.095}, {0.99, 0.099}};
  for (const auto& c : cases) {
    const double got = h.percentile(c.q);
    EXPECT_GE(got, c.true_value) << "q=" << c.q;
    EXPECT_LE(got, c.true_value * 1.125) << "q=" << c.q;
  }
  EXPECT_DOUBLE_EQ(h.percentile(1.0), 0.100);  // exact: recorded max
  EXPECT_NEAR(h.snapshot().mean, 0.0505, 1e-4);
}

TEST(Histogram, ConcurrentRecordingLosesNothing) {
  // 8 threads x 10k records; exercised under TSan by the CI matrix. The
  // record path is relaxed atomics only, so totals must still balance.
  Histogram h;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h, t] {
      for (int i = 0; i < kPerThread; ++i) {
        h.record(((t + 1) * 1e-3) + i * 1e-9);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(h.count(), static_cast<std::uint64_t>(kThreads) * kPerThread);
  EXPECT_GE(h.max(), 8e-3);
  EXPECT_LE(h.percentile(0.5), h.percentile(0.99));
}

// ------------------------------------------------------- snapshot windows

TEST(HistogramSnapshot, FullSnapshotMatchesLiveReadings) {
  Histogram h;
  for (const double v : {1e-3, 2e-3, 4e-3, 8e-3}) h.record(v);
  const HistogramSnapshot s = h.full_snapshot();
  EXPECT_EQ(s.count, 4u);
  EXPECT_DOUBLE_EQ(s.min(), h.min());
  EXPECT_DOUBLE_EQ(s.max(), h.max());
  EXPECT_DOUBLE_EQ(s.sum(), h.sum());
  EXPECT_DOUBLE_EQ(s.percentile(0.5), h.percentile(0.5));
  const Percentiles p = s.percentiles();
  EXPECT_EQ(p.count, 4u);
  EXPECT_DOUBLE_EQ(p.max, h.max());
}

TEST(HistogramSnapshot, DiffIsolatesTheWindow) {
  // Two polls of a cumulative histogram: the diff must describe only the
  // records that landed between them — that is the whole point of
  // per-window monitoring (a mid-run latency spike shows in its window
  // instead of being averaged into lifetime percentiles).
  Histogram h;
  for (int i = 0; i < 100; ++i) h.record(1e-3);  // fast early phase
  const HistogramSnapshot before = h.full_snapshot();
  for (int i = 0; i < 10; ++i) h.record(100e-3);  // slow late phase
  const HistogramSnapshot after = h.full_snapshot();

  const HistogramSnapshot window = snapshot_diff(after, before);
  EXPECT_EQ(window.count, 10u);
  // All window samples are ~100 ms; the log buckets are within 12.5%.
  EXPECT_GT(window.percentile(0.5), 80e-3);
  EXPECT_GT(window.min(), 50e-3);  // window min, not the lifetime 1 ms min
  EXPECT_GE(window.max(), window.min());
  EXPECT_NEAR(window.sum(), 10 * 100e-3, 0.01);

  // Cumulative percentiles, by contrast, still answer for the whole run.
  EXPECT_LT(after.percentile(0.5), 10e-3);
}

TEST(HistogramSnapshot, EmptyWindowDiffsToZero) {
  Histogram h;
  for (int i = 0; i < 5; ++i) h.record(2e-3);
  const HistogramSnapshot s = h.full_snapshot();
  const HistogramSnapshot window = snapshot_diff(s, s);
  EXPECT_EQ(window.count, 0u);
  EXPECT_EQ(window.min(), 0.0);
  EXPECT_EQ(window.max(), 0.0);
  EXPECT_EQ(window.percentile(0.99), 0.0);
}

TEST(HistogramSnapshot, RegistryExposesAllHistograms) {
  MetricsRegistry reg;
  reg.histogram("b.lat").record(1e-3);
  reg.histogram("a.lat").record(2e-3);
  const auto snaps = reg.histogram_snapshots();
  ASSERT_EQ(snaps.size(), 2u);
  EXPECT_EQ(snaps[0].first, "a.lat");  // sorted by name
  EXPECT_EQ(snaps[1].first, "b.lat");
  EXPECT_EQ(snaps[0].second.count, 1u);
}

// ------------------------------------------------------------------ counter

TEST(Counter, ConcurrentAddsSumExactly) {
  Counter c;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 50000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c] {
      for (int i = 0; i < kPerThread; ++i) c.add();
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(c.value(), static_cast<std::uint64_t>(kThreads) * kPerThread);
}

TEST(Counter, AddWithIncrement) {
  Counter c;
  c.add(5);
  c.add(7);
  EXPECT_EQ(c.value(), 12u);
}

// ----------------------------------------------------------------- registry

TEST(MetricsRegistry, LookupIsStableAndCreatesOnce) {
  MetricsRegistry reg;
  Counter& a = reg.counter("x");
  Counter& b = reg.counter("x");
  EXPECT_EQ(&a, &b);
  a.add(3);
  EXPECT_EQ(reg.counter("x").value(), 3u);
  reg.gauge("g").set(1.5);
  reg.histogram("h").record(0.001);
  const std::vector<MetricRow> rows = reg.rows();
  ASSERT_EQ(rows.size(), 3u);
  // Counters, then gauges, then histograms; sorted by name within kind.
  EXPECT_EQ(rows[0].name, "x");
  EXPECT_EQ(rows[0].kind, MetricRow::Kind::kCounter);
  EXPECT_EQ(rows[0].count, 3u);
  EXPECT_EQ(rows[1].name, "g");
  EXPECT_DOUBLE_EQ(rows[1].value, 1.5);
  EXPECT_EQ(rows[2].name, "h");
  EXPECT_EQ(rows[2].percentiles.count, 1u);
}

TEST(MetricsRegistry, ReadOnlyLookupsSumFamiliesAndCreateNothing) {
  MetricsRegistry reg;
  reg.counter("evict.h2o.decisions").add(2);
  reg.counter("evict.keyformer.decisions").add(5);
  reg.counter("evict.keyformer.tokens_kept").add(100);
  reg.counter("evict.decisions_total").add(1000);
  reg.counter("sched.preempted").add(3);
  reg.counter("sched.preempted_x").add(7);
  reg.gauge("serve.max_batch").set(4.0);
  // A family sums every name around the star, and nothing else.
  EXPECT_EQ(reg.counter_sum("evict.*.decisions"), 7u);
  EXPECT_EQ(reg.counter_sum("evict.*.tokens_kept"), 100u);
  // An exact name reads that counter alone, not ones it prefixes.
  EXPECT_EQ(reg.counter_sum("sched.preempted"), 3u);
  EXPECT_DOUBLE_EQ(reg.gauge_value("serve.max_batch"), 4.0);
  // Absent names read 0 and are not created.
  EXPECT_EQ(reg.counter_sum("serve.timeouts"), 0u);
  EXPECT_EQ(reg.counter_sum("evict.*.tokens_evicted"), 0u);
  EXPECT_DOUBLE_EQ(reg.gauge_value("serve.active_sequences"), 0.0);
  EXPECT_EQ(reg.rows().size(), 7u);
}

TEST(MetricsRegistry, PercentileColumnSchema) {
  const std::vector<std::string> cols = percentile_columns("ttft");
  ASSERT_EQ(cols.size(), 3u);
  EXPECT_EQ(cols[0], "ttft_p50_ms");
  EXPECT_EQ(cols[1], "ttft_p95_ms");
  EXPECT_EQ(cols[2], "ttft_p99_ms");
  Percentiles p;
  p.p50 = 0.0005;
  p.p95 = 0.010;
  p.p99 = 1.5;
  const std::vector<std::string> cells = percentile_cells(p);
  ASSERT_EQ(cells.size(), 3u);
  EXPECT_EQ(cells[0], "0.500");
  EXPECT_EQ(cells[1], "10.000");
  EXPECT_EQ(cells[2], "1500.000");
}

// -------------------------------------------------------------------- trace

TEST(Trace, DisabledScopesRecordNothing) {
  set_trace_enabled(false);
  trace_reset();
  {
    KF_TRACE_SCOPE("invisible");
    KF_TRACE_INSTANT("also_invisible");
  }
  EXPECT_EQ(trace_event_count(), 0u);
}

TEST(Trace, ChromeJsonRoundTrip) {
  set_trace_enabled(false);
  trace_reset();
  set_trace_enabled(true);
  {
    KF_TRACE_SCOPE("outer", "test");
    { KF_TRACE_SCOPE("inner", "test"); }
    KF_TRACE_INSTANT("marker", "test");
  }
  std::thread worker([] { KF_TRACE_SCOPE("worker_span", "test"); });
  worker.join();
  set_trace_enabled(false);
  EXPECT_EQ(trace_event_count(), 4u);
  EXPECT_EQ(trace_dropped_count(), 0u);

  const std::string path =
      testing::TempDir() + "kf_test_trace_roundtrip.json";
  ASSERT_TRUE(write_chrome_trace(path));
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream ss;
  ss << in.rdbuf();
  const std::string json = ss.str();

  // Structural round-trip without a JSON library: the braces/brackets
  // balance (no string in the output may contain them — names are
  // engine-controlled literals), and the documents fields are present.
  int depth = 0;
  bool balanced = true;
  for (const char ch : json) {
    if (ch == '{' || ch == '[') ++depth;
    if (ch == '}' || ch == ']') --depth;
    if (depth < 0) balanced = false;
  }
  EXPECT_TRUE(balanced);
  EXPECT_EQ(depth, 0);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"outer\""), std::string::npos);
  EXPECT_NE(json.find("\"inner\""), std::string::npos);
  EXPECT_NE(json.find("\"worker_span\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  std::remove(path.c_str());
  trace_reset();
}

TEST(Trace, OneThreadRecordsAHundredThousandSpans) {
  set_trace_enabled(false);
  trace_reset();
  set_trace_enabled(true);
  for (int i = 0; i < 100000; ++i) {
    KF_TRACE_SCOPE("many", "test");
  }
  set_trace_enabled(false);
  EXPECT_EQ(trace_dropped_count(), 0u);
  EXPECT_EQ(trace_event_count(), 100000u);
  trace_reset();
}

TEST(Trace, TotalsSumCompleteSpansByNameContent) {
  set_trace_enabled(false);
  trace_reset();
  set_trace_enabled(true);
  // Two distinct arrays with equal content: one name, not two.
  static const char kFirst[] = "phase";
  static const char kSecond[] = "phase";
  ASSERT_NE(static_cast<const void*>(kFirst),
            static_cast<const void*>(kSecond));
  trace_complete(kFirst, "test", 100, 100 + 2000);
  trace_complete(kSecond, "test", 500, 500 + 3000);
  trace_complete("backwards", "test", 900, 100);  // clamps to 0
  KF_TRACE_INSTANT("phase", "test");              // instants are not spans
  std::thread worker([] { KF_TRACE_SCOPE("phase", "test"); });
  worker.join();
  set_trace_enabled(false);

  const auto totals = trace_totals();
  ASSERT_EQ(totals.size(), 2u);
  const SpanTotal& phase = totals.at("phase");
  EXPECT_EQ(phase.count, 3u);
  EXPECT_GT(phase.seconds, 0.0);
  EXPECT_EQ(totals.at("backwards").count, 1u);
  EXPECT_EQ(totals.at("backwards").seconds, 0.0);
  trace_reset();
}

TEST(Trace, SpanDurationsAreOrderedAndNonNegative) {
  set_trace_enabled(false);
  trace_reset();
  set_trace_enabled(true);
  const std::uint64_t t0 = trace_ticks();
  std::atomic<int> spin{0};
  while (spin.fetch_add(1, std::memory_order_relaxed) < 10000) {
  }
  const std::uint64_t t1 = trace_ticks();
  set_trace_enabled(false);
  EXPECT_GE(t1, t0);
  // Tick deltas convert to a sane wall-time: positive, below a second
  // for a 10k-iteration spin.
  const double dt = trace_ticks_to_seconds(t1 - t0);
  EXPECT_GE(dt, 0.0);
  EXPECT_LT(dt, 1.0);
  trace_reset();
}

// ----------------------------------------------------------------- timeline

TEST(Timeline, DerivesLatenciesFromStamps) {
  RequestTimeline tl;
  tl.mark(TimelineEventKind::kQueued, 10.0);
  tl.mark(TimelineEventKind::kAdmitted, 10.5);
  tl.mark(TimelineEventKind::kPrefillStart, 10.5);
  tl.mark(TimelineEventKind::kPrefillEnd, 11.0);
  tl.mark(TimelineEventKind::kFirstToken, 11.25);
  tl.mark(TimelineEventKind::kFinished, 12.0);
  EXPECT_DOUBLE_EQ(tl.queue_wait_seconds(), 0.5);
  EXPECT_DOUBLE_EQ(tl.ttft_seconds(), 1.25);
  EXPECT_DOUBLE_EQ(tl.e2e_seconds(), 2.0);
  EXPECT_TRUE(tl.has(TimelineEventKind::kPrefillEnd));
  EXPECT_FALSE(tl.has(TimelineEventKind::kPreempted));
}

TEST(Timeline, MissingStampsReportZero) {
  RequestTimeline tl;
  EXPECT_DOUBLE_EQ(tl.ttft_seconds(), 0.0);
  tl.mark(TimelineEventKind::kQueued, 5.0);
  EXPECT_DOUBLE_EQ(tl.ttft_seconds(), 0.0);
  EXPECT_DOUBLE_EQ(tl.queue_wait_seconds(), 0.0);
  EXPECT_DOUBLE_EQ(tl.e2e_seconds(), 0.0);
}

TEST(Timeline, FirstAndLastPickTheRightRepeat) {
  RequestTimeline tl;
  tl.mark(TimelineEventKind::kPreempted, 1.0);
  tl.mark(TimelineEventKind::kResumed, 2.0);
  tl.mark(TimelineEventKind::kPreempted, 3.0);
  tl.mark(TimelineEventKind::kResumed, 4.0);
  EXPECT_DOUBLE_EQ(*tl.first(TimelineEventKind::kPreempted), 1.0);
  EXPECT_DOUBLE_EQ(*tl.last(TimelineEventKind::kPreempted), 3.0);
  EXPECT_DOUBLE_EQ(*tl.last(TimelineEventKind::kResumed), 4.0);
}

TEST(Timeline, StreamStatsTracksMinMeanMax) {
  StreamStats s;
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  s.add(2.0);
  s.add(4.0);
  s.add(6.0);
  EXPECT_EQ(s.count, 3u);
  EXPECT_DOUBLE_EQ(s.min, 2.0);
  EXPECT_DOUBLE_EQ(s.max, 6.0);
  EXPECT_DOUBLE_EQ(s.mean(), 4.0);
}

TEST(Timeline, EventKindNames) {
  EXPECT_STREQ(to_string(TimelineEventKind::kQueued), "queued");
  EXPECT_STREQ(to_string(TimelineEventKind::kFirstToken), "first_token");
  EXPECT_STREQ(to_string(TimelineEventKind::kFinished), "finished");
}

}  // namespace
}  // namespace kf::obs
