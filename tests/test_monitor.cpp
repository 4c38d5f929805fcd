// Live-telemetry monitor: TimeSeries ring semantics, deterministic
// poll_once sampling, histogram window probes, the background thread
// polling a live Engine::run() (the TSan target for the monitor's locking
// contract), and the Prometheus / JSON exporters.
#include "obs/monitor.h"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/timeseries.h"
#include "serve/engine.h"

namespace kf::obs {
namespace {

// ------------------------------------------------------------- time series

TEST(TimeSeries, AppendsUpToCapacity) {
  TimeSeries ts(4);
  EXPECT_TRUE(ts.empty());
  EXPECT_EQ(ts.capacity(), 4u);
  ts.append(0.0, 10.0);
  ts.append(1.0, 20.0);
  EXPECT_EQ(ts.size(), 2u);
  EXPECT_EQ(ts.dropped(), 0u);
  EXPECT_DOUBLE_EQ(ts.at(0).t, 0.0);
  EXPECT_DOUBLE_EQ(ts.at(1).value, 20.0);
  EXPECT_DOUBLE_EQ(ts.last(), 20.0);
  EXPECT_DOUBLE_EQ(ts.min(), 10.0);
  EXPECT_DOUBLE_EQ(ts.max(), 20.0);
  EXPECT_DOUBLE_EQ(ts.mean(), 15.0);
}

TEST(TimeSeries, OverflowDropsOldestAndCounts) {
  TimeSeries ts(3);
  for (int i = 0; i < 7; ++i) {
    ts.append(static_cast<double>(i), static_cast<double>(i * 100));
  }
  EXPECT_EQ(ts.size(), 3u);
  EXPECT_EQ(ts.dropped(), 4u);
  // The retained window is the newest three samples, oldest first.
  EXPECT_DOUBLE_EQ(ts.at(0).t, 4.0);
  EXPECT_DOUBLE_EQ(ts.at(1).t, 5.0);
  EXPECT_DOUBLE_EQ(ts.at(2).t, 6.0);
  EXPECT_DOUBLE_EQ(ts.last(), 600.0);
  EXPECT_DOUBLE_EQ(ts.min(), 400.0);  // reductions cover the window only
  const std::vector<TimeSample> all = ts.samples();
  ASSERT_EQ(all.size(), 3u);
  EXPECT_DOUBLE_EQ(all.front().t, 4.0);
}

TEST(TimeSeries, ZeroCapacityIsFlooredToOne) {
  TimeSeries ts(0);
  EXPECT_EQ(ts.capacity(), 1u);
  ts.append(0.0, 1.0);
  ts.append(1.0, 2.0);
  EXPECT_EQ(ts.size(), 1u);
  EXPECT_DOUBLE_EQ(ts.last(), 2.0);
  EXPECT_EQ(ts.dropped(), 1u);
}

// ----------------------------------------------------------------- monitor

TEST(Monitor, PollOnceSamplesEveryProbe) {
  Monitor monitor;
  int ticks = 0;
  monitor.add_probe("ticks", [&ticks] { return static_cast<double>(++ticks); });
  monitor.add_probe("constant", [] { return 42.0; });
  monitor.poll_once();
  monitor.poll_once();
  monitor.poll_once();
  EXPECT_EQ(monitor.polls(), 3u);
  const TimeSeries ticks_ts = monitor.series("ticks");
  ASSERT_EQ(ticks_ts.size(), 3u);
  EXPECT_DOUBLE_EQ(ticks_ts.at(0).value, 1.0);
  EXPECT_DOUBLE_EQ(ticks_ts.at(2).value, 3.0);
  // Timestamps are relative to the first poll and nondecreasing.
  EXPECT_GE(ticks_ts.at(0).t, 0.0);
  EXPECT_LE(ticks_ts.at(0).t, ticks_ts.at(2).t);
  EXPECT_DOUBLE_EQ(monitor.series("constant").last(), 42.0);
  EXPECT_TRUE(monitor.series("no-such-probe").empty());
  const auto snap = monitor.snapshot();
  ASSERT_EQ(snap.size(), 2u);
  EXPECT_EQ(snap[0].first, "ticks");  // registration order
}

TEST(Monitor, HistogramProbeReportsTheWindow) {
  Histogram hist;
  Monitor monitor;
  monitor.add_histogram_probe("lat", hist);

  for (int i = 0; i < 8; ++i) hist.record(1e-3);
  monitor.poll_once();
  for (int i = 0; i < 4; ++i) hist.record(64e-3);
  monitor.poll_once();

  const TimeSeries p50 = monitor.series("lat.window_p50_ms");
  const TimeSeries rate = monitor.series("lat.rate_per_s");
  ASSERT_EQ(p50.size(), 2u);
  ASSERT_EQ(rate.size(), 2u);
  // First window holds the 1 ms records, second only the 64 ms ones —
  // cumulative percentiles could never report a 64 ms median here.
  EXPECT_LT(p50.at(0).value, 2.0);
  EXPECT_GT(p50.at(1).value, 32.0);
  EXPECT_GT(rate.at(0).value, 0.0);
  EXPECT_GT(rate.at(1).value, 0.0);
  EXPECT_GE(monitor.series("lat.window_p99_ms").at(1).value,
            p50.at(1).value);
}

TEST(Monitor, HistogramProbeEmptyWindowIsZero) {
  Histogram hist;
  Monitor monitor;
  monitor.add_histogram_probe("lat", hist);
  monitor.poll_once();
  monitor.poll_once();  // nothing recorded in between
  EXPECT_DOUBLE_EQ(monitor.series("lat.rate_per_s").at(1).value, 0.0);
  EXPECT_DOUBLE_EQ(monitor.series("lat.window_p50_ms").at(1).value, 0.0);
}

TEST(Monitor, BackgroundThreadPollsOnItsPeriod) {
  Monitor monitor({.period_ms = 1.0});
  monitor.add_probe("one", [] { return 1.0; });
  // Waits, for at most 10 s, until the thread has polled `n` times. A
  // fixed sleep fails when the scheduler delays the thread past it: a
  // stop() that takes the lock first ends the thread before its first
  // poll.
  const auto wait_for_polls = [&monitor](std::uint64_t n) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (monitor.polls() < n && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  };
  EXPECT_FALSE(monitor.running());
  monitor.start();
  EXPECT_TRUE(monitor.running());
  wait_for_polls(2);
  monitor.stop();
  EXPECT_FALSE(monitor.running());
  const std::uint64_t first_run = monitor.polls();
  EXPECT_GE(first_run, 2u);
  // Restart keeps the collected series and keeps appending.
  monitor.start();
  wait_for_polls(first_run + 1);
  monitor.stop();
  EXPECT_GT(monitor.polls(), first_run);
  EXPECT_EQ(monitor.series("one").size() + monitor.series("one").dropped(),
            monitor.polls());
}

// The acceptance-gate scenario: a Monitor on a 1 ms period (nominally
// 1000 Hz, comfortably past the 100 Hz floor) polling every standard
// engine probe while Engine::run() decodes on another thread. Runs under
// TSan in CI — any probe touching engine state outside its locking
// contract fails there.
TEST(Monitor, PollsLiveEngineRun) {
  model::ModelConfig cfg;
  cfg.vocab_size = 64;
  cfg.d_model = 16;
  cfg.n_layers = 2;
  cfg.n_heads = 2;
  cfg.d_ff = 32;
  cfg.max_seq_len = 512;
  model::Transformer m(cfg);

  serve::EngineConfig ec;
  ec.scheduler.max_batch_size = 2;
  ec.scheduler.max_concurrent_tokens = 256;
  ec.paged.block_tokens = 8;
  ec.prefix.enabled = true;
  serve::Engine engine(m, ec);

  std::vector<serve::Request> requests(4);
  for (std::size_t i = 0; i < requests.size(); ++i) {
    requests[i].id = i;
    requests[i].arrival_step = i;
    requests[i].prompt.assign(24, static_cast<model::Token>((i * 7 + 3) % 64));
    requests[i].gen.max_new_tokens = 16;
    requests[i].gen.cache_ratio = 0.5;
  }

  Monitor monitor({.period_ms = 1.0});
  serve::add_engine_probes(monitor, engine);
  // The EngineStats view itself, polled mid-run: TSan checks its reads of
  // the run-start capture, the registry and the pool against the run.
  monitor.add_probe("test.stats_decoded_tokens", [&engine] {
    return static_cast<double>(engine.stats().decoded_tokens);
  });
  monitor.start();
  std::vector<serve::Response> responses;
  std::thread runner([&] { responses = engine.run(requests); });
  runner.join();
  // One deterministic poll after the run so the final sample reflects the
  // finished engine regardless of thread timing.
  monitor.poll_once();
  monitor.stop();

  ASSERT_EQ(responses.size(), 4u);
  EXPECT_GE(monitor.polls(), 1u);
  const serve::EngineStats st = engine.stats();
  const TimeSeries steps = monitor.series("engine.steps");
  ASSERT_FALSE(steps.empty());
  EXPECT_DOUBLE_EQ(steps.last(), static_cast<double>(st.steps));
  EXPECT_DOUBLE_EQ(monitor.series("engine.decoded_tokens").last(),
                   static_cast<double>(st.decoded_tokens));
  EXPECT_DOUBLE_EQ(monitor.series("test.stats_decoded_tokens").last(),
                   static_cast<double>(st.decoded_tokens));
  // Occupancy probes return to zero once the run drains.
  EXPECT_DOUBLE_EQ(monitor.series("engine.active_sequences").last(),
                   0.0);
  EXPECT_DOUBLE_EQ(monitor.series("engine.waiting_sequences").last(),
                   0.0);
  // Pool and prefix probes exist because paging + prefix cache are on.
  EXPECT_FALSE(monitor.series("pool.used_blocks").empty());
  EXPECT_FALSE(monitor.series("prefix.hit_rate").empty());
  // Histogram probes derived their window series.
  EXPECT_FALSE(monitor.series("step.rate_per_s").empty());
  EXPECT_FALSE(monitor.series("itl.window_p99_ms").empty());
}

// --------------------------------------------------------------- exporters

TEST(Export, PrometheusTextFormat) {
  MetricsRegistry reg;
  reg.counter("sched.admitted").add(7);
  reg.gauge("pool.frag").set(0.25);
  reg.histogram("serve.step_seconds").record(1e-3);
  reg.histogram("serve.step_seconds").record(2e-3);

  const std::string text = to_prometheus(reg);
  // Counters: TYPE line + _total suffix, dots sanitized to underscores.
  EXPECT_NE(text.find("# TYPE kf_sched_admitted_total counter"),
            std::string::npos);
  EXPECT_NE(text.find("kf_sched_admitted_total 7"), std::string::npos);
  // Gauges keep their value.
  EXPECT_NE(text.find("# TYPE kf_pool_frag gauge"), std::string::npos);
  EXPECT_NE(text.find("kf_pool_frag 0.25"), std::string::npos);
  // Histograms: TYPE line, at least one bucket, the mandatory +Inf
  // bucket, _sum and _count.
  EXPECT_NE(text.find("# TYPE kf_serve_step_seconds histogram"),
            std::string::npos);
  EXPECT_NE(text.find("kf_serve_step_seconds_bucket{le=\""),
            std::string::npos);
  EXPECT_NE(text.find("_bucket{le=\"+Inf\"} 2"), std::string::npos);
  EXPECT_NE(text.find("kf_serve_step_seconds_count 2"), std::string::npos);
  EXPECT_NE(text.find("kf_serve_step_seconds_sum"), std::string::npos);
  // Every line is either a comment or `name value` — no empty names.
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    ASSERT_FALSE(line.empty());
    if (line[0] == '#') continue;
    EXPECT_EQ(line.rfind("kf_", 0), 0u) << line;
    EXPECT_NE(line.find(' '), std::string::npos) << line;
  }
}

TEST(Export, PrometheusBucketCountsAreCumulative) {
  MetricsRegistry reg;
  Histogram& h = reg.histogram("lat");
  for (int i = 0; i < 5; ++i) h.record(1e-3);
  for (int i = 0; i < 3; ++i) h.record(50e-3);
  const std::string text = to_prometheus(reg);
  // Collect the bucket counts in order; they must be nondecreasing and
  // end at the total count.
  std::istringstream lines(text);
  std::string line;
  std::uint64_t prev = 0;
  std::uint64_t last = 0;
  std::size_t buckets = 0;
  while (std::getline(lines, line)) {
    if (line.rfind("kf_lat_bucket", 0) != 0) continue;
    const std::size_t space = line.rfind(' ');
    const std::uint64_t v = std::stoull(line.substr(space + 1));
    EXPECT_GE(v, prev) << line;
    prev = v;
    last = v;
    ++buckets;
  }
  EXPECT_GE(buckets, 3u);  // 1 ms bucket(s) + 50 ms bucket(s) + +Inf
  EXPECT_EQ(last, 8u);
}

TEST(Export, TimeseriesJsonRoundTrip) {
  Monitor monitor({.period_ms = 2.5, .capacity = 8});
  int n = 0;
  monitor.add_probe("x", [&n] { return static_cast<double>(n++); });
  for (int i = 0; i < 3; ++i) monitor.poll_once();

  const std::string json = to_timeseries_json(monitor);
  EXPECT_NE(json.find("\"period_ms\": 2.5"), std::string::npos);
  EXPECT_NE(json.find("\"polls\": 3"), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"x\""), std::string::npos);
  EXPECT_NE(json.find("\"dropped\": 0"), std::string::npos);
  EXPECT_NE(json.find("\"samples\": ["), std::string::npos);

  const std::string path = testing::TempDir() + "kf_timeseries.json";
  ASSERT_TRUE(write_timeseries_json(monitor, path));
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  EXPECT_EQ(ss.str(), json);
  std::remove(path.c_str());
}

TEST(Export, WritePrometheusToFile) {
  MetricsRegistry reg;
  reg.counter("c").add();
  const std::string path = testing::TempDir() + "kf_prom.txt";
  ASSERT_TRUE(write_prometheus(reg, path));
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  EXPECT_EQ(ss.str(), to_prometheus(reg));
  std::remove(path.c_str());
  EXPECT_FALSE(write_prometheus(reg, "/no/such/dir/kf_prom.txt"));
}

}  // namespace
}  // namespace kf::obs
