// Serving simulator: drive the real continuous-batching Engine with a
// bursty mixed workload — short chat turns, mid-size summaries, and one
// long document, arriving staggered over time — and print the per-request
// latency ledger plus engine aggregates.
//
// This replaces the old cost-model projection with measured numbers: the
// Engine really admits, prefills, batches, and retires each request
// (per-sequence KV caches + Keyformer eviction at 50% cache ratio).
//
//   ./examples/serve_sim [--max-batch N] [--kv-budget N] [--block-tokens N]
//                        [--shared-prefix N] [--trace FILE]
//                        [--metrics] [--metrics-csv FILE]
//     --max-batch N       max concurrent sequences (default 4)
//     --kv-budget N       KV memory budget in per-layer tokens, which
//                         sizes the block pool; 0 = unlimited (default 600)
//     --block-tokens N    tokens per pool block (default 16)
//     --shared-prefix N   switch to a shared-context workload: every
//                         request opens with the same ~N-token few-shot
//                         context (from src/data/fewshot) and the engine's
//                         prefix cache replays it instead of re-prefilling
//                         (prints hit-rate / blocks-saved summary)
//     --trace FILE        record engine/kernel spans and write a Chrome
//                         trace-event JSON to FILE (open in Perfetto or
//                         chrome://tracing)
//     --metrics           print the engine's latency percentile table
//                         (TTFT, inter-token, queue wait, per-step decode)
//                         and the full metrics-registry counter dump
//     --metrics-csv FILE  write a one-row CSV of the canonical latency
//                         columns (ttft/itl/queue_wait/step x p50/p95/p99)
//     --monitor-period-ms N  start a background Monitor thread polling
//                         engine/pool/prefix probes every N ms while the
//                         run is live (0 = off, the default)
//     --prom-out FILE     after the run, write the metrics registry in
//                         Prometheus text-exposition format to FILE
//     --timeseries-out FILE  write the monitor's time-series rings as
//                         JSON to FILE (implies a 5 ms monitor period
//                         when --monitor-period-ms is not given)
//
// Admission reserves real blocks in the pool, and the summary reports pool
// utilization and internal fragmentation. With --shared-prefix the pool
// also becomes a multi-tenant cache: one copy of the shared context's KV
// backs every request that carries it, and stays shared under eviction.
#include <algorithm>
#include <cstdlib>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "core/csv.h"
#include "core/parse.h"
#include "data/fewshot.h"
#include "keyformer/keyformer.h"
#include "kvcache/eviction_telemetry.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/monitor.h"
#include "obs/trace.h"

using namespace kf;

namespace {

serve::Request make_request(std::uint64_t id, std::size_t prompt_len,
                            std::size_t gen_tokens, std::size_t arrival,
                            const model::ModelConfig& cfg, Rng& rng) {
  serve::Request req;
  req.id = id;
  req.arrival_step = arrival;
  req.prompt.resize(prompt_len);
  for (auto& t : req.prompt) {
    t = static_cast<model::Token>(rng.uniform_u64(cfg.vocab_size));
  }
  req.gen.max_new_tokens = gen_tokens;
  req.gen.cache_ratio = 0.5;
  return req;
}

[[noreturn]] void usage_exit(const std::string& message) {
  std::cerr << "error: " << message
            << "\nusage: serve_sim [--max-batch N] [--kv-budget N] "
               "[--block-tokens N] [--shared-prefix N]\n";
  std::exit(1);
}

/// A few-shot context of ~`tokens` tokens drawn from the synthetic MCQ
/// generator (shots only — the per-request "question" is appended by the
/// caller). Trimmed to the requested length.
std::vector<model::Token> make_shared_context(std::size_t tokens,
                                              std::size_t vocab) {
  data::McqConfig mc;
  mc.vocab_size = vocab;
  // Enough shots to cover the request; each shot is ~passage_len/3 + 3.
  mc.n_shots = tokens / (mc.passage_len / 3 + 3) + 1;
  const data::McqSample sample = data::make_mcq_sample(mc, /*index=*/0);
  std::vector<model::Token> ctx = sample.prompt;
  if (ctx.size() > tokens) ctx.resize(tokens);
  return ctx;
}

/// Strict non-negative integer parse; exits with usage on garbage (a bare
/// strtoull would turn "abc" or " -4" into 0 or a huge count silently).
std::size_t parse_count_arg(const char* arg, const char* name) {
  const auto v = parse_count(arg);
  if (!v.has_value()) {
    usage_exit(std::string(name) + " must be a non-negative integer, got \"" +
               (arg == nullptr ? "" : arg) + "\"");
  }
  return static_cast<std::size_t>(*v);
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t max_batch = 4;
  std::size_t kv_budget = 600;
  std::size_t block_tokens = 16;
  std::size_t shared_prefix = 0;
  std::string trace_path;
  std::string metrics_csv_path;
  std::string prom_path;
  std::string timeseries_path;
  std::size_t monitor_period_ms = 0;
  bool print_metrics = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&](const char* name) -> const char* {
      if (i + 1 >= argc) usage_exit(std::string(name) + " expects a value");
      return argv[++i];
    };
    if (arg == "--max-batch") {
      max_batch = parse_count_arg(next("--max-batch"), "--max-batch");
    } else if (arg == "--kv-budget") {
      kv_budget = parse_count_arg(next("--kv-budget"), "--kv-budget");
    } else if (arg == "--block-tokens") {
      block_tokens = parse_count_arg(next("--block-tokens"), "--block-tokens");
      if (block_tokens == 0) usage_exit("--block-tokens must be positive");
    } else if (arg == "--shared-prefix") {
      shared_prefix =
          parse_count_arg(next("--shared-prefix"), "--shared-prefix");
    } else if (arg == "--trace") {
      trace_path = next("--trace");
      if (trace_path.empty()) usage_exit("--trace expects a file path");
    } else if (arg == "--metrics") {
      print_metrics = true;
    } else if (arg == "--metrics-csv") {
      metrics_csv_path = next("--metrics-csv");
      if (metrics_csv_path.empty()) {
        usage_exit("--metrics-csv expects a file path");
      }
    } else if (arg == "--monitor-period-ms") {
      monitor_period_ms = parse_count_arg(next("--monitor-period-ms"),
                                          "--monitor-period-ms");
    } else if (arg == "--prom-out") {
      prom_path = next("--prom-out");
      if (prom_path.empty()) usage_exit("--prom-out expects a file path");
    } else if (arg == "--timeseries-out") {
      timeseries_path = next("--timeseries-out");
      if (timeseries_path.empty()) {
        usage_exit("--timeseries-out expects a file path");
      }
    } else if (arg == "--help" || arg == "-h") {
      std::cout << "usage: serve_sim [--max-batch N] [--kv-budget N] "
                   "[--block-tokens N] [--shared-prefix N] "
                   "[--trace FILE] [--metrics] [--metrics-csv FILE] "
                   "[--monitor-period-ms N] [--prom-out FILE] "
                   "[--timeseries-out FILE]\n";
      return 0;
    } else {
      usage_exit("unknown argument \"" + arg + "\"");
    }
  }
  // Which kernel variants this run dispatches to (detected ISA, active
  // choice, any KF_CPU_ISA override) — printed once so logs are
  // comparable across hosts.
  std::cout << cpu::describe() << '\n';

  model::ModelConfig cfg = model::ModelConfig::gptj_like();
  cfg.max_seq_len = 4096;
  model::Transformer m(cfg);

  Rng rng(7);
  std::vector<serve::Request> requests;
  std::uint64_t id = 0;
  if (shared_prefix > 0) {
    // Shared-context workload: 8 staggered requests all opening with the
    // same few-shot context, each with its own short "question" tail.
    const auto ctx = make_shared_context(shared_prefix, cfg.vocab_size);
    for (std::size_t i = 0; i < 8; ++i) {
      serve::Request req = make_request(id++, 24, 24, /*arrival=*/i * 3,
                                        cfg, rng);
      req.prompt.insert(req.prompt.begin(), ctx.begin(), ctx.end());
      req.shared_prefix_hint = ctx.size();
      requests.push_back(std::move(req));
    }
  } else {
    // Bursty mixed workload: chat turns trickle in, summaries arrive in a
    // burst, one long document lands mid-stream.
    for (std::size_t i = 0; i < 4; ++i) {  // chat turns
      requests.push_back(
          make_request(id++, 48, 24, /*arrival=*/i * 6, cfg, rng));
    }
    for (std::size_t i = 0; i < 3; ++i) {  // summary burst at step 8
      requests.push_back(make_request(id++, 192, 32, /*arrival=*/8, cfg, rng));
    }
    requests.push_back(  // long document at step 12
        make_request(id++, 512, 48, /*arrival=*/12, cfg, rng));
  }

  serve::EngineConfig ec;
  ec.policy.kind = kv::PolicyKind::kKeyformer;
  ec.scheduler.max_batch_size = max_batch;
  ec.scheduler.max_concurrent_tokens = kv_budget;
  ec.paged.block_tokens = block_tokens;
  if (shared_prefix > 0) ec.prefix.enabled = true;
  serve::Engine engine(m, ec);

  std::cout << "serving " << requests.size()
            << " staggered requests (max_batch " << max_batch
            << ", kv budget "
            << (kv_budget == 0 ? std::string("unlimited")
                               : std::to_string(kv_budget) + " tokens")
            << ", keyformer @50% cache, " << block_tokens << "-token blocks"
            << (shared_prefix > 0
                    ? ", shared " +
                          std::to_string(requests[0].shared_prefix_hint) +
                          "-token few-shot context + prefix cache"
                    : std::string())
            << ")\n\n";

  if (monitor_period_ms == 0 && !timeseries_path.empty()) {
    monitor_period_ms = 5;  // --timeseries-out needs samples to dump
  }
  obs::Monitor monitor({.period_ms = static_cast<double>(monitor_period_ms)});
  if (monitor_period_ms > 0) {
    serve::add_engine_probes(monitor, engine);
    monitor.start();
  }

  if (!trace_path.empty()) obs::set_trace_enabled(true);
  const auto responses = engine.run(requests);
  if (!trace_path.empty()) obs::set_trace_enabled(false);
  monitor.stop();

  Table t("per-request latency ledger (steps are engine decode ticks)");
  t.header({"req", "prompt", "tokens", "arrive", "start", "finish",
            "queued", "prefill_ms", "decode_ms", "decode_tok/s", "reason"});
  for (const auto& r : responses) {
    t.row({Table::num(static_cast<long long>(r.id)),
           Table::num(static_cast<long long>(r.prompt_len)),
           Table::num(static_cast<long long>(r.tokens.size())),
           Table::num(static_cast<long long>(r.arrival_step)),
           Table::num(static_cast<long long>(r.first_decode_step)),
           Table::num(static_cast<long long>(r.finish_step)),
           // Rejected/timed-out requests may never reach decode; clamp so
           // the ledger doesn't print a negative queue time.
           Table::num(static_cast<long long>(
               r.first_decode_step > r.arrival_step
                   ? r.first_decode_step - r.arrival_step
                   : 0)),
           Table::num(1e3 * r.prefill_seconds, 2),
           Table::num(1e3 * r.decode_seconds, 2),
           Table::num(r.decode_tokens_per_s(), 1),
           to_string(r.finish)});
  }
  t.print(std::cout);

  // Per-finish-reason summary: under deadlines, faults, or preemption
  // pressure not every request ends in kLength, and this line is where
  // the split shows up.
  std::size_t n_length = 0;
  std::size_t n_eos = 0;
  std::size_t n_rejected = 0;
  std::size_t n_timeout = 0;
  for (const auto& r : responses) {
    switch (r.finish) {
      case serve::FinishReason::kLength: ++n_length; break;
      case serve::FinishReason::kEos: ++n_eos; break;
      case serve::FinishReason::kRejected: ++n_rejected; break;
      case serve::FinishReason::kTimeout: ++n_timeout; break;
      case serve::FinishReason::kRunning: break;  // impossible post-run
    }
  }
  std::cout << "\nfinish reasons: " << n_length << " length, " << n_eos
            << " eos, " << n_rejected << " rejected, " << n_timeout
            << " timeout\n";

  const auto& st = engine.stats();
  if (st.preemptions + st.timeouts + st.rejections + st.reservation_retries +
          st.alloc_failures >
      0) {
    std::cout << "robustness: " << st.preemptions << " preemption(s) ("
              << st.resume_replayed_tokens << " tokens replayed on resume), "
              << st.timeouts << " timeout(s), " << st.rejections
              << " rejection(s), " << st.reservation_retries
              << " reservation retry(ies), " << st.alloc_failures
              << " emergency alloc fallback(s)\n";
  }
  std::cout << "engine: " << st.steps << " decode steps, peak batch "
            << st.max_batch << ", aggregate decode throughput "
            << Table::num(st.decode_tokens_per_s(), 1) << " tok/s (isa "
            << st.isa << ")\n";
  const double util =
      st.pool_capacity_blocks > 0
          ? static_cast<double>(st.pool_peak_used_blocks) /
                static_cast<double>(st.pool_capacity_blocks)
          : 0.0;
  std::cout << "pool: " << st.pool_peak_used_blocks << " peak used / "
            << st.pool_capacity_blocks << " capacity blocks ("
            << Table::num(100.0 * util, 1) << "% peak utilization), peak "
            << st.max_blocks_in_use << " blocks reserved, worst internal "
            << "fragmentation " << Table::num(100.0 * st.max_fragmentation, 1)
            << "%\n";
  if (shared_prefix > 0) {
    const std::size_t total_prompt =
        st.prefilled_tokens + st.prefix_tokens_reused;
    std::cout << "prefix cache: " << st.prefix_hits << " hits / "
              << st.prefix_misses << " misses ("
              << Table::num(100.0 * st.prefix_hit_rate(), 1)
              << "% hit rate), " << st.prefix_tokens_reused << " of "
              << total_prompt << " prompt tokens replayed from cache ("
              << Table::num(total_prompt > 0
                                ? 100.0 * st.prefix_tokens_reused /
                                      static_cast<double>(total_prompt)
                                : 0.0,
                            1)
              << "% prefill skipped), " << st.prefix_blocks_shared
              << " block adoptions served by sharing\n";
  }
  if (print_metrics) {
    // Latency percentile table from the engine's real histograms (the
    // same Percentiles snapshots EngineStats carries).
    Table lt("latency percentiles (engine histograms, wall time)");
    lt.header({"metric", "count", "p50_ms", "p95_ms", "p99_ms", "mean_ms",
               "max_ms"});
    const auto latency_row = [&lt](const char* name,
                                   const obs::Percentiles& p) {
      std::vector<std::string> cells{name, Table::num(static_cast<long long>(
                                               p.count))};
      for (const std::string& c : obs::percentile_cells(p)) {
        cells.push_back(c);
      }
      cells.push_back(Table::num(1e3 * p.mean, 3));
      cells.push_back(Table::num(1e3 * p.max, 3));
      lt.row(cells);
    };
    latency_row("ttft", st.ttft);
    latency_row("inter_token", st.inter_token);
    latency_row("queue_wait", st.queue_wait);
    latency_row("step", st.step_latency);
    std::cout << '\n';
    lt.print(std::cout);

    Table mt("metrics registry");
    mt.header({"metric", "kind", "value"});
    for (const auto& row : engine.metrics().rows()) {
      switch (row.kind) {
        case obs::MetricRow::Kind::kCounter:
          mt.row({row.name, "counter",
                  Table::num(static_cast<long long>(row.count))});
          break;
        case obs::MetricRow::Kind::kGauge:
          mt.row({row.name, "gauge", Table::num(row.value, 3)});
          break;
        case obs::MetricRow::Kind::kHistogram:
          mt.row({row.name, "histogram",
                  Table::num(static_cast<long long>(row.count)) +
                      " samples, p99 " +
                      Table::num(1e3 * row.percentiles.p99, 3) + " ms"});
          break;
      }
    }
    std::cout << '\n';
    mt.print(std::cout);

    // Eviction introspection: the fig-3 position distribution, measured
    // on this serving run instead of the offline sweep.
    const kv::EvictionTelemetry report = engine.eviction_report();
    if (report.decisions() > 0) {
      const auto& totals = report.position_totals();
      std::uint64_t total = 0;
      for (const std::uint64_t c : totals) total += c;
      Table et("evicted-token positions (fraction of prompt+gen span)");
      et.header({"span", "evicted", "share"});
      constexpr std::size_t kB = kv::EvictionSummary::kPositionBuckets;
      for (std::size_t b = 0; b < kB; ++b) {
        const double lo = static_cast<double>(b) / kB;
        const double hi = static_cast<double>(b + 1) / kB;
        et.row({Table::num(lo, 3) + "-" + Table::num(hi, 3),
                Table::num(static_cast<long long>(totals[b])),
                Table::num(total > 0 ? 100.0 * static_cast<double>(totals[b]) /
                                           static_cast<double>(total)
                                     : 0.0,
                           1) +
                    "%"});
      }
      std::cout << '\n';
      et.print(std::cout);
      const kv::EvictionSummary es = report.summary();
      std::cout << "evictions: " << es.decisions << " decisions, "
                << es.tokens_evicted << " tokens evicted / " << es.tokens_kept
                << " kept; score at eviction min "
                << Table::num(es.score_min, 3) << ", p50 ~"
                << Table::num(es.score_p50, 3) << ", p90 ~"
                << Table::num(es.score_p90, 3) << ", max "
                << Table::num(es.score_max, 3) << '\n';
    }
  }

  if (!metrics_csv_path.empty()) {
    std::vector<std::string> header;
    std::vector<std::string> cells;
    const std::vector<std::pair<const char*, const obs::Percentiles*>> series =
        {{"ttft", &st.ttft},
         {"itl", &st.inter_token},
         {"queue_wait", &st.queue_wait},
         {"step", &st.step_latency}};
    for (const auto& [prefix, p] : series) {
      for (const std::string& col : obs::percentile_columns(prefix)) {
        header.push_back(col);
      }
      for (const std::string& c : obs::percentile_cells(*p)) {
        cells.push_back(c);
      }
    }
    CsvWriter csv(header);
    csv.add_row(cells);
    if (!csv.write_file(metrics_csv_path)) {
      std::cerr << "error: cannot write " << metrics_csv_path << '\n';
      return 1;
    }
    std::cout << "\nmetrics csv written to " << metrics_csv_path << '\n';
  }

  if (!prom_path.empty()) {
    if (!obs::write_prometheus(engine.metrics(), prom_path)) {
      std::cerr << "error: cannot write " << prom_path << '\n';
      return 1;
    }
    std::cout << "\nprometheus metrics written to " << prom_path << '\n';
  }

  if (!timeseries_path.empty()) {
    if (!obs::write_timeseries_json(monitor, timeseries_path)) {
      std::cerr << "error: cannot write " << timeseries_path << '\n';
      return 1;
    }
    std::cout << "\ntimeseries json (" << monitor.polls() << " poll(s) @ "
              << monitor_period_ms << " ms) written to " << timeseries_path
              << '\n';
  } else if (monitor_period_ms > 0) {
    std::cout << "\nmonitor: " << monitor.polls() << " poll(s) @ "
              << monitor_period_ms << " ms\n";
  }

  if (!trace_path.empty()) {
    if (!obs::write_chrome_trace(trace_path)) {
      std::cerr << "error: cannot write " << trace_path << '\n';
      return 1;
    }
    std::cout << "\ntrace: " << obs::trace_event_count() << " span(s) ("
              << obs::trace_dropped_count()
              << " dropped) written to " << trace_path
              << " -- load it in Perfetto or chrome://tracing\n";
  }

  std::cout << "Queued steps show admission control at work: requests wait "
               "when the batch or the KV-memory budget is full, and join "
               "mid-stream as earlier sequences retire. Lowering the cache "
               "ratio shrinks each sequence's footprint, admitting more of "
               "them at once (see bench_serve_throughput). The budget is "
               "enforced as whole-block reservations on a real pool, so "
               "fragmentation becomes visible above.\n";
  return 0;
}
