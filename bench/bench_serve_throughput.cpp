// Serving-throughput bench: the measured version of Table 1's "bigger
// batch" row. Three sweeps over the real serve::Engine (not the cost
// model):
//
//   1. batch scaling — aggregate decode tokens/s vs max batch size at a
//      fixed cache_ratio: continuous batching runs per-sequence
//      attention, policy and MLP work in parallel, so aggregate
//      throughput grows with batch size on the same weights;
//   2. memory frontier — at a fixed KV-memory budget
//      (max_concurrent_tokens), sweep cache_ratio: a reduced cache costs
//      ~ratio * prompt_len per sequence, so smaller ratios admit larger
//      batches into the same memory and win aggregate tokens/s — the
//      compounding effect behind the paper's 2.4x claim;
//   3. shard scaling (with --shards N) — paged KV memory, sweeping the
//      pool's shard count 1..N at the largest batch: per-sequence caches
//      land on separate shards, so allocation/eviction contention and
//      (on NUMA hosts) memory-domain locality stop serializing decode.
//      Like sweep 1, this is parallel across sequences — flat on a
//      single-core host.
//
//   ./bench/bench_serve_throughput [--quick] [--gen N] [--seed S]
//                                  [--csv DIR] [--shards N]
//                                  [--block-tokens N]
//                                  [--monitor-period-ms N]
//                                  [--prom-out FILE] [--timeseries-out FILE]
//
// --shards N additionally switches sweeps 1-2 onto the paged allocator so
// their pool_util / frag columns are live (0 under contiguous caches).
// --csv DIR writes serve_throughput.csv + serve_frontier.csv (+
// serve_shards.csv with --shards) — the CI artifact recording the
// serving-throughput trajectory.
// --monitor-period-ms N attaches a background Monitor thread to every
// cell's engine run; --prom-out / --timeseries-out write that cell's
// metrics registry / time-series rings after each cell (last cell wins),
// so the files describe the final — largest — configuration.
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "obs/export.h"
#include "obs/monitor.h"

using namespace kf;

namespace {

struct Workload {
  std::size_t n_requests = 0;
  std::size_t prompt_len = 0;
  std::size_t gen_tokens = 0;
  std::uint64_t seed = 0;
};

struct PagedOptions {
  std::size_t shards = 0;  ///< 0 = contiguous caches
  std::size_t block_tokens = 16;
};

struct MonitorOptions {
  std::size_t period_ms = 0;  ///< 0 = no monitor
  std::string prom_path;
  std::string timeseries_path;
};

std::vector<serve::Request> make_requests(const model::ModelConfig& cfg,
                                          const Workload& wl) {
  Rng rng(wl.seed);
  std::vector<serve::Request> requests(wl.n_requests);
  for (std::size_t i = 0; i < wl.n_requests; ++i) {
    requests[i].id = i;
    requests[i].prompt.resize(wl.prompt_len);
    for (auto& t : requests[i].prompt) {
      t = static_cast<model::Token>(rng.uniform_u64(cfg.vocab_size));
    }
    requests[i].gen.max_new_tokens = wl.gen_tokens;
  }
  return requests;
}

serve::EngineStats run_cell(model::Transformer& m, const Workload& wl,
                            double cache_ratio, std::size_t max_batch,
                            std::size_t max_tokens, const PagedOptions& po,
                            const MonitorOptions& mo) {
  std::vector<serve::Request> requests = make_requests(m.config(), wl);
  for (auto& r : requests) r.gen.cache_ratio = cache_ratio;

  serve::EngineConfig ec;
  ec.policy.kind = kv::PolicyKind::kKeyformer;
  ec.scheduler.max_batch_size = max_batch;
  ec.scheduler.max_concurrent_tokens = max_tokens;
  if (po.shards > 0) {
    ec.paged.enabled = true;
    ec.paged.n_shards = po.shards;
    ec.paged.block_tokens = po.block_tokens;
  }
  serve::Engine engine(m, ec);
  obs::Monitor monitor(
      {.period_ms = static_cast<double>(mo.period_ms)});
  if (mo.period_ms > 0) {
    serve::add_engine_probes(monitor, engine);
    monitor.start();
  }
  engine.run(requests);
  monitor.stop();
  if (!mo.prom_path.empty()) {
    if (!obs::write_prometheus(engine.metrics(), mo.prom_path)) {
      std::cerr << "error: cannot write " << mo.prom_path << '\n';
      std::exit(1);
    }
  }
  if (mo.period_ms > 0 && !mo.timeseries_path.empty()) {
    if (!obs::write_timeseries_json(monitor, mo.timeseries_path)) {
      std::cerr << "error: cannot write " << mo.timeseries_path << '\n';
      std::exit(1);
    }
  }
  return engine.stats();
}

/// Peak pool utilization of one cell (0 under contiguous caches or an
/// unbounded pool).
double pool_util(const serve::EngineStats& stats) {
  return stats.pool_capacity_blocks > 0
             ? static_cast<double>(stats.pool_peak_used_blocks) /
                   static_cast<double>(stats.pool_capacity_blocks)
             : 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::Options opt = bench::parse_options(argc, argv);
  PagedOptions po;
  MonitorOptions mo;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next_count = [&](const char* flag) -> std::size_t {
      const char* value = i + 1 < argc ? argv[++i] : "";
      const auto v = parse_count(value);
      if (!v.has_value()) {
        std::cerr << "error: " << flag
                  << " expects a non-negative integer, got \"" << value
                  << "\"\n";
        std::exit(1);
      }
      return static_cast<std::size_t>(*v);
    };
    const auto next_path = [&](const char* flag) -> std::string {
      const std::string value = i + 1 < argc ? argv[++i] : "";
      if (value.empty()) {
        std::cerr << "error: " << flag << " expects a file path\n";
        std::exit(1);
      }
      return value;
    };
    if (arg == "--shards") {
      po.shards = next_count("--shards");
    } else if (arg == "--block-tokens") {
      po.block_tokens = next_count("--block-tokens");
      if (po.block_tokens == 0) {
        std::cerr << "error: --block-tokens must be positive\n";
        return 1;
      }
    } else if (arg == "--monitor-period-ms") {
      mo.period_ms = next_count("--monitor-period-ms");
    } else if (arg == "--prom-out") {
      mo.prom_path = next_path("--prom-out");
    } else if (arg == "--timeseries-out") {
      mo.timeseries_path = next_path("--timeseries-out");
    }
  }
  if (mo.period_ms == 0 && !mo.timeseries_path.empty()) {
    mo.period_ms = 5;  // --timeseries-out needs samples to dump
  }

  Workload wl;
  wl.seed = opt.seed;
  wl.prompt_len = opt.quick ? 96 : 256;
  wl.gen_tokens = opt.gen_given ? opt.gen_tokens : (opt.quick ? 16 : 48);
  if (wl.gen_tokens == 0) {
    std::cerr << "error: --gen must be positive\n";
    return 1;
  }
  const std::vector<std::size_t> batches =
      opt.quick ? std::vector<std::size_t>{1, 4}
                : std::vector<std::size_t>{1, 2, 4, 8};
  wl.n_requests = batches.back() * 2;

  model::ModelConfig cfg = model::ModelConfig::gptj_like();
  cfg.max_seq_len = 4096;
  model::Transformer m(cfg);

  std::cout << "serve throughput (gptj-like RoPE, keyformer policy, "
            << wl.n_requests << " requests, prompt " << wl.prompt_len
            << ", gen " << wl.gen_tokens << ", "
            << ThreadPool::global().size() << " worker threads, "
            << (po.shards > 0 ? "paged KV: " + std::to_string(po.shards) +
                                    " shard(s) x " +
                                    std::to_string(po.block_tokens) +
                                    "-token blocks"
                              : std::string("contiguous KV caches"))
            << ")\n"
            << "note: batch and shard scaling are parallel across sequences "
               "— on a single-core host those sweeps are expected to be "
               "flat\n\n";

  // Sweep 1: batch scaling at fixed cache_ratio.
  const double fixed_ratio = 0.5;
  Table t1("aggregate decode throughput vs batch size (cache_ratio 0.5)");
  std::vector<std::string> h1{"max_batch", "isa", "decode_tok_per_s",
                              "speedup_vs_b1", "steps", "peak_batch",
                              "peak_kv_tokens", "pool_util", "frag"};
  bench::append_latency_columns(h1);
  t1.header(h1);
  double base_tps = 0.0;
  for (const std::size_t b : batches) {
    const serve::EngineStats stats =
        run_cell(m, wl, fixed_ratio, b, /*max_tokens=*/0, po, mo);
    const double tps = stats.decode_tokens_per_s();
    if (b == batches.front()) base_tps = tps;
    std::vector<std::string> row{
        Table::num(static_cast<long long>(b)), stats.isa, Table::num(tps, 1),
        Table::num(base_tps > 0.0 ? tps / base_tps : 0.0, 2) + "x",
        Table::num(static_cast<long long>(stats.steps)),
        Table::num(static_cast<long long>(stats.max_batch)),
        Table::num(static_cast<long long>(stats.max_tokens_in_use)),
        Table::num(pool_util(stats), 3),
        Table::num(stats.max_fragmentation, 3)};
    bench::append_latency_cells(row, stats);
    t1.row(row);
  }
  t1.print(std::cout);
  bench::maybe_write_csv(opt, t1, "serve_throughput");
  std::cout << '\n';

  // Sweep 2: memory frontier — fixed KV budget, varying cache_ratio. The
  // budget fits ~3 full-attention sequences of this workload; reduced
  // ratios fit proportionally more.
  const std::size_t kv_budget = 3 * (wl.prompt_len + wl.gen_tokens);
  const std::vector<double> ratios =
      opt.quick ? std::vector<double>{1.0, 0.5}
                : std::vector<double>{1.0, 0.75, 0.5, 0.25};
  Table t2("fixed KV-memory budget (" + std::to_string(kv_budget) +
           " tokens): cache_ratio buys batch size");
  std::vector<std::string> h2{"cache_ratio", "isa", "achieved_batch",
                              "decode_tok_per_s", "speedup_vs_full",
                              "peak_kv_tokens", "pool_util", "frag"};
  bench::append_latency_columns(h2);
  t2.header(h2);
  double full_tps = 0.0;
  for (const double r : ratios) {
    const serve::EngineStats stats =
        run_cell(m, wl, r, /*max_batch=*/0, kv_budget, po, mo);
    const double tps = stats.decode_tokens_per_s();
    if (r == ratios.front()) full_tps = tps;
    std::vector<std::string> row{
        Table::num(r, 2), stats.isa,
        Table::num(static_cast<long long>(stats.max_batch)),
        Table::num(tps, 1),
        Table::num(full_tps > 0.0 ? tps / full_tps : 0.0, 2) + "x",
        Table::num(static_cast<long long>(stats.max_tokens_in_use)),
        Table::num(pool_util(stats), 3),
        Table::num(stats.max_fragmentation, 3)};
    bench::append_latency_cells(row, stats);
    t2.row(row);
  }
  t2.print(std::cout);
  bench::maybe_write_csv(opt, t2, "serve_frontier");

  // Sweep 3: shard scaling — paged pool, shard count 1..N, biggest batch.
  if (po.shards > 0) {
    std::cout << '\n';
    Table t3("aggregate decode throughput vs pool shard count (batch " +
             std::to_string(batches.back()) + ", cache_ratio 0.5)");
    t3.header({"shards", "isa", "decode_tok_per_s", "speedup_vs_s1",
               "peak_blocks_reserved", "pool_util", "frag"});
    double s1_tps = 0.0;
    // Doubling steps, but always ending exactly at the requested count
    // (a --shards 3 run must measure 3 shards, not stop at 2).
    std::vector<std::size_t> shard_counts;
    for (std::size_t s = 1; s < po.shards; s *= 2) shard_counts.push_back(s);
    shard_counts.push_back(po.shards);
    for (const std::size_t s : shard_counts) {
      PagedOptions cell = po;
      cell.shards = s;
      const serve::EngineStats stats = run_cell(
          m, wl, fixed_ratio, batches.back(), /*max_tokens=*/0, cell, mo);
      const double tps = stats.decode_tokens_per_s();
      if (s == 1) s1_tps = tps;
      t3.row({Table::num(static_cast<long long>(s)), stats.isa,
              Table::num(tps, 1),
              Table::num(s1_tps > 0.0 ? tps / s1_tps : 0.0, 2) + "x",
              Table::num(static_cast<long long>(stats.max_blocks_in_use)),
              Table::num(pool_util(stats), 3),
              Table::num(stats.max_fragmentation, 3)});
    }
    t3.print(std::cout);
    bench::maybe_write_csv(opt, t3, "serve_shards");
  }

  std::cout << "\nReading guide: sweep 1 shows continuous batching scaling "
               "aggregate decode tokens/s with batch size on one set of "
               "weights; sweep 2 holds KV memory fixed and shows a reduced "
               "cache ratio converting freed memory into batch size and "
               "throughput — the measured form of Table 1's bigger-batch "
               "row. With --shards, sweep 3 spreads the paged sequences "
               "over more pool shards; pool_util is peak used blocks over "
               "capacity and frag is the worst-step share of block-resident "
               "token slots holding no live token.\n";
  return 0;
}
