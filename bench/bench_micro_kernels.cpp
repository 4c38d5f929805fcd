// Micro-kernel benchmarks (google-benchmark): the primitive costs behind
// the analytical model — attention step, plain softmax vs Gumbel softmax
// (Keyformer's score overhead, Fig 10), cache compaction, matmul.
//
// Kernels with runtime-dispatched SIMD variants (matmul, matvec, softmax,
// the Gumbel-softmax score, and the fused attend alone and inside the
// decode step and the prompt chunk) are registered once per ISA available
// on this host/build — "BM_Softmax<scalar>/2048" vs
// "BM_Softmax<avx2>/2048" rows give the speedup matrix directly. Variants
// the host cannot run are simply not registered. Benchmarks run
// sequentially, so the process-wide ISA override each one installs cannot
// race another benchmark.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <iostream>
#include <numeric>
#include <string>
#include <vector>

#include "cpu/kernels.h"
#include "keyformer/keyformer.h"

namespace {

using namespace kf;

/// Scoped kernel-ISA override: benchmarks sweep variants in-process and
/// must restore the env/detected default for the next registrant.
class IsaGuard {
 public:
  explicit IsaGuard(cpu::CpuIsa isa) { cpu::set_isa_override(isa); }
  ~IsaGuard() { cpu::clear_isa_override(); }
  IsaGuard(const IsaGuard&) = delete;
  IsaGuard& operator=(const IsaGuard&) = delete;
};

/// An unbounded pool for cfg's K/V rows in `block_tokens`-token blocks.
mem::BlockPool make_pool(const model::ModelConfig& cfg,
                         std::size_t block_tokens) {
  mem::BlockPoolConfig pc;
  pc.block_tokens = block_tokens;
  pc.n_heads = cfg.n_heads;
  pc.d_head = cfg.d_head();
  return mem::BlockPool(pc);
}

/// The serving engine's block size: the layout its attends stream.
constexpr std::size_t kEngineBlockTokens =
    serve::PagedMemoryConfig{}.block_tokens;

void BM_Matmul(benchmark::State& state, cpu::CpuIsa isa) {
  // C[m, n] = A[m, k] * B[k, n] at the model's dense-layer shapes: m rows
  // of a decode batch or a prompt chunk against one weight, finished by
  // the epilogue form range(3) (cpu::Epilogue: 0 store, 1 bias + GELU,
  // 2 bias + residual add).
  const IsaGuard guard(isa);
  const std::size_t m = static_cast<std::size_t>(state.range(0));
  const std::size_t k = static_cast<std::size_t>(state.range(1));
  const std::size_t n = static_cast<std::size_t>(state.range(2));
  const auto epilogue = static_cast<cpu::Epilogue>(state.range(3));
  // Small weights keep the residual form's C finite across iterations: it
  // grows by A·B + bias = 0.75 per pass.
  std::vector<float> a(m * k, 1.0F), b(k * n, 0.5F / static_cast<float>(k));
  std::vector<float> bias(n, 0.25F), c(m * n, 0.0F);
  for (auto _ : state) {
    matmul(a, b, c, m, k, n, epilogue, bias);
    benchmark::DoNotOptimize(c.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(m * k * n));
}

void BM_Matvec(benchmark::State& state, cpu::CpuIsa isa) {
  // The decode kernel's dot-product shape: [key_len, d_head] keys
  // against one rotated query head.
  const IsaGuard guard(isa);
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const std::size_t k = 32;
  std::vector<float> a(n * k, 0.5F), x(k, 1.0F), y(n);
  for (auto _ : state) {
    matvec(a, x, y, n, k);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n * k));
}

void BM_Softmax(benchmark::State& state, cpu::CpuIsa isa) {
  const IsaGuard guard(isa);
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  std::vector<float> x(n), out(n);
  for (std::size_t i = 0; i < n; ++i) x[i] = static_cast<float>(i % 17);
  for (auto _ : state) {
    softmax(x, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}

void BM_GumbelSoftmaxScore(benchmark::State& state, cpu::CpuIsa isa) {
  // Keyformer's per-head score increment over one cache row — the
  // overhead Fig 10 charges against the Gumbel softmax — as a decode row
  // pays it: one frozen-noise draw for the appended row's slot, then the
  // dispatched score kernel over the cache's stored noise row.
  const IsaGuard guard(isa);
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  std::vector<float> logits(n);
  for (std::size_t i = 0; i < n; ++i) logits[i] = static_cast<float>(i % 13);
  const kv::ScoreFunction fn{kv::ScoreFunctionConfig{}};
  std::vector<double> noise(n);
  for (std::size_t i = 0; i < n; ++i) noise[i] = fn.noise(0, 0, i);
  std::vector<double> out(n);
  const cpu::ScoreIncrementsFn score = cpu::score_increments_stub.get();
  std::size_t t = 0;
  for (auto _ : state) {
    noise[n - 1] = fn.noise(0, 0, n + t);
    score(logits.data(), noise.data(), out.data(), n,
          fn.config().temperature.at(t++ % 64, 64));
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}

void BM_AttentionDecodeStep(benchmark::State& state, cpu::CpuIsa isa) {
  // Whole decode attention layer for one sequence (a one-row
  // self_attention call: projections, RoPE or ALiBi, append, fused
  // attend into per-thread rows, no policy and no kept tensors) at
  // position ctx over a pre-filled ctx-row cache in the engine's blocks —
  // the end-to-end consumer of the kernels above. Each
  // iteration drops the row it appended, untimed, so every one sees the
  // same cache. {ctx, family}: family 0 is mpt_like (ALiBi, d_head 16),
  // 1 is gptj_like (RoPE, d_head 32), the served model.
  const IsaGuard guard(isa);
  const std::size_t ctx = static_cast<std::size_t>(state.range(0));
  const model::ModelConfig cfg = state.range(1) == 0
                                     ? model::ModelConfig::mpt_like()
                                     : model::ModelConfig::gptj_like();
  const model::ModelWeights w = model::build_weights(cfg);
  mem::BlockPool pool = make_pool(cfg, kEngineBlockTokens);
  kv::KvCache cache(pool);
  Rng rng(1);
  std::vector<float> row(cache.row_width());
  for (std::size_t i = 0; i < ctx; ++i) {
    for (float& v : row) v = static_cast<float>(rng.normal());
    cache.append(row, row, i);
  }
  Tensor x({1, cfg.d_model});
  for (float& v : x.span()) v = static_cast<float>(rng.normal());
  std::vector<std::size_t> prefilled(ctx);
  std::iota(prefilled.begin(), prefilled.end(), std::size_t{0});
  const std::size_t pos = ctx;
  for (auto _ : state) {
    const model::AttentionRun run{{&pos, 1}, &cache};
    auto r = model::self_attention(cfg, w.layers[0], w.rope, x, {&run, 1},
                                   model::Phase::kDecode,
                                   model::Internals::kDrop);
    benchmark::DoNotOptimize(r.front().context.data());
    state.PauseTiming();
    cache.compact(prefilled);
    state.ResumeTiming();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(ctx));
}

void BM_DecodeAttend(benchmark::State& state, cpu::CpuIsa isa) {
  // The dispatched fused attend alone, one head: {d_head, keys, rows} over
  // the engine's 16-row segments. One row is decode_attend as a decode row
  // sees its cache; more rows are one attend_rows call, row r seeing keys +
  // r keys, as a prompt chunk's consecutive rows see theirs.
  const std::size_t dh = static_cast<std::size_t>(state.range(0));
  const std::size_t keys = static_cast<std::size_t>(state.range(1));
  const std::size_t rows = static_cast<std::size_t>(state.range(2));
  const std::size_t total = keys + rows - 1;
  Rng rng(1);
  const auto random = [&rng](std::size_t n) {
    std::vector<float> v(n);
    for (float& x : v) x = static_cast<float>(rng.normal());
    return v;
  };
  const std::vector<float> k = random(total * dh);
  const std::vector<float> v = random(total * dh);
  const std::vector<float> q = random(rows * dh);
  std::vector<cpu::KvSegmentView> segs;
  for (std::size_t first = 0; first < total; first += kEngineBlockTokens) {
    segs.push_back({k.data() + first * dh, v.data() + first * dh, first,
                    std::min(kEngineBlockTokens, total - first)});
  }
  std::vector<float> lrow(rows * total), prow(rows * total), ctx(rows * dh);
  const cpu::DecodeAttendFn attend = cpu::decode_attend_stub.get(isa);
  const cpu::AttendRowsFn attend_rows = cpu::attend_rows_stub.get(isa);
  const float scale = 1.0F / std::sqrt(static_cast<float>(dh));
  for (auto _ : state) {
    if (rows == 1) {
      attend(segs.data(), segs.size(), q.data(), dh, scale, nullptr, nullptr,
             lrow.data(), prow.data(), ctx.data(), keys);
    } else {
      attend_rows(segs.data(), segs.size(), q.data(), dh, scale, nullptr,
                  nullptr, lrow.data(), prow.data(), total, ctx.data(), dh,
                  keys, rows);
    }
    benchmark::DoNotOptimize(ctx.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(rows * keys));
}

void BM_AttentionPromptChunk(benchmark::State& state, cpu::CpuIsa isa) {
  // One prompt chunk through self_attention (a one-run call: projections,
  // the append and the fused attend over each row's causal prefix, split
  // by head, no policy and no kept tensors): `rows` new tokens over
  // `cached` keys already in the cache, in the engine's blocks.
  const IsaGuard guard(isa);
  const std::size_t cached = static_cast<std::size_t>(state.range(0));
  const std::size_t rows = static_cast<std::size_t>(state.range(1));
  model::ModelConfig cfg = model::ModelConfig::gptj_like();
  const model::ModelWeights w = model::build_weights(cfg);
  mem::BlockPool pool = make_pool(cfg, kEngineBlockTokens);
  kv::KvCache cache(pool);
  Rng rng(1);
  std::vector<float> row(cache.row_width());
  for (std::size_t i = 0; i < cached; ++i) {
    for (float& v : row) v = static_cast<float>(rng.normal());
    cache.append(row, row, i);
  }
  Tensor x({rows, cfg.d_model});
  for (float& v : x.span()) v = static_cast<float>(rng.normal());
  std::vector<std::size_t> positions(rows);
  std::iota(positions.begin(), positions.end(), cached);
  std::vector<std::size_t> prefilled(cached);
  std::iota(prefilled.begin(), prefilled.end(), std::size_t{0});
  for (auto _ : state) {
    state.PauseTiming();
    cache.compact(prefilled);  // drop the previous iteration's chunk
    state.ResumeTiming();
    const model::AttentionRun run{positions, &cache};
    auto r = model::self_attention(cfg, w.layers[0], w.rope, x, {&run, 1},
                                   model::Phase::kPrompt,
                                   model::Internals::kDrop);
    benchmark::DoNotOptimize(r.front().context.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(rows));
}

void BM_CacheCompaction(benchmark::State& state) {
  // {n, block_tokens, adopted}: keep every other row of an n-row cache, at
  // the engine's block size and at a private pool's. A nonzero `adopted`
  // makes the cache's first rows an adopted chain that another reader (an
  // index stand-in) keeps holding, as servebench's shared_prefix adopts
  // its 768-token context, so the eviction runs over shared rows.
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const auto adopted = static_cast<std::size_t>(state.range(2));
  model::ModelConfig cfg = model::ModelConfig::mpt_like();
  mem::BlockPool pool =
      make_pool(cfg, static_cast<std::size_t>(state.range(1)));
  std::vector<float> row(cfg.d_model, 1.0F);
  std::vector<mem::BlockRef> chain;
  {
    kv::KvCache donor(pool);
    for (std::size_t i = 0; i < adopted; ++i) donor.append(row, row, i);
    chain.assign(donor.blocks().begin(), donor.blocks().end());
    for (const mem::BlockRef ref : chain) pool.retain(ref);
  }
  const std::vector<std::vector<double>> scores(
      cfg.n_heads, std::vector<double>(adopted, 0.0));
  const std::vector<std::vector<double>> noise(cfg.n_heads);
  std::vector<std::size_t> keep;
  for (std::size_t i = 0; i < n; i += 2) keep.push_back(i);
  for (auto _ : state) {
    state.PauseTiming();
    kv::KvCache cache(pool);
    if (adopted > 0) cache.adopt_prefix(chain, adopted, scores, noise);
    for (std::size_t i = adopted; i < n; ++i) cache.append(row, row, i);
    state.ResumeTiming();
    cache.compact(keep);
    benchmark::DoNotOptimize(cache.size());
  }
  for (const mem::BlockRef ref : chain) pool.release(ref);
}
BENCHMARK(BM_CacheCompaction)
    ->ArgsProduct({{1024, 4096},
                   {static_cast<std::int64_t>(kEngineBlockTokens),
                    static_cast<std::int64_t>(
                        kv::SequenceKvState::kPrivateBlockTokens)},
                   {0}})
    ->Args({1024, static_cast<std::int64_t>(kEngineBlockTokens), 768});

void BM_TopKSelection(benchmark::State& state) {
  // {n, keep}: the top `keep` of the prefix [0, n - n/10) plus the recent
  // tenth. keep = n/2 is a prompt-sized cut; keep = prefix - 1 is a decode
  // step at budget, where one token leaves.
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const std::size_t keep_count = static_cast<std::size_t>(state.range(1));
  std::vector<double> scores(n);
  Rng rng(2);
  for (auto& s : scores) s = rng.uniform();
  for (auto _ : state) {
    auto keep = kv::keep_topk_plus_recent(scores, n, n - n / 10, keep_count);
    benchmark::DoNotOptimize(keep.data());
  }
}
BENCHMARK(BM_TopKSelection)
    ->Args({1024, 512})
    ->Args({4096, 2048})
    ->Args({16384, 8192})
    ->Args({398, 358})
    ->Args({4096, 3686});

/// Registers `fn` once per ISA available on this host/build, as
/// "<name><isa>", with one run per argument list.
template <typename Fn>
void register_per_isa(const char* name, Fn fn,
                      const std::vector<std::vector<std::int64_t>>& args) {
  for (int i = 0; i < cpu::kIsaCount; ++i) {
    const auto isa = static_cast<cpu::CpuIsa>(i);
    if (!cpu::isa_available(isa)) continue;
    const std::string full =
        std::string(name) + "<" + cpu::isa_name(isa) + ">";
    auto* b = benchmark::RegisterBenchmark(full.c_str(), fn, isa);
    for (const auto& a : args) b->Args(a);
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::cout << kf::cpu::describe() << '\n';
  // {m, k, n, epilogue}: decode batches of 1 and 8 and a 48-row prompt
  // chunk against a d_model x d_model projection and through the two MLP
  // weights, the second rows as the MLP runs them (W1 with bias + GELU, W2
  // with bias + residual add); then an 8-row LM head.
  register_per_isa("BM_Matmul", BM_Matmul,
                   {{1, 128, 128, 0},
                    {8, 128, 128, 0},
                    {48, 128, 128, 0},
                    {48, 128, 256, 0},
                    {48, 256, 128, 0},
                    {1, 128, 256, 1},
                    {8, 128, 256, 1},
                    {48, 128, 256, 1},
                    {1, 256, 128, 2},
                    {8, 256, 128, 2},
                    {48, 256, 128, 2},
                    {8, 128, 512, 0}});
  register_per_isa("BM_Matvec", BM_Matvec, {{512}, {2048}, {8192}});
  register_per_isa("BM_Softmax", BM_Softmax, {{512}, {2048}, {8192}});
  // A decode row at shared_prefix's budget, that workload's prompt, and a
  // long row.
  register_per_isa("BM_GumbelSoftmaxScore", BM_GumbelSoftmaxScore,
                   {{398}, {792}, {2048}});
  // {ctx, family}: the gptj_like rows stop at 4000 so every position stays
  // inside its 4096-row RoPE table, as served.
  register_per_isa("BM_AttentionDecodeStep", BM_AttentionDecodeStep,
                   {{256, 0}, {1024, 0}, {4096, 0}, {256, 1}, {1024, 1},
                    {4000, 1}});
  // {d_head, keys, rows}: gptj_like heads at offline_decode's budget (25),
  // shared_prefix's (about 400) and its prompt rows (about 800), an
  // mpt_like head, and a long row; then a block of four prompt rows of
  // each family at about 800 keys.
  register_per_isa("BM_DecodeAttend", BM_DecodeAttend,
                   {{32, 25, 1},
                    {32, 400, 1},
                    {32, 800, 1},
                    {16, 800, 1},
                    {32, 2048, 1},
                    {32, 800, 4},
                    {16, 800, 4}});
  // {cached, rows}: a shared_prefix-shaped chunk after the 768-token
  // context, and a 64-row prompt from an empty cache.
  register_per_isa("BM_AttentionPromptChunk", BM_AttentionPromptChunk,
                   {{768, 24}, {0, 64}});
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
