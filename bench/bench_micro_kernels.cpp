// Micro-kernel benchmarks (google-benchmark): the primitive costs behind
// the analytical model — attention step, plain softmax vs Gumbel softmax
// (Keyformer's score overhead, Fig 10), cache compaction, matmul.
//
// Kernels with runtime-dispatched SIMD variants (matvec, vecmat, dot,
// axpy, max_value, logsumexp, softmax, and the fused decode attend inside
// the attention step) are registered once per ISA available on this
// host/build — "BM_Dot<scalar>/4096" vs "BM_Dot<avx2>/4096" rows give the
// speedup matrix directly. Variants the host cannot run are simply not
// registered. Benchmarks run sequentially, so the process-wide ISA
// override each one installs cannot race another benchmark.
#include <benchmark/benchmark.h>

#include <iostream>
#include <numeric>
#include <string>
#include <vector>

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

void BM_Matmul(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  std::vector<float> a(n * n, 1.0F), b(n * n, 0.5F), c(n * n);
  for (auto _ : state) {
    matmul(a, b, c, n, n, n);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n * n * n));
}
BENCHMARK(BM_Matmul)->Arg(64)->Arg(128)->Arg(256);

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

void BM_VecMat(benchmark::State& state, cpu::CpuIsa isa) {
  // Row-vector times matrix: decode-path QKV/output projection shape.
  const IsaGuard guard(isa);
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  std::vector<float> a(n * n, 0.5F), x(n, 1.0F), y(n);
  for (auto _ : state) {
    vecmat(x, a, y, n, n);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n * n));
}

void BM_Dot(benchmark::State& state, cpu::CpuIsa isa) {
  const IsaGuard guard(isa);
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  std::vector<float> a(n, 0.5F), b(n, 0.25F);
  for (auto _ : state) {
    benchmark::DoNotOptimize(dot(a, b));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}

void BM_Axpy(benchmark::State& state, cpu::CpuIsa isa) {
  // The fused attend's V accumulation shape: ctx += p_i * V_row.
  const IsaGuard guard(isa);
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  std::vector<float> x(n, 0.5F), y(n, 0.0F);
  for (auto _ : state) {
    axpy(0.125F, x, y);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}

void BM_MaxValue(benchmark::State& state, cpu::CpuIsa isa) {
  const IsaGuard guard(isa);
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  std::vector<float> x(n);
  for (std::size_t i = 0; i < n; ++i) x[i] = static_cast<float>(i % 31);
  for (auto _ : state) {
    benchmark::DoNotOptimize(max_value(x));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}

void BM_Logsumexp(benchmark::State& state, cpu::CpuIsa isa) {
  const IsaGuard guard(isa);
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  std::vector<float> x(n);
  for (std::size_t i = 0; i < n; ++i) x[i] = static_cast<float>(i % 23);
  for (auto _ : state) {
    benchmark::DoNotOptimize(logsumexp(x));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
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

void BM_GumbelSoftmaxScore(benchmark::State& state) {
  // Keyformer's per-head score increment over a cache row — the overhead
  // Fig 10 charges against the Gumbel softmax.
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  std::vector<float> logits(n);
  std::vector<std::size_t> positions(n);
  std::iota(positions.begin(), positions.end(), 0);
  for (std::size_t i = 0; i < n; ++i) logits[i] = static_cast<float>(i % 13);
  std::vector<double> out(n);
  const kv::ScoreFunction fn{kv::ScoreFunctionConfig{}};
  std::size_t t = 0;
  for (auto _ : state) {
    fn.increments(logits, positions, 0, 0, t++ % 64, 64, out);
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_GumbelSoftmaxScore)->Arg(512)->Arg(2048)->Arg(8192);

void BM_AttentionDecodeStep(benchmark::State& state, cpu::CpuIsa isa) {
  // Whole decode attention layer for one sequence (a one-slot
  // attention_decode_batch: projections + fused attend) over a pre-filled
  // cache — the end-to-end consumer of the kernels above.
  const IsaGuard guard(isa);
  const std::size_t ctx = static_cast<std::size_t>(state.range(0));
  model::ModelConfig cfg = model::ModelConfig::mpt_like();
  const model::ModelWeights w = model::build_weights(cfg);
  kv::ContiguousKvCache cache(cfg.n_heads, cfg.d_head(), ctx + 8);
  Rng rng(1);
  std::vector<float> row(cache.row_width());
  for (std::size_t i = 0; i < ctx; ++i) {
    for (float& v : row) v = static_cast<float>(rng.normal());
    cache.append(row, row, i);
  }
  Tensor x({1, cfg.d_model});
  for (float& v : x.span()) v = static_cast<float>(rng.normal());
  std::size_t pos = ctx;
  for (auto _ : state) {
    const model::DecodeBatchSlot slot{pos++, &cache};
    auto r = model::attention_decode_batch(cfg, w.layers[0], x, {&slot, 1});
    benchmark::DoNotOptimize(r.front().context.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(ctx));
}

void BM_CacheCompaction(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  model::ModelConfig cfg = model::ModelConfig::mpt_like();
  std::vector<float> row(cfg.d_model, 1.0F);
  std::vector<std::size_t> keep;
  for (std::size_t i = 0; i < n; i += 2) keep.push_back(i);
  for (auto _ : state) {
    state.PauseTiming();
    kv::ContiguousKvCache cache(cfg.n_heads, cfg.d_head(), n);
    for (std::size_t i = 0; i < n; ++i) cache.append(row, row, i);
    state.ResumeTiming();
    cache.compact(keep);
    benchmark::DoNotOptimize(cache.size());
  }
}
BENCHMARK(BM_CacheCompaction)->Arg(1024)->Arg(4096);

void BM_TopKSelection(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  std::vector<double> scores(n);
  Rng rng(2);
  for (auto& s : scores) s = rng.uniform();
  for (auto _ : state) {
    auto keep = kv::keep_topk_plus_recent(scores, n, n - n / 10, n / 2);
    benchmark::DoNotOptimize(keep.data());
  }
}
BENCHMARK(BM_TopKSelection)->Arg(1024)->Arg(4096)->Arg(16384);

/// Registers `fn` once per ISA available on this host/build, as
/// "<name><isa>" with the given size arguments.
template <typename Fn>
void register_per_isa(const char* name, Fn fn,
                      const std::vector<std::int64_t>& sizes) {
  for (int i = 0; i < cpu::kIsaCount; ++i) {
    const auto isa = static_cast<cpu::CpuIsa>(i);
    if (!cpu::isa_available(isa)) continue;
    const std::string full =
        std::string(name) + "<" + cpu::isa_name(isa) + ">";
    auto* b = benchmark::RegisterBenchmark(full.c_str(), fn, isa);
    for (const std::int64_t n : sizes) b->Arg(n);
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::cout << kf::cpu::describe() << '\n';
  register_per_isa("BM_Matvec", BM_Matvec, {512, 2048, 8192});
  register_per_isa("BM_VecMat", BM_VecMat, {128, 256, 1024});
  register_per_isa("BM_Dot", BM_Dot, {64, 512, 4096});
  register_per_isa("BM_Axpy", BM_Axpy, {64, 512, 4096});
  register_per_isa("BM_MaxValue", BM_MaxValue, {512, 2048, 8192});
  register_per_isa("BM_Logsumexp", BM_Logsumexp, {512, 2048, 8192});
  register_per_isa("BM_Softmax", BM_Softmax, {512, 2048, 8192});
  register_per_isa("BM_AttentionDecodeStep", BM_AttentionDecodeStep,
                   {256, 1024, 4096});
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
