#include "model/layer.h"

#include <cassert>

#include "core/threadpool.h"

namespace kf::model {

namespace {

/// The MLP block over the contiguous residual-stream rows `x`, in place:
/// LN2 per row, then one GEMM per weight over all the rows, the first
/// finished with b1 and GELU, the second adding b2 and its product onto x.
void mlp_block(const ModelConfig& cfg, const LayerWeights& w,
               std::span<float> x) {
  const std::size_t d = cfg.d_model;
  const std::size_t f = cfg.d_ff;
  const std::size_t n_q = x.size() / d;

  Tensor normed({n_q, d});
  for (std::size_t i = 0; i < n_q; ++i) {
    layer_norm(x.subspan(i * d, d), w.ln2_gamma.span(), w.ln2_beta.span(),
               normed.row(i));
  }
  Tensor hidden({n_q, f});
  matmul(normed.span(), w.w_ff1.span(), hidden.span(), n_q, d, f,
         cpu::Epilogue::kBiasGelu, w.b_ff1.span());
  matmul(hidden.span(), w.w_ff2.span(), x, n_q, f, d,
         cpu::Epilogue::kBiasAccumulate, w.b_ff2.span());
}

}  // namespace

std::vector<AttentionResult> decoder_attention(
    const ModelConfig& cfg, const LayerWeights& w, const RopeTable& rope,
    Tensor& x, std::span<const AttentionRun> runs, Phase phase,
    Internals internals) {
  const std::size_t n = x.dim(0);
  const std::size_t d = cfg.d_model;
  assert(x.dim(1) == d);

  Tensor normed({n, d});
  for (std::size_t i = 0; i < n; ++i) {
    layer_norm(x.row(i), w.ln1_gamma.span(), w.ln1_beta.span(),
               normed.row(i));
  }
  std::vector<AttentionResult> results =
      self_attention(cfg, w, rope, normed, runs, phase, internals);
  std::size_t row = 0;
  for (const AttentionResult& r : results) {
    add_inplace(x.span().subspan(row * d, r.n_q * d), r.context.span());
    row += r.n_q;
  }
  return results;
}

void decoder_mlp(const ModelConfig& cfg, const LayerWeights& w, Tensor& x,
                 std::span<const AttentionRun> runs) {
  const std::size_t d = cfg.d_model;
  std::vector<std::size_t> first_row(runs.size() + 1, 0);
  for (std::size_t r = 0; r < runs.size(); ++r) {
    first_row[r + 1] = first_row[r] + runs[r].positions.size();
  }
  assert(first_row.back() == x.dim(0));
  ThreadPool::global().parallel_for(
      runs.size(),
      [&](std::size_t r0, std::size_t r1) {
        mlp_block(cfg, w,
                  x.span().subspan(first_row[r0] * d,
                                   (first_row[r1] - first_row[r0]) * d));
      },
      /*grain=*/1);
}

}  // namespace kf::model
