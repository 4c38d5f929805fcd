#include "model/layer.h"

#include <algorithm>
#include <cassert>

#include "core/threadpool.h"

namespace kf::model {

AttentionResult decoder_attention(const ModelConfig& cfg,
                                  const LayerWeights& w, Tensor& x,
                                  std::span<const std::size_t> positions,
                                  kv::KvCache& cache,
                                  AttentionTimings* timings) {
  const std::size_t n_q = x.dim(0);
  const std::size_t d = cfg.d_model;
  assert(x.dim(1) == d);

  Tensor normed({n_q, d});
  for (std::size_t i = 0; i < n_q; ++i) {
    layer_norm(x.row(i), w.ln1_gamma.span(), w.ln1_beta.span(),
               normed.row(i));
  }
  AttentionResult attn =
      attention_forward_general(cfg, w, normed, positions, cache, timings);
  add_inplace(x.span(), attn.context.span());
  return attn;
}

std::vector<AttentionResult> decoder_attention_batch(
    const ModelConfig& cfg, const LayerWeights& w, Tensor& x,
    std::span<const DecodeBatchSlot> slots, AttentionTimings* timings) {
  const std::size_t b_count = x.dim(0);
  const std::size_t d = cfg.d_model;
  assert(x.dim(1) == d && slots.size() == b_count);

  Tensor normed({b_count, d});
  for (std::size_t b = 0; b < b_count; ++b) {
    layer_norm(x.row(b), w.ln1_gamma.span(), w.ln1_beta.span(),
               normed.row(b));
  }
  std::vector<AttentionResult> results =
      attention_decode_batch(cfg, w, normed, slots, timings);
  for (std::size_t b = 0; b < b_count; ++b) {
    add_inplace(x.row(b), results[b].context.row(0));
  }
  return results;
}

void decoder_mlp(const ModelConfig& cfg, const LayerWeights& w, Tensor& x) {
  const std::size_t n_q = x.dim(0);
  const std::size_t d = cfg.d_model;
  const std::size_t f = cfg.d_ff;

  Tensor normed({n_q, d});
  for (std::size_t i = 0; i < n_q; ++i) {
    layer_norm(x.row(i), w.ln2_gamma.span(), w.ln2_beta.span(),
               normed.row(i));
  }
  Tensor hidden({n_q, f});
  matmul(normed.span(), w.w_ff1.span(), hidden.span(), n_q, d, f);
  for (std::size_t i = 0; i < n_q; ++i) {
    add_inplace(hidden.row(i), w.b_ff1.span());
  }
  gelu_inplace(hidden.span());
  Tensor out({n_q, d});
  matmul(hidden.span(), w.w_ff2.span(), out.span(), n_q, f, d);
  for (std::size_t i = 0; i < n_q; ++i) {
    add_inplace(out.row(i), w.b_ff2.span());
  }
  add_inplace(x.span(), out.span());
}

void decoder_mlp_rows(const ModelConfig& cfg, const LayerWeights& w,
                      Tensor& x) {
  const std::size_t n_q = x.dim(0);
  const std::size_t d = cfg.d_model;
  ThreadPool::global().parallel_for(
      n_q,
      [&](std::size_t i0, std::size_t i1) {
        Tensor row({1, d});
        for (std::size_t i = i0; i < i1; ++i) {
          auto src = x.row(i);
          const auto tmp = row.row(0);
          std::copy(src.begin(), src.end(), tmp.begin());
          decoder_mlp(cfg, w, row);
          std::copy(tmp.begin(), tmp.end(), src.begin());
        }
      },
      /*grain=*/1);
}

}  // namespace kf::model
