// Pre-LayerNorm decoder-layer blocks:
//   x += W_o * Attention(LN1(x))     (attention block, returns internals)
//   x += W2 * GELU(W1 * LN2(x) + b1) + b2
#pragma once

#include <span>

#include "core/tensor.h"
#include "kvcache/kv_cache.h"
#include "model/attention.h"
#include "model/config.h"
#include "model/weights.h"

namespace kf::model {

/// Runs the prompt attention block over `x` ([n_q, d_model] residual-stream
/// rows of one sequence) through attention_forward_general, updating `x` in
/// place and returning the attention internals for score functions /
/// instrumentation.
AttentionResult decoder_attention(const ModelConfig& cfg,
                                  const LayerWeights& w, Tensor& x,
                                  std::span<const std::size_t> positions,
                                  kv::KvCache& cache,
                                  AttentionTimings* timings = nullptr);

/// Decode attention block: LN1 per row, one attention_decode_batch over the
/// per-sequence caches in `slots` (row b of `x` is sequence b's
/// residual-stream row), residual add per row. Returns the per-sequence
/// attention internals in slot order.
std::vector<AttentionResult> decoder_attention_batch(
    const ModelConfig& cfg, const LayerWeights& w, Tensor& x,
    std::span<const DecodeBatchSlot> slots,
    AttentionTimings* timings = nullptr);

/// Runs the MLP block over `x` in place.
void decoder_mlp(const ModelConfig& cfg, const LayerWeights& w, Tensor& x);

/// decoder_mlp applied to each row of `x` in parallel across rows. Used by
/// the decode step, where rows are independent sequences and the per-row
/// GEMMs sit below the kernels' internal parallel thresholds (so
/// decoder_mlp would run the whole batch serially). Per-row numerics are
/// identical to decoder_mlp.
void decoder_mlp_rows(const ModelConfig& cfg, const LayerWeights& w,
                      Tensor& x);

}  // namespace kf::model
