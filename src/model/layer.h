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
/// instrumentation. Row i's bits equal decoder_attention_batch run on that
/// row alone against the cache prefix before it. Traced by the kernel's
/// prompt.project and prompt.attend spans; LN1 and the residual add count
/// toward the caller's span.
AttentionResult decoder_attention(const ModelConfig& cfg,
                                  const LayerWeights& w, Tensor& x,
                                  std::span<const std::size_t> positions,
                                  kv::KvCache& cache);

/// Decode attention block: LN1 per row, one attention_decode_batch over the
/// per-sequence caches in `slots` (row b of `x` is sequence b's
/// residual-stream row), residual add per row. Returns the per-sequence
/// attention internals in slot order. Traced by the kernel's attn.project
/// and attn.attend spans; LN1 and the residual add count toward the
/// caller's span.
std::vector<AttentionResult> decoder_attention_batch(
    const ModelConfig& cfg, const LayerWeights& w, Tensor& x,
    std::span<const DecodeBatchSlot> slots);

/// Runs the MLP block over `x` in place.
void decoder_mlp(const ModelConfig& cfg, const LayerWeights& w, Tensor& x);

/// decoder_mlp with the rows of `x` split across the thread pool. Used by
/// the decode step, where rows are independent sequences and a batch's
/// GEMMs can sit below matmul's own parallel threshold (so decoder_mlp
/// would run the whole batch serially). Each chunk runs its whole row
/// range through one GEMM per weight; on a one-thread pool the chunk is
/// the whole batch. Per-row numerics are identical to decoder_mlp.
void decoder_mlp_rows(const ModelConfig& cfg, const LayerWeights& w,
                      Tensor& x);

}  // namespace kf::model
