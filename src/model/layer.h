// Pre-LayerNorm decoder-layer blocks, over every row of a forward pass
// (the rows of one or more sequences' runs, see model/attention.h):
//   x += W_o * Attention(LN1(x))     (attention block, returns internals)
//   x += W2 * GELU(W1 * LN2(x) + b1) + b2
// Every row's arithmetic is its own, so a row's bits do not depend on the
// other rows of the call.
#pragma once

#include <span>
#include <vector>

#include "core/tensor.h"
#include "model/attention.h"
#include "model/config.h"
#include "model/weights.h"

namespace kf::model {

/// The attention block: LN1 per row, one self_attention over `runs` (the
/// runs' rows of `x`, back to back) with the model's RoPE table `rope`,
/// residual add per row, updating `x` in place. Returns each run's
/// attention internals, in run order, with the logit and probability
/// tensors only under Internals::kKeep (for instrumentation). Traced by
/// self_attention's spans; LN1 and the residual add count toward the
/// caller's span.
std::vector<AttentionResult> decoder_attention(
    const ModelConfig& cfg, const LayerWeights& w, const RopeTable& rope,
    Tensor& x, std::span<const AttentionRun> runs, Phase phase,
    Internals internals);

/// The MLP block over the rows of `x` in place, split across the thread
/// pool by run: a worker runs whole runs' rows through one GEMM per
/// weight. A decode step's runs are its rows, whose GEMMs can sit below
/// matmul's own parallel threshold; a lone run (a prompt chunk, or a
/// one-sequence step) stays on the caller, where matmul splits a large
/// GEMM itself. Per-row numerics do not depend on the split.
void decoder_mlp(const ModelConfig& cfg, const LayerWeights& w, Tensor& x,
                 std::span<const AttentionRun> runs);

}  // namespace kf::model
