// Deterministic weight generation.
//
// The reproduction cannot ship 7B-parameter checkpoints, so the structured
// generator plants the attention anatomy the paper's mechanism depends on:
//
//   - content heads: W_q / W_k near scaled identity, so a query attends to
//     cached tokens with similar embeddings (repeated salient tokens become
//     heavy hitters — the "key tokens" of Fig 3b);
//   - positional heads: W_q / W_k near zero, so ALiBi / RoPE geometry
//     dominates (recency structure, MPT-style heat maps of Fig 15);
//   - mixing heads: dense random projections (diffuse attention).
//
// W_v / W_o are identity-dominated so attended token embeddings survive
// into the residual stream; with an LM head over the raw token directions
// this yields echo/copy dynamics whose outputs visibly depend on which
// tokens remain cached — exactly the sensitivity the eviction study
// measures.
#pragma once

#include <cstdint>
#include <vector>

#include "core/tensor.h"
#include "model/config.h"
#include "model/positional.h"

namespace kf::model {

/// Weights of one decoder layer.
struct LayerWeights {
  Tensor wq, wk, wv, wo;  ///< each [d_model, d_model]
  Tensor ln1_gamma, ln1_beta;
  Tensor ln2_gamma, ln2_beta;
  Tensor w_ff1;  ///< [d_model, d_ff]
  Tensor b_ff1;  ///< [d_ff]
  Tensor w_ff2;  ///< [d_ff, d_model]
  Tensor b_ff2;  ///< [d_model]
};

/// All model parameters. The LM head is untied: it scores hidden states
/// against the *raw* token directions (without the shared salience
/// component), so next-token ranking reflects which tokens were actually
/// attended rather than the shared salience signal. It is stored
/// transposed, as the B operand of the logits GEMM: column t is token t's
/// unit-norm raw direction.
struct ModelWeights {
  Tensor embedding;      ///< [vocab, d_model], unit-norm rows (with salience)
  Tensor lm_head;        ///< [d_model, vocab], unit-norm raw columns
  Tensor pos_embedding;  ///< [max_seq, d_model] for kLearned, else empty
  RopeTable rope;        ///< [max_seq] positions for kRoPE, else empty
  Tensor final_gamma, final_beta;
  std::vector<LayerWeights> layers;

  /// Total parameter count (for reporting only).
  std::size_t parameter_count() const;
};

/// Kind of attention head planted by the structured generator.
enum class HeadRole { kContent, kPositional, kMixing };

/// Role assigned to (layer, head) by the structured generator: content /
/// positional / mixing cycling by head index.
HeadRole head_role(std::size_t layer, std::size_t head);

/// Config-aware role assignment. For ALiBi models the cycle runs from the
/// highest head index down, so content (long-range) heads receive the
/// *smallest* ALiBi slopes — mirroring trained MPT models, where low-slope
/// heads do the long-range work — and positional heads the largest.
HeadRole head_role_for(const ModelConfig& cfg, std::size_t layer,
                       std::size_t head);

/// Builds deterministic weights for the config (see file comment).
ModelWeights build_weights(const ModelConfig& config);

}  // namespace kf::model
