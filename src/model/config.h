// Model configuration and the three scaled-down model families used across
// the paper's evaluation:
//   - GPT-J        -> RoPE rotary position embeddings
//   - Cerebras-GPT -> learned absolute position embeddings
//   - MPT          -> ALiBi linear biases
// (Section 4: "each using distinct position encoding techniques"). The
// reproduction runs these at laptop scale (d_model 128-256, 4-8 layers);
// the *positional algorithm* — the property the paper varies — is faithful.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <string>

namespace kf::model {

/// Positional-encoding family.
enum class PositionalKind { kRoPE, kALiBi, kLearned };

std::string to_string(PositionalKind kind);

/// How cached keys are positioned after eviction (Table 3 ablation):
/// kOriginal keeps each token's original sequence position; kNew re-indexes
/// tokens by their slot in the compacted cache.
enum class PositionMode { kOriginal, kNew };

std::string to_string(PositionMode mode);

/// How weights are generated (see weights.h).
enum class WeightStyle {
  kStructured,  ///< planted content/positional/mixing heads (default)
  kRandom,      ///< pure i.i.d. random (used by unit tests)
};

struct ModelConfig {
  std::string name = "tiny-rope";
  std::size_t vocab_size = 512;
  std::size_t d_model = 128;
  std::size_t n_layers = 4;
  std::size_t n_heads = 4;
  std::size_t d_ff = 256;
  std::size_t max_seq_len = 4096;
  PositionalKind positional = PositionalKind::kRoPE;
  /// Under RoPE this also fixes how keys are stored (pre-rotated under
  /// kOriginal, raw under kNew; see model/attention.h), so it must not
  /// change while any cache is non-empty.
  PositionMode position_mode = PositionMode::kOriginal;
  WeightStyle weight_style = WeightStyle::kStructured;
  std::uint64_t weight_seed = 42;
  double rope_base = 10000.0;
  /// Target magnitude of same-token content-head logits (controls how
  /// concentrated attention is; calibrated so that ~90% of attention mass
  /// falls on a minority of tokens, as in Fig 3b).
  double content_logit_scale = 6.0;
  /// Salience direction mixed into embeddings: every token gets
  /// `base_salience` of the shared direction (so all queries probe it) and
  /// tokens in [salient_begin, salient_end) get `fact_salience`. This is
  /// what makes a minority of tokens genuine attention "key tokens"
  /// (Fig 3b) whose eviction visibly damages generation. The range matches
  /// data::TokenClasses' fact range by construction.
  double fact_salience = 1.0;
  double base_salience = 0.1;
  /// Rank-1 amplification of the salience direction in W_k of content
  /// heads: raises fact-key logits for every query without inflating the
  /// filler-filler background (which a symmetric embedding boost would).
  /// The fact:filler key-logit separation scales with fact_salience /
  /// base_salience, the overall boost with this amplifier.
  double salience_key_amp = 9.0;
  /// Multiplier on the attention-output projection gain: controls how
  /// strongly attended (cached) content drives the residual stream versus
  /// the current token's own embedding.
  double attn_output_gain = 1.0;

  std::size_t salient_begin() const noexcept { return 4; }
  std::size_t salient_end() const noexcept {
    return 4 + std::min<std::size_t>(vocab_size / 4, 128);
  }

  std::size_t d_head() const noexcept { return d_model / n_heads; }

  /// Throws std::invalid_argument when dimensions are inconsistent.
  void validate() const;

  /// GPT-J-6B stand-in: RoPE.
  static ModelConfig gptj_like();
  /// Cerebras-GPT-6.7B stand-in: learned absolute positions.
  static ModelConfig cerebras_like();
  /// MPT-7B stand-in: ALiBi.
  static ModelConfig mpt_like();
  /// MPT-7B-storywriter stand-in: ALiBi with a long context window.
  static ModelConfig mpt_storywriter_like();
};

}  // namespace kf::model
