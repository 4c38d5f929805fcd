// The three positional-encoding algorithms of the evaluated model families.
//
//   RoPE (Su et al., 2022; GPT-J): rotates consecutive (even, odd) pairs of
//   the query/key head vector by pos * base^(-2i/d_head). Under
//   PositionMode::kOriginal keys are rotated once, at append, and stored
//   rotated; under kNew (Table 3's new-index ablation) their effective
//   position is their slot, which compaction moves, so they are stored
//   unrotated and rotated at attention time (model/attention.h).
//   RopeTable holds each model's cos and sin per (position, pair), so a
//   rotation is table reads and four multiplies per pair, not a
//   pow/cos/sin triple.
//
//   ALiBi (Press et al., 2021; MPT): adds -slope_h * (q_pos - k_pos) to the
//   attention logit; slopes form a geometric sequence per head.
//
//   Learned (Cerebras-GPT): a trainable absolute position embedding added
//   to the token embedding at the input; it travels with the token through
//   the cache, so eviction cannot change it.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "model/config.h"

namespace kf::model {

/// Rotates `vec` (length d_head, even) in place by RoPE at position `pos`,
/// computing each pair's frequency, cos and sin. The reference for
/// RopeTable, which only calls it past the table's end.
void rope_rotate(std::span<float> vec, std::size_t pos, double base);

/// RoPE's cos and sin per (position, pair) for positions [0, positions()),
/// filled with rope_rotate's own expressions, so rotate() gives
/// rope_rotate's bits. Read-only after construction: every layer, head,
/// sequence and thread of a model shares its one table. The default table
/// is empty and belongs to models without RoPE, which never rotate.
class RopeTable {
 public:
  RopeTable() = default;
  /// The table for d_head-wide heads (even) over positions
  /// [0, n_positions): n_positions * d_head doubles.
  RopeTable(std::size_t d_head, std::size_t n_positions, double base);

  /// rope_rotate(vec, pos, base) for a d_head-float `vec`: the pair
  /// arithmetic over row `pos` of the table, or rope_rotate itself when
  /// `pos` is at or past its end.
  void rotate(std::span<float> vec, std::size_t pos) const;

  std::size_t positions() const noexcept { return positions_; }

 private:
  std::size_t d_head_ = 0;
  std::size_t positions_ = 0;
  double base_ = 0.0;
  /// Row p holds cos and sin of pair i at [p * d_head + 2i] and [.. + 1].
  std::vector<double> cos_sin_;
};

/// ALiBi slope for `head` of `n_heads`. For n_heads a power of two this is
/// 2^(-8 (head+1) / n_heads); otherwise the standard interpolation over the
/// nearest powers of two is used.
double alibi_slope(std::size_t head, std::size_t n_heads);

/// ALiBi additive bias for a (query position, key position) pair.
/// Causal use guarantees k_pos <= q_pos; the bias is 0 at distance 0 and
/// decreases linearly with distance.
double alibi_bias(std::size_t head, std::size_t n_heads, std::size_t q_pos,
                  std::size_t k_pos);

}  // namespace kf::model
