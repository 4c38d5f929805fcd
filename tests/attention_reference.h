// Test-only oracle for one attention layer: plain scalar loops for the
// projections, QK dots, causal mask, softmax and weighted values, with no
// dispatched kernel, segment clipping or shared scratch. The library's
// single attend (model/attention.cpp) serves prompt and decode rows alike,
// so parity tests compare both against this instead of against each other.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>
#include <span>
#include <vector>

#include "core/tensor.h"
#include "kvcache/kv_cache.h"
#include "model/attention.h"
#include "model/config.h"
#include "model/positional.h"
#include "model/weights.h"

namespace kf::model::reference {

/// out[n, cols] = x[n, rows] * w[rows, cols], accumulated in double.
inline Tensor project(const Tensor& x, const Tensor& w) {
  const std::size_t n = x.dim(0);
  const std::size_t rows = w.dim(0);
  const std::size_t cols = w.dim(1);
  Tensor out({n, cols});
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < cols; ++j) {
      double acc = 0.0;
      for (std::size_t k = 0; k < rows; ++k) {
        acc += static_cast<double>(x.at(i, k)) * w.at(k, j);
      }
      out.at(i, j) = static_cast<float>(acc);
    }
  }
  return out;
}

/// The key rows `x` should leave in the cache: x * W_k, each head slice
/// rotated by its original position when keys are stored pre-rotated.
inline Tensor expected_keys(const ModelConfig& cfg, const LayerWeights& w,
                            const Tensor& x,
                            std::span<const std::size_t> q_positions) {
  Tensor k = project(x, w.wk);
  if (keys_stored_rotated(cfg)) {
    const std::size_t dh = cfg.d_head();
    for (std::size_t i = 0; i < k.dim(0); ++i) {
      for (std::size_t h = 0; h < cfg.n_heads; ++h) {
        rope_rotate(k.row(i).subspan(h * dh, dh), q_positions[i],
                    cfg.rope_base);
      }
    }
  }
  return k;
}

/// The attention layer over rows `x` at original positions `q_positions`,
/// against `cache`, which must already hold those rows' K/V as its newest
/// entries (the kernel under test appended them). Each query attends
/// every cached key whose original position does not exceed its own.
inline AttentionResult attend(const ModelConfig& cfg, const LayerWeights& w,
                              const Tensor& x,
                              std::span<const std::size_t> q_positions,
                              const kv::KvCache& cache) {
  const std::size_t n_q = x.dim(0);
  const std::size_t d = cfg.d_model;
  const std::size_t h_count = cfg.n_heads;
  const std::size_t dh = cfg.d_head();
  const std::size_t key_len = cache.size();
  const bool use_rope = cfg.positional == PositionalKind::kRoPE;
  const bool use_alibi = cfg.positional == PositionalKind::kALiBi;
  const bool original = cfg.position_mode == PositionMode::kOriginal;
  const double inv_sqrt_dh = 1.0 / std::sqrt(static_cast<double>(dh));

  const Tensor q = project(x, w.wq);
  AttentionResult out;
  out.n_q = n_q;
  out.key_len = key_len;
  out.logits = Tensor({h_count, n_q, key_len});
  out.probs = Tensor({h_count, n_q, key_len});
  Tensor merged({n_q, d});

  const auto key_pos = [&](std::size_t i) {
    return original ? cache.original_position(i) : i;
  };
  std::vector<float> q_head(dh);
  std::vector<float> k_head(dh);
  for (std::size_t qi = 0; qi < n_q; ++qi) {
    const std::size_t q_eff = original ? q_positions[qi] : key_len - n_q + qi;
    for (std::size_t h = 0; h < h_count; ++h) {
      for (std::size_t j = 0; j < dh; ++j) q_head[j] = q.at(qi, h * dh + j);
      if (use_rope) rope_rotate(q_head, q_eff, cfg.rope_base);

      float* lrow = out.logits.data() + (h * n_q + qi) * key_len;
      float* prow = out.probs.data() + (h * n_q + qi) * key_len;
      for (std::size_t i = 0; i < key_len; ++i) {
        if (cache.original_position(i) > q_positions[qi]) {
          lrow[i] = -std::numeric_limits<float>::infinity();
          continue;
        }
        const auto k = cache.key_head(i, h);
        for (std::size_t j = 0; j < dh; ++j) k_head[j] = k[j];
        if (use_rope && !keys_stored_rotated(cfg)) {
          rope_rotate(k_head, key_pos(i), cfg.rope_base);
        }
        double acc = 0.0;
        for (std::size_t j = 0; j < dh; ++j) {
          acc += static_cast<double>(q_head[j]) * k_head[j];
        }
        acc *= inv_sqrt_dh;
        if (use_alibi) acc += alibi_bias(h, h_count, q_eff, key_pos(i));
        lrow[i] = static_cast<float>(acc);
      }

      double m = -std::numeric_limits<double>::infinity();
      for (std::size_t i = 0; i < key_len; ++i) {
        m = std::max(m, static_cast<double>(lrow[i]));
      }
      double sum = 0.0;
      for (std::size_t i = 0; i < key_len; ++i) {
        sum += std::exp(static_cast<double>(lrow[i]) - m);
      }
      std::vector<double> ctx(dh, 0.0);
      for (std::size_t i = 0; i < key_len; ++i) {
        const double p = std::exp(static_cast<double>(lrow[i]) - m) / sum;
        prow[i] = static_cast<float>(p);
        const auto v = cache.value_head(i, h);
        for (std::size_t j = 0; j < dh; ++j) ctx[j] += p * v[j];
      }
      for (std::size_t j = 0; j < dh; ++j) {
        merged.at(qi, h * dh + j) = static_cast<float>(ctx[j]);
      }
    }
  }
  out.context = project(merged, w.wo);
  return out;
}

}  // namespace kf::model::reference
