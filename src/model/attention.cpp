#include "model/attention.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <vector>

#include "core/numerics.h"
#include "core/threadpool.h"
#include "core/timing.h"
#include "cpu/kernels.h"
#include "model/positional.h"

namespace kf::model {

namespace {

constexpr float kNegInf = -std::numeric_limits<float>::infinity();

/// Effective position of cache slot i under the configured mode.
std::size_t key_position(const ModelConfig& cfg, const kv::KvCache& cache,
                         std::size_t i) {
  return cfg.position_mode == PositionMode::kOriginal
             ? cache.original_position(i)
             : i;
}

/// Appends one freshly projected K/V row, rotating each key head slice by
/// its (immutable) original position first when the storage contract calls
/// for pre-rotated keys. Mutates `k_row` in place.
void append_projected_row(const ModelConfig& cfg, std::span<float> k_row,
                          std::span<const float> v_row, std::size_t position,
                          kv::KvCache& cache) {
  const std::size_t dh = cfg.d_head();
  if (keys_stored_rotated(cfg)) {
    for (std::size_t h = 0; h < cfg.n_heads; ++h) {
      rope_rotate(k_row.subspan(h * dh, dh), position, cfg.rope_base);
    }
  }
  cache.append(k_row, v_row, position);
}

/// Row-batched append_projected_row over all rows of `k`/`v`.
void append_projected(const ModelConfig& cfg, Tensor& k, const Tensor& v,
                      std::span<const std::size_t> q_positions,
                      kv::KvCache& cache) {
  const std::size_t n_q = k.dim(0);
  for (std::size_t i = 0; i < n_q; ++i) {
    append_projected_row(cfg, k.row(i), v.row(i), q_positions[i], cache);
  }
}

/// The fused per-head attend of the decode kernel: per-head dots over the
/// cache's contiguous key segments, then one pass doing stable softmax and
/// weighted-value accumulation together. The new token's K/V row must
/// already be appended; `q_row` is the un-rotated projected query
/// (d_model floats). Sizes `out` for the cache's length, fills its logits
/// and probs, and writes the merged head contexts into `ctx_row` (d_model
/// floats) *without* the W_o projection; out.context is sized for the
/// caller to fill with the projected row.
void fused_decode_attend(const ModelConfig& cfg, std::span<const float> q_row,
                         std::size_t q_position, const kv::KvCache& cache,
                         AttentionResult& out, std::span<float> ctx_row) {
  const std::size_t h_count = cfg.n_heads;
  const std::size_t dh = cfg.d_head();
  const std::size_t key_len = cache.size();
  const std::size_t n_segs = cache.segment_count();
  assert(key_len > 0);
  out.n_q = 1;
  out.key_len = key_len;
  out.context = Tensor({1, cfg.d_model});
  out.logits = Tensor({h_count, 1, key_len});
  out.probs = Tensor({h_count, 1, key_len});

  const bool use_rope = cfg.positional == PositionalKind::kRoPE;
  const bool use_alibi = cfg.positional == PositionalKind::kALiBi;
  const bool stored_rotated = keys_stored_rotated(cfg);
  const float inv_sqrt_dh = 1.0F / std::sqrt(static_cast<float>(dh));

  // The decode token is the newest append, so every cached key is causally
  // visible (original positions ascend) — no masking pass needed.
  assert(cache.original_position(key_len - 1) == q_position);

  const std::size_t q_eff = cfg.position_mode == PositionMode::kOriginal
                                ? q_position
                                : key_len - 1;

  std::vector<float> q_head(dh);
  // Scratch for the one storage mode that cannot pre-rotate (RoPE + kNew).
  std::vector<float> rotated_scratch;
  if (use_rope && !stored_rotated) rotated_scratch.resize(key_len * dh);

  // Per-head segment views handed to the dispatched kernel (POD mirror of
  // kv::KvSegment, resolved fresh per head).
  std::vector<cpu::KvSegmentView> segs(n_segs);

  // ALiBi: effective key positions are head-independent; the bias row is
  // refilled per head (the slope changes) with the exact float-cast
  // expression the fused loop historically applied inline.
  std::vector<std::size_t> kpos;
  std::vector<float> bias;
  if (use_alibi) {
    kpos.resize(key_len);
    for (std::size_t i = 0; i < key_len; ++i) {
      kpos[i] = key_position(cfg, cache, i);
    }
    bias.resize(key_len);
  }

  const cpu::DecodeAttendFn attend = cpu::decode_attend_stub.get();

  for (std::size_t h = 0; h < h_count; ++h) {
    const float* q_src = q_row.data() + h * dh;
    for (std::size_t j = 0; j < dh; ++j) q_head[j] = q_src[j];
    if (use_rope) rope_rotate({q_head.data(), dh}, q_eff, cfg.rope_base);

    for (std::size_t s = 0; s < n_segs; ++s) {
      const kv::KvSegment seg = cache.segment(h, s);
      segs[s] = {seg.keys, seg.values, seg.first, seg.count};
    }

    // RoPE + kNew cannot pre-rotate stored keys: rotate a contiguous
    // scratch copy and let the kernel dot against it (V still streams
    // from the segments). Every other mode dots the segments directly —
    // per-row dots are independent, so segmentation never changes the
    // arithmetic and paged/contiguous caches stay bit-exact.
    const float* keys_override = nullptr;
    if (use_rope && !stored_rotated) {
      for (std::size_t s = 0; s < n_segs; ++s) {
        const kv::KvSegment seg = cache.segment(h, s);
        for (std::size_t r = 0; r < seg.count; ++r) {
          const std::size_t i = seg.first + r;
          float* dst = rotated_scratch.data() + i * dh;
          for (std::size_t j = 0; j < dh; ++j) dst[j] = seg.keys[r * dh + j];
          rope_rotate({dst, dh}, key_position(cfg, cache, i), cfg.rope_base);
        }
      }
      keys_override = rotated_scratch.data();
    }

    const float* bias_ptr = nullptr;
    if (use_alibi) {
      const double slope = alibi_slope(h, h_count);
      for (std::size_t i = 0; i < key_len; ++i) {
        bias[i] = static_cast<float>(
            -slope * static_cast<double>(q_eff - kpos[i]));
      }
      bias_ptr = bias.data();
    }

    // Dispatched fused kernel: per-row QK dots over the segment streams,
    // scale/bias, then one pass of stable softmax + weighted-V accumulate.
    attend(segs.data(), n_segs, q_head.data(), dh, inv_sqrt_dh, bias_ptr,
           keys_override, out.logits.data() + h * key_len,
           out.probs.data() + h * key_len, ctx_row.data() + h * dh, key_len);
  }
}

}  // namespace

AttentionResult attention_forward_general(
    const ModelConfig& cfg, const LayerWeights& w, const Tensor& x,
    std::span<const std::size_t> q_positions, kv::KvCache& cache,
    AttentionTimings* timings) {
  const std::size_t n_q = x.dim(0);
  const std::size_t d = cfg.d_model;
  const std::size_t h_count = cfg.n_heads;
  const std::size_t dh = cfg.d_head();
  assert(x.dim(1) == d && q_positions.size() == n_q);

  // Project Q, K, V for all new rows at once.
  double t0 = timings != nullptr ? now_seconds() : 0.0;
  Tensor q({n_q, d});
  Tensor k({n_q, d});
  Tensor v({n_q, d});
  matmul(x.span(), w.wq.span(), q.span(), n_q, d, d);
  matmul(x.span(), w.wk.span(), k.span(), n_q, d, d);
  matmul(x.span(), w.wv.span(), v.span(), n_q, d, d);
  if (timings != nullptr) {
    timings->project_seconds += now_seconds() - t0;
    t0 = now_seconds();  // append counts toward attend on every path
  }

  append_projected(cfg, k, v, q_positions, cache);

  const std::size_t key_len = cache.size();
  AttentionResult out;
  out.n_q = n_q;
  out.key_len = key_len;
  out.context = Tensor({n_q, d});
  out.logits = Tensor({h_count, n_q, key_len});
  out.probs = Tensor({h_count, n_q, key_len});

  const bool use_rope = cfg.positional == PositionalKind::kRoPE;
  const bool use_alibi = cfg.positional == PositionalKind::kALiBi;
  const bool stored_rotated = keys_stored_rotated(cfg);
  const float inv_sqrt_dh = 1.0F / std::sqrt(static_cast<float>(dh));

  // Per-(head, index) K/V row pointers, resolved once from the cache's
  // segment list (one segment per head for the contiguous arena, one per
  // block for a paged cache) so the parallel loops below never pay a
  // virtual lookup per row.
  std::vector<const float*> key_at(h_count * key_len);
  std::vector<const float*> value_at(h_count * key_len);
  {
    const std::size_t n_segs = cache.segment_count();
    for (std::size_t h = 0; h < h_count; ++h) {
      for (std::size_t s = 0; s < n_segs; ++s) {
        const kv::KvSegment seg = cache.segment(h, s);
        for (std::size_t r = 0; r < seg.count; ++r) {
          key_at[h * key_len + seg.first + r] = seg.keys + r * dh;
          value_at[h * key_len + seg.first + r] = seg.values + r * dh;
        }
      }
    }
  }

  // Effective key positions (fixed for this call).
  std::vector<std::size_t> key_pos(key_len);
  for (std::size_t i = 0; i < key_len; ++i) {
    key_pos[i] = key_position(cfg, cache, i);
  }
  // Effective query positions. Queries occupy the trailing n_q cache slots.
  std::vector<std::size_t> q_eff(n_q);
  for (std::size_t qi = 0; qi < n_q; ++qi) {
    q_eff[qi] = cfg.position_mode == PositionMode::kOriginal
                    ? q_positions[qi]
                    : key_len - n_q + qi;
  }

  // RoPE with mutable effective positions (PositionMode::kNew) is the one
  // case where keys cannot be stored pre-rotated: rotate a scratch copy
  // for this call. Under kOriginal the cache already holds rotated keys.
  std::vector<float> rotated_keys;  // [h, key_len, dh]
  if (use_rope && !stored_rotated) {
    rotated_keys.resize(h_count * key_len * dh);
    ThreadPool::global().parallel_for(
        key_len,
        [&](std::size_t i0, std::size_t i1) {
          for (std::size_t i = i0; i < i1; ++i) {
            for (std::size_t h = 0; h < h_count; ++h) {
              const float* src = key_at[h * key_len + i];
              float* dst = rotated_keys.data() + (h * key_len + i) * dh;
              for (std::size_t j = 0; j < dh; ++j) dst[j] = src[j];
              rope_rotate({dst, dh}, key_pos[i], cfg.rope_base);
            }
          }
        },
        /*grain=*/16);
  }

  // ALiBi slopes per head.
  std::vector<double> slopes(h_count, 0.0);
  if (use_alibi) {
    for (std::size_t h = 0; h < h_count; ++h) {
      slopes[h] = alibi_slope(h, h_count);
    }
  }

  float* logits_base = out.logits.data();
  float* probs_base = out.probs.data();
  float* ctx_base = out.context.data();

  ThreadPool::global().parallel_for(
      n_q,
      [&](std::size_t q0, std::size_t q1) {
        std::vector<float> q_head(dh);
        std::vector<float> ctx_head(dh);
        for (std::size_t qi = q0; qi < q1; ++qi) {
          const std::size_t q_orig = q_positions[qi];
          for (std::size_t h = 0; h < h_count; ++h) {
            // Query head vector, rotated if RoPE.
            const float* q_src = q.data() + qi * d + h * dh;
            for (std::size_t j = 0; j < dh; ++j) q_head[j] = q_src[j];
            if (use_rope) {
              rope_rotate({q_head.data(), dh}, q_eff[qi], cfg.rope_base);
            }

            float* lrow = logits_base + (h * n_q + qi) * key_len;
            for (std::size_t i = 0; i < key_len; ++i) {
              // Causality on original order.
              if (cache.original_position(i) > q_orig) {
                lrow[i] = kNegInf;
                continue;
              }
              const float* k_vec =
                  use_rope && !stored_rotated
                      ? rotated_keys.data() + (h * key_len + i) * dh
                      : key_at[h * key_len + i];
              float acc = 0.0F;
              for (std::size_t j = 0; j < dh; ++j) acc += q_head[j] * k_vec[j];
              acc *= inv_sqrt_dh;
              if (use_alibi) {
                acc += static_cast<float>(
                    -slopes[h] *
                    static_cast<double>(q_eff[qi] >= key_pos[i]
                                            ? q_eff[qi] - key_pos[i]
                                            : 0));
              }
              lrow[i] = acc;
            }

            // Softmax (masked -inf entries become exactly 0).
            float* prow = probs_base + (h * n_q + qi) * key_len;
            softmax({lrow, key_len}, {prow, key_len});

            // Context for this head.
            for (std::size_t j = 0; j < dh; ++j) ctx_head[j] = 0.0F;
            for (std::size_t i = 0; i < key_len; ++i) {
              const float p = prow[i];
              if (p == 0.0F) continue;
              const float* v_vec = value_at[h * key_len + i];
              for (std::size_t j = 0; j < dh; ++j) {
                ctx_head[j] += p * v_vec[j];
              }
            }
            float* ctx_dst = ctx_base + qi * d + h * dh;
            for (std::size_t j = 0; j < dh; ++j) ctx_dst[j] = ctx_head[j];
          }
        }
      },
      /*grain=*/4);
  if (timings != nullptr) {
    timings->attend_seconds += now_seconds() - t0;
    t0 = now_seconds();
  }

  // Output projection (in place over a copy).
  Tensor merged = out.context;
  matmul(merged.span(), w.wo.span(), out.context.span(), n_q, d, d);
  if (timings != nullptr) timings->project_seconds += now_seconds() - t0;
  return out;
}

std::vector<AttentionResult> attention_decode_batch(
    const ModelConfig& cfg, const LayerWeights& w, const Tensor& x,
    std::span<const DecodeBatchSlot> slots, AttentionTimings* timings) {
  const std::size_t b_count = slots.size();
  const std::size_t d = cfg.d_model;
  assert(x.dim(0) == b_count && x.dim(1) == d);
  std::vector<AttentionResult> results(b_count);

  // QKV projections: one GEMM per weight over the whole batch. Row b's
  // bits equal a batch of one (the gemm_rows contract), so no sequence's
  // result depends on its companions.
  double t0 = timings != nullptr ? now_seconds() : 0.0;
  Tensor q({b_count, d});
  Tensor k({b_count, d});
  Tensor v({b_count, d});
  matmul(x.span(), w.wq.span(), q.span(), b_count, d, d);
  matmul(x.span(), w.wk.span(), k.span(), b_count, d, d);
  matmul(x.span(), w.wv.span(), v.span(), b_count, d, d);
  if (timings != nullptr) {
    timings->project_seconds += now_seconds() - t0;
    t0 = now_seconds();  // append counts toward attend on both kernels
  }

  // Per-sequence append + fused attend, parallel across sequences: every
  // slot touches only its own cache, its own result and its own row of
  // the merged head contexts, so the loop is embarrassingly parallel
  // (callers guarantee distinct caches).
  Tensor merged({b_count, d});
  ThreadPool::global().parallel_for(
      b_count,
      [&](std::size_t b0, std::size_t b1) {
        for (std::size_t b = b0; b < b1; ++b) {
          kv::KvCache& cache = *slots[b].cache;
          append_projected_row(cfg, k.row(b), v.row(b), slots[b].q_position,
                               cache);
          fused_decode_attend(cfg, q.row(b), slots[b].q_position, cache,
                              results[b], merged.row(b));
        }
      },
      /*grain=*/1);
  if (timings != nullptr) {
    timings->attend_seconds += now_seconds() - t0;
    t0 = now_seconds();
  }

  // Output projection: one GEMM over the gathered contexts, then each row
  // back to its sequence's result.
  Tensor projected({b_count, d});
  matmul(merged.span(), w.wo.span(), projected.span(), b_count, d, d);
  for (std::size_t b = 0; b < b_count; ++b) {
    const auto row = projected.row(b);
    std::copy(row.begin(), row.end(), results[b].context.data());
  }
  if (timings != nullptr) timings->project_seconds += now_seconds() - t0;
  return results;
}

}  // namespace kf::model
