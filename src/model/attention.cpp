#include "model/attention.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <vector>

#include "core/threadpool.h"
#include "cpu/kernels.h"
#include "model/positional.h"
#include "obs/trace.h"

namespace kf::model {

namespace {

constexpr float kNegInf = -std::numeric_limits<float>::infinity();

/// Effective position of cache slot i under the configured mode.
std::size_t key_position(const ModelConfig& cfg, const kv::KvCache& cache,
                         std::size_t i) {
  return cfg.position_mode == PositionMode::kOriginal
             ? cache.original_positions()[i]
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

/// An AttentionResult sized for n_q query rows over key_len cached keys.
AttentionResult make_result(const ModelConfig& cfg, std::size_t n_q,
                            std::size_t key_len) {
  AttentionResult r;
  r.n_q = n_q;
  r.key_len = key_len;
  r.context = Tensor({n_q, cfg.d_model});
  r.logits = Tensor({cfg.n_heads, n_q, key_len});
  r.probs = Tensor({cfg.n_heads, n_q, key_len});
  return r;
}

/// RoPE + kNew cannot pre-rotate stored keys (their effective positions
/// move on compaction), so each call rotates every cached key once into a
/// contiguous [h, key_len, dh] scratch the fused attend dots against (V
/// still streams from the segments). Empty in every other mode.
std::vector<float> rotated_keys(const ModelConfig& cfg,
                                const kv::KvCache& cache) {
  if (cfg.positional != PositionalKind::kRoPE || keys_stored_rotated(cfg)) {
    return {};
  }
  const std::size_t dh = cfg.d_head();
  const std::size_t key_len = cache.size();
  const std::size_t n_segs = cache.segment_count();
  std::vector<float> rotated(cfg.n_heads * key_len * dh);
  ThreadPool::global().parallel_for(
      key_len,
      [&](std::size_t i0, std::size_t i1) {
        for (std::size_t h = 0; h < cfg.n_heads; ++h) {
          for (std::size_t s = 0; s < n_segs; ++s) {
            const kv::KvSegment seg = cache.segment(h, s);
            const std::size_t end = std::min(i1, seg.first + seg.count);
            for (std::size_t i = std::max(i0, seg.first); i < end; ++i) {
              const float* src = seg.keys + (i - seg.first) * dh;
              float* dst = rotated.data() + (h * key_len + i) * dh;
              std::copy(src, src + dh, dst);
              rope_rotate({dst, dh}, key_position(cfg, cache, i),
                          cfg.rope_base);
            }
          }
        }
      },
      /*grain=*/16);
  return rotated;
}

/// The one attend, for prompt and decode rows alike: query rows [r0, r1)
/// of one sequence's chunk against that sequence's cache. The chunk's
/// n_q = q_positions.size() tokens are the cache's newest entries (already
/// appended; cached positions ascend), so row qi sees exactly the prefix
/// [0, key_len - n_q + qi + 1). Each head's segment views are clipped to
/// that prefix and handed to the dispatched fused attend, then the masked
/// tail is filled with -inf logits and 0 probabilities. A decode step is
/// the one-row chunk, so a prompt row's bits equal that token decoded
/// alone. `q` holds the chunk's un-rotated projected queries (row qi at
/// q + qi * d_model); `rotated` is rotated_keys' scratch for this cache;
/// `out` is sized by make_result; `ctx` receives each row's merged head
/// contexts (d_model floats per row) before W_o.
void attend_rows(const ModelConfig& cfg, const float* q,
                 std::span<const std::size_t> q_positions,
                 const kv::KvCache& cache, std::span<const float> rotated,
                 std::size_t r0, std::size_t r1, AttentionResult& out,
                 float* ctx) {
  const std::size_t h_count = cfg.n_heads;
  const std::size_t d = cfg.d_model;
  const std::size_t dh = cfg.d_head();
  const std::size_t n_q = q_positions.size();
  const std::size_t key_len = cache.size();
  const std::size_t n_segs = cache.segment_count();
  assert(out.n_q == n_q && out.key_len == key_len && key_len >= n_q);
  assert(rotated.empty() || rotated.size() == h_count * key_len * dh);
  const std::size_t first_q = key_len - n_q;  // cache index of row 0

  const bool use_rope = cfg.positional == PositionalKind::kRoPE;
  const bool use_alibi = cfg.positional == PositionalKind::kALiBi;
  const float inv_sqrt_dh = 1.0F / std::sqrt(static_cast<float>(dh));

  std::vector<float> q_head(dh);
  // Per-head segment views (POD mirror of kv::KvSegment) and one row's
  // clipped copy of them.
  std::vector<cpu::KvSegmentView> segs(n_segs);
  std::vector<cpu::KvSegmentView> visible(n_segs);
  // ALiBi bias row, refilled per (head, row) as the slope and query move.
  std::vector<float> bias(use_alibi ? first_q + r1 : 0);

  const cpu::DecodeAttendFn attend = cpu::decode_attend_stub.get();

  for (std::size_t h = 0; h < h_count; ++h) {
    for (std::size_t s = 0; s < n_segs; ++s) {
      const kv::KvSegment seg = cache.segment(h, s);
      segs[s] = {seg.keys, seg.values, seg.first, seg.count};
    }
    const float* keys_override =
        rotated.empty() ? nullptr : rotated.data() + h * key_len * dh;
    const double slope = use_alibi ? alibi_slope(h, h_count) : 0.0;

    for (std::size_t qi = r0; qi < r1; ++qi) {
      const std::size_t vis = first_q + qi + 1;
      assert(cache.original_position(vis - 1) == q_positions[qi]);
      const std::size_t q_eff = cfg.position_mode == PositionMode::kOriginal
                                    ? q_positions[qi]
                                    : vis - 1;

      const float* q_src = q + qi * d + h * dh;
      std::copy(q_src, q_src + dh, q_head.begin());
      if (use_rope) rope_rotate(q_head, q_eff, cfg.rope_base);

      // Clip the views to [0, vis): whole segments before the boundary,
      // then the one it falls in, shortened.
      std::size_t n_vis = 0;
      for (; n_vis < n_segs && segs[n_vis].first < vis; ++n_vis) {
        visible[n_vis] = segs[n_vis];
      }
      visible[n_vis - 1].count = vis - visible[n_vis - 1].first;

      const float* bias_ptr = nullptr;
      if (use_alibi) {
        for (std::size_t i = 0; i < vis; ++i) {
          bias[i] = static_cast<float>(
              -slope *
              static_cast<double>(q_eff - key_position(cfg, cache, i)));
        }
        bias_ptr = bias.data();
      }

      float* lrow = out.logits.data() + (h * n_q + qi) * key_len;
      float* prow = out.probs.data() + (h * n_q + qi) * key_len;
      attend(visible.data(), n_vis, q_head.data(), dh, inv_sqrt_dh, bias_ptr,
             keys_override, lrow, prow, ctx + qi * d + h * dh, vis);
      std::fill(lrow + vis, lrow + key_len, kNegInf);
      std::fill(prow + vis, prow + key_len, 0.0F);
    }
  }
}

}  // namespace

AttentionResult attention_forward_general(
    const ModelConfig& cfg, const LayerWeights& w, const Tensor& x,
    std::span<const std::size_t> q_positions, kv::KvCache& cache) {
  const std::size_t n_q = x.dim(0);
  const std::size_t d = cfg.d_model;
  assert(x.dim(1) == d && q_positions.size() == n_q);

  // Project Q, K, V for all new rows at once.
  Tensor q({n_q, d});
  Tensor k({n_q, d});
  Tensor v({n_q, d});
  {
    KF_TRACE_SCOPE("prompt.project", "model");
    matmul(x.span(), w.wq.span(), q.span(), n_q, d, d);
    matmul(x.span(), w.wk.span(), k.span(), n_q, d, d);
    matmul(x.span(), w.wv.span(), v.span(), n_q, d, d);
  }

  AttentionResult out;
  Tensor merged({n_q, d});
  {
    KF_TRACE_SCOPE("prompt.attend", "model");
    for (std::size_t i = 0; i < n_q; ++i) {
      append_projected_row(cfg, k.row(i), v.row(i), q_positions[i], cache);
    }
    out = make_result(cfg, n_q, cache.size());
    const std::vector<float> rotated = rotated_keys(cfg, cache);
    ThreadPool::global().parallel_for(
        n_q,
        [&](std::size_t q0, std::size_t q1) {
          attend_rows(cfg, q.data(), q_positions, cache, rotated, q0, q1, out,
                      merged.data());
        },
        /*grain=*/4);
  }

  KF_TRACE_SCOPE("prompt.project", "model");
  matmul(merged.span(), w.wo.span(), out.context.span(), n_q, d, d);
  return out;
}

std::vector<AttentionResult> attention_decode_batch(
    const ModelConfig& cfg, const LayerWeights& w, const Tensor& x,
    std::span<const DecodeBatchSlot> slots) {
  const std::size_t b_count = slots.size();
  const std::size_t d = cfg.d_model;
  assert(x.dim(0) == b_count && x.dim(1) == d);
  std::vector<AttentionResult> results(b_count);

  // QKV projections: one GEMM per weight over the whole batch. Row b's
  // bits equal a batch of one (the gemm_rows contract), so no sequence's
  // result depends on its companions.
  Tensor q({b_count, d});
  Tensor k({b_count, d});
  Tensor v({b_count, d});
  {
    KF_TRACE_SCOPE("attn.project", "model");
    matmul(x.span(), w.wq.span(), q.span(), b_count, d, d);
    matmul(x.span(), w.wk.span(), k.span(), b_count, d, d);
    matmul(x.span(), w.wv.span(), v.span(), b_count, d, d);
  }

  // Per-sequence append + attend (a one-row chunk), parallel across
  // sequences: every slot touches only its own cache, its own result and
  // its own row of the merged head contexts, so the loop is
  // embarrassingly parallel (callers guarantee distinct caches).
  Tensor merged({b_count, d});
  {
    KF_TRACE_SCOPE("attn.attend", "model");
    ThreadPool::global().parallel_for(
        b_count,
        [&](std::size_t b0, std::size_t b1) {
          for (std::size_t b = b0; b < b1; ++b) {
            kv::KvCache& cache = *slots[b].cache;
            append_projected_row(cfg, k.row(b), v.row(b),
                                 slots[b].q_position, cache);
            results[b] = make_result(cfg, 1, cache.size());
            attend_rows(cfg, q.row(b).data(), {&slots[b].q_position, 1},
                        cache, rotated_keys(cfg, cache), 0, 1, results[b],
                        merged.row(b).data());
          }
        },
        /*grain=*/1);
  }

  // Output projection: one GEMM over the gathered contexts, then each row
  // back to its sequence's result.
  KF_TRACE_SCOPE("attn.project", "model");
  Tensor projected({b_count, d});
  matmul(merged.span(), w.wo.span(), projected.span(), b_count, d, d);
  for (std::size_t b = 0; b < b_count; ++b) {
    const auto row = projected.row(b);
    std::copy(row.begin(), row.end(), results[b].context.data());
  }
  return results;
}

}  // namespace kf::model
