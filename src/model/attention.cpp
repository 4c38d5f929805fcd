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
void append_projected_row(const ModelConfig& cfg, const RopeTable& rope,
                          std::span<float> k_row, std::span<const float> v_row,
                          std::size_t position, kv::KvCache& cache) {
  const std::size_t dh = cfg.d_head();
  if (keys_stored_rotated(cfg)) {
    for (std::size_t h = 0; h < cfg.n_heads; ++h) {
      rope.rotate(k_row.subspan(h * dh, dh), position);
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
std::vector<float> rotated_keys(const ModelConfig& cfg, const RopeTable& rope,
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
              rope.rotate({dst, dh}, key_position(cfg, cache, i));
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
void attend_rows(const ModelConfig& cfg, const RopeTable& rope, const float* q,
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
  // Per-head segment views (POD mirror of kv::KvSegment) and their copy
  // clipped to the current row's visible prefix.
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
    std::size_t n_vis = 0;  // segments visible to the previous row
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
      if (use_rope) rope.rotate(q_head, q_eff);

      // Clip the views to [0, vis): whole segments before the boundary,
      // then the one it falls in, shortened. Rows ascend, so only the
      // previous row's boundary segment and the ones past it change.
      if (n_vis > 0) visible[n_vis - 1] = segs[n_vis - 1];
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

std::vector<AttentionResult> self_attention(const ModelConfig& cfg,
                                            const LayerWeights& w,
                                            const RopeTable& rope,
                                            const Tensor& x,
                                            std::span<const AttentionRun> runs,
                                            Phase phase) {
  [[maybe_unused]] const bool prompt = phase == Phase::kPrompt;  // span names
  const std::size_t n = x.dim(0);
  const std::size_t d = cfg.d_model;
  std::vector<std::size_t> first_row(runs.size());
  std::size_t rows = 0;
  for (std::size_t r = 0; r < runs.size(); ++r) {
    assert(!runs[r].positions.empty());
    first_row[r] = rows;
    rows += runs[r].positions.size();
  }
  assert(x.dim(1) == d && rows == n);

  // Q/K/V: one GEMM per weight over every row of the call.
  Tensor q({n, d});
  Tensor k({n, d});
  Tensor v({n, d});
  {
    KF_TRACE_SCOPE(prompt ? "prompt.project" : "attn.project", "model");
    matmul(x.span(), w.wq.span(), q.span(), n, d, d);
    matmul(x.span(), w.wk.span(), k.span(), n, d, d);
    matmul(x.span(), w.wv.span(), v.span(), n, d, d);
  }

  std::vector<AttentionResult> results(runs.size());
  Tensor merged({n, d});
  {
    KF_TRACE_SCOPE(prompt ? "prompt.attend" : "attn.attend", "model");
    // Append + attend per run, in parallel across runs: each run touches
    // only its own cache, result and rows (callers guarantee distinct
    // caches). A lone run, such as a prompt chunk, stays on the caller and
    // splits its rows across the pool instead; inside a worker the row
    // split runs inline, so a decode step enters the pool once.
    ThreadPool::global().parallel_for(
        runs.size(),
        [&](std::size_t r0, std::size_t r1) {
          for (std::size_t r = r0; r < r1; ++r) {
            const AttentionRun& run = runs[r];
            const std::size_t row0 = first_row[r];
            for (std::size_t i = 0; i < run.positions.size(); ++i) {
              append_projected_row(cfg, rope, k.row(row0 + i),
                                   v.row(row0 + i), run.positions[i],
                                   *run.cache);
            }
            results[r] =
                make_result(cfg, run.positions.size(), run.cache->size());
            const std::vector<float> rotated =
                rotated_keys(cfg, rope, *run.cache);
            ThreadPool::global().parallel_for(
                run.positions.size(),
                [&](std::size_t q0, std::size_t q1) {
                  attend_rows(cfg, rope, q.row(row0).data(), run.positions,
                              *run.cache, rotated, q0, q1, results[r],
                              merged.row(row0).data());
                },
                /*grain=*/4);
          }
        },
        /*grain=*/1);
  }

  // W_o: one GEMM over the gathered contexts, then each run's rows back
  // to its result.
  KF_TRACE_SCOPE(prompt ? "prompt.project" : "attn.project", "model");
  Tensor projected({n, d});
  matmul(merged.span(), w.wo.span(), projected.span(), n, d, d);
  for (std::size_t r = 0; r < runs.size(); ++r) {
    const float* src = projected.row(first_row[r]).data();
    std::copy(src, src + results[r].context.size(), results[r].context.data());
  }
  return results;
}

}  // namespace kf::model
