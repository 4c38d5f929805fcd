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

/// Sizes `r`'s logit and probability tensors for n_q query rows over the
/// cache's keys, every entry masked (-inf and 0) until the attend writes
/// the rows' prefixes, and copies the keys' positions.
void keep_internals(const ModelConfig& cfg, std::size_t n_q,
                    const kv::KvCache& cache, AttentionResult& r) {
  const std::size_t key_len = cache.size();
  r.logits = Tensor({cfg.n_heads, n_q, key_len});
  r.logits.fill(kNegInf);
  r.probs = Tensor({cfg.n_heads, n_q, key_len});
  const auto positions = cache.original_positions();
  r.key_positions.assign(positions.begin(), positions.end());
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

/// The one attend, for prompt and decode rows alike: every query row of
/// one sequence's round against that sequence's cache, for heads [h0, h1).
/// The round's n_q = q_positions.size() tokens are the cache's newest
/// entries (already appended; cached positions ascend), so row qi sees
/// exactly the prefix [0, key_len - n_q + qi + 1). Each head's rows go in
/// blocks of cpu::kAttendRows, then a remainder of one to three: the
/// block's queries are rotated into scratch rows, its segment views
/// clipped to the last row's prefix, and one dispatched attend_rows call
/// attends the block, writing each row's logits and probabilities into
/// `kept`'s tensors when it is not null and into this thread's scratch
/// otherwise. After the call `policy` (may be null) scores the block's
/// rows from there, in ascending order, before the next block overwrites
/// the scratch. Each row keeps the one-row arithmetic and a decode step is
/// the one-row round, so a prompt row's bits equal that token decoded
/// alone. `q` holds the round's un-rotated projected queries (row qi at
/// q + qi * d_model); `rotated` is rotated_keys' scratch for this cache;
/// `ctx` receives each row's merged head contexts (d_model floats per row)
/// before W_o.
void attend_heads(const ModelConfig& cfg, const RopeTable& rope,
                  const float* q, std::span<const std::size_t> q_positions,
                  kv::KvCache& cache, std::span<const float> rotated,
                  kv::EvictionPolicy* policy, std::size_t h0, std::size_t h1,
                  AttentionResult* kept, float* ctx) {
  const std::size_t h_count = cfg.n_heads;
  const std::size_t d = cfg.d_model;
  const std::size_t dh = cfg.d_head();
  const std::size_t n_q = q_positions.size();
  const std::size_t key_len = cache.size();
  const std::size_t n_segs = cache.segment_count();
  assert(key_len >= n_q);
  assert(kept == nullptr || kept->logits.size() == h_count * n_q * key_len);
  assert(rotated.empty() || rotated.size() == h_count * key_len * dh);
  const std::size_t first_q = key_len - n_q;  // cache index of row 0
  const bool keep = kept != nullptr;

  const bool use_rope = cfg.positional == PositionalKind::kRoPE;
  const bool use_alibi = cfg.positional == PositionalKind::kALiBi;
  const float inv_sqrt_dh = 1.0F / std::sqrt(static_cast<float>(dh));

  constexpr std::size_t kRows = cpu::kAttendRows;
  // The block's rotated queries, one dh-float row per query row.
  std::vector<float> q_rows(kRows * dh);
  // Per-head segment views (POD mirror of kv::KvSegment) and their copy
  // clipped to the current block's visible prefix.
  std::vector<cpu::KvSegmentView> segs(n_segs);
  std::vector<cpu::KvSegmentView> visible(n_segs);
  // The block's ALiBi bias rows (stride key_len), refilled per (head,
  // block) as the slope and queries move.
  std::vector<float> bias(use_alibi ? kRows * key_len : 0);
  // The block's logit and probability rows when the tensors are not kept.
  thread_local std::vector<float> scratch;
  if (!keep) scratch.resize(2 * kRows * key_len);

  const cpu::AttendRowsFn attend_rows = cpu::attend_rows_stub.get();

  for (std::size_t h = h0; h < h1; ++h) {
    for (std::size_t s = 0; s < n_segs; ++s) {
      const kv::KvSegment seg = cache.segment(h, s);
      segs[s] = {seg.keys, seg.values, seg.first, seg.count};
    }
    std::size_t n_vis = 0;  // segments visible to the previous block
    const float* keys_override =
        rotated.empty() ? nullptr : rotated.data() + h * key_len * dh;
    const double slope = use_alibi ? alibi_slope(h, h_count) : 0.0;

    for (std::size_t q0 = 0; q0 < n_q; q0 += kRows) {
      const std::size_t rows = std::min(kRows, n_q - q0);
      const std::size_t vis0 = first_q + q0 + 1;  // keys row q0 sees
      const std::size_t vis = vis0 + rows - 1;    // keys the last row sees
      for (std::size_t r = 0; r < rows; ++r) {
        const std::size_t qi = q0 + r;
        assert(cache.original_position(vis0 + r - 1) == q_positions[qi]);
        const std::size_t q_eff = cfg.position_mode == PositionMode::kOriginal
                                      ? q_positions[qi]
                                      : vis0 + r - 1;
        const float* q_src = q + qi * d + h * dh;
        float* q_row = q_rows.data() + r * dh;
        std::copy(q_src, q_src + dh, q_row);
        if (use_rope) rope.rotate({q_row, dh}, q_eff);
        if (use_alibi) {
          float* b = bias.data() + r * key_len;
          for (std::size_t i = 0; i < vis0 + r; ++i) {
            b[i] = static_cast<float>(
                -slope *
                static_cast<double>(q_eff - key_position(cfg, cache, i)));
          }
        }
      }

      // Clip the views to the last row's [0, vis): whole segments before
      // the boundary, then the one it falls in, shortened. Blocks ascend,
      // so only the previous block's boundary segment and the ones past it
      // change.
      if (n_vis > 0) visible[n_vis - 1] = segs[n_vis - 1];
      for (; n_vis < n_segs && segs[n_vis].first < vis; ++n_vis) {
        visible[n_vis] = segs[n_vis];
      }
      visible[n_vis - 1].count = vis - visible[n_vis - 1].first;

      const std::size_t row = (h * n_q + q0) * key_len;
      float* lrow = keep ? kept->logits.data() + row : scratch.data();
      float* prow =
          keep ? kept->probs.data() + row : scratch.data() + kRows * key_len;
      float* ctx_row = ctx + q0 * d + h * dh;
      const float* bias_ptr = use_alibi ? bias.data() : nullptr;
      attend_rows(visible.data(), n_vis, q_rows.data(), dh, inv_sqrt_dh,
                  bias_ptr, keys_override, lrow, prow, key_len, ctx_row, d,
                  vis0, rows);
      if (policy != nullptr) {
        for (std::size_t r = 0; r < rows; ++r) {
          policy->observe_row(cache, h, {lrow + r * key_len, vis0 + r},
                              {prow + r * key_len, vis0 + r});
        }
      }
    }
  }
}

}  // namespace

std::vector<AttentionResult> self_attention(const ModelConfig& cfg,
                                            const LayerWeights& w,
                                            const RopeTable& rope,
                                            const Tensor& x,
                                            std::span<const AttentionRun> runs,
                                            Phase phase, Internals internals) {
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
    // Rounds per run, in parallel across runs: each run touches only its
    // own cache, policy, result and rows (callers guarantee distinct
    // caches and policies). A lone run, such as a prompt chunk, stays on
    // the caller and splits a round's heads across the pool instead, so
    // each head's rows reach the policy in order and each hook writes
    // only its own head's scores; inside a worker the head split runs
    // inline, so a decode step enters the pool once. A one-row round
    // attends every head on one worker: split four ways, a lone decode
    // row took 42 us against 18 inline (BM_AttentionDecodeStep<avx512>/
    // 256/1, 4 threads on a 4-vCPU VM).
    ThreadPool::global().parallel_for(
        runs.size(),
        [&](std::size_t r0, std::size_t r1) {
          for (std::size_t r = r0; r < r1; ++r) {
            const AttentionRun& run = runs[r];
            const std::size_t n_rows = run.positions.size();
            const std::size_t round = run.decode_step == 0 ? n_rows : 1;
            assert(round == n_rows || internals == Internals::kDrop);
            for (std::size_t i = 0; i < n_rows; i += round) {
              const std::size_t row0 = first_row[r] + i;
              const auto positions = run.positions.subspan(i, round);
              for (std::size_t j = 0; j < round; ++j) {
                append_projected_row(cfg, rope, k.row(row0 + j),
                                     v.row(row0 + j), positions[j],
                                     *run.cache);
              }
              results[r].key_len = run.cache->size();
              AttentionResult* kept = nullptr;
              if (internals == Internals::kKeep) {
                keep_internals(cfg, round, *run.cache, results[r]);
                kept = &results[r];
              }
              const kv::PolicyContext ctx{
                  run.layer, run.decode_step == 0 ? 0 : run.decode_step + i,
                  run.cache};
              if (run.policy != nullptr) run.policy->begin_attend(ctx);
              const std::vector<float> rotated =
                  rotated_keys(cfg, rope, *run.cache);
              const bool one_worker =
                  round == 1 || (run.policy != nullptr &&
                                 run.policy->scores_heads_in_order());
              ThreadPool::global().parallel_for(
                  cfg.n_heads,
                  [&](std::size_t h0, std::size_t h1) {
                    attend_heads(cfg, rope, q.row(row0).data(), positions,
                                 *run.cache, rotated, run.policy, h0, h1,
                                 kept, merged.row(row0).data());
                  },
                  /*grain=*/one_worker ? cfg.n_heads : 1);
              if (run.policy != nullptr) {
                KF_TRACE_SCOPE(prompt ? "prompt.observe" : "policy.observe",
                               "model");
                run.policy->observe(ctx);
              }
            }
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
    AttentionResult& res = results[r];
    res.n_q = runs[r].positions.size();
    res.context = Tensor({res.n_q, d});
    const float* src = projected.row(first_row[r]).data();
    std::copy(src, src + res.context.size(), res.context.data());
  }
  return results;
}

}  // namespace kf::model
