#include "kvcache/policies/keyformer.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>

#include "cpu/kernels.h"
#include "obs/trace.h"

namespace kf::kv {

KeyformerPolicy::KeyformerPolicy(KeyformerConfig config)
    : config_(config), score_fn_(config.score) {
  if (config_.scope == ScoreScope::kShared && config_.score.damping < 1.0) {
    // accumulate() damps the per-layer cache scores, which shared scope
    // neither writes nor ranks by: the setting would do nothing.
    throw std::invalid_argument(
        "Keyformer damping requires the per-layer score scope");
  }
}

void KeyformerPolicy::begin_sequence(const SequenceInfo& info) {
  EvictionPolicy::begin_sequence(info);
  shared_scores_.assign(
      config_.scope == ScoreScope::kShared
          ? info.prompt_len + info.total_steps + 1
          : 0,
      0.0);
}

void KeyformerPolicy::accumulate(const PolicyContext& ctx) {
  KvCache& cache = *ctx.cache;
  assert(ctx.key_len == cache.size() && ctx.n_queries <= ctx.key_len);
  const auto positions = cache.original_positions();
  // Scratch row shared by every policy on this thread: an engine-built
  // policy lives as long as its request, so a row held per policy would
  // keep one cache row for a whole run.
  thread_local std::vector<double> increments;
  increments.resize(ctx.key_len);
  const double tau =
      config_.score.temperature.at(ctx.decode_step, sequence_.total_steps);
  const cpu::ScoreIncrementsFn score = cpu::score_increments_stub.get();
  const bool noisy = config_.score.adjustment != LogitAdjustment::kNone;

  if (config_.score.damping < 1.0) cache.damp_scores(config_.score.damping);

  // Query row q sees the first first_q + q + 1 keys; its masked tail
  // (-inf logits) would only add exact zeros, so the kernel runs over the
  // visible prefix alone. A decode row sees the whole cache.
  const std::size_t first_q = ctx.key_len - ctx.n_queries;
  for (std::size_t h = 0; h < ctx.n_heads; ++h) {
    // zeta is drawn once per cached row, for the rows this observe added;
    // the covered rows keep theirs (the kernel takes nullptr for kNone).
    const double* noise = nullptr;
    if (noisy) {
      for (std::size_t i = cache.noise(h).size(); i < ctx.key_len; ++i) {
        cache.append_noise(h, score_fn_.noise(ctx.layer, h, positions[i]));
      }
      noise = cache.noise(h).data();
    }
    const float* base = ctx.logits.data() + h * ctx.n_queries * ctx.key_len;
    for (std::size_t q = 0; q < ctx.n_queries; ++q) {
      const std::size_t vis = first_q + q + 1;
      score(base + q * ctx.key_len, noise, increments.data(), vis, tau);
      if (config_.scope == ScoreScope::kPerLayer) {
        const auto scores = cache.scores(h);
        for (std::size_t i = 0; i < vis; ++i) scores[i] += increments[i];
      } else {
        for (std::size_t i = 0; i < vis; ++i) {
          const std::size_t pos = positions[i];
          if (pos < shared_scores_.size()) {
            shared_scores_[pos] += increments[i];
          }
        }
      }
    }
  }
}

void KeyformerPolicy::observe(const PolicyContext& ctx) {
  {
    KF_TRACE_SCOPE("policy.score", "policy");
    accumulate(ctx);
  }
  KvCache& cache = *ctx.cache;
  if (!over_budget(cache)) return;
  KF_TRACE_SCOPE("policy.evict", "policy");

  const std::size_t n = cache.size();
  const std::size_t k = budget_.max_tokens;
  const std::size_t w = std::min(budget_.recent_window, k);
  const std::size_t prefix = n - std::min(w, n);

  std::vector<double> ranking;
  if (config_.scope == ScoreScope::kPerLayer) {
    ranking = head_aggregated_scores(cache);
  } else {
    ranking.resize(n, 0.0);
    const auto positions = cache.original_positions();
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t pos = positions[i];
      ranking[i] = pos < shared_scores_.size() ? shared_scores_[pos] : 0.0;
    }
  }
  const auto keep = keep_topk_plus_recent(ranking, n, prefix, k - w);
  compact_cache(ctx, keep);
}

}  // namespace kf::kv
