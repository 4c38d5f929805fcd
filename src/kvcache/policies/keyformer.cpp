#include "kvcache/policies/keyformer.h"

#include <algorithm>
#include <cassert>

#include "cpu/kernels.h"
#include "obs/trace.h"

namespace kf::kv {

KeyformerPolicy::KeyformerPolicy(KeyformerConfig config)
    : config_(config), score_fn_(config.score) {}

void KeyformerPolicy::begin_sequence(const SequenceInfo& info) {
  EvictionPolicy::begin_sequence(info);
  // Bound memo memory to one sequence: in a long-lived server the noise
  // tables would otherwise accumulate every sequence's positions forever.
  score_fn_.reset_noise();
  shared_scores_.assign(
      config_.scope == ScoreScope::kShared
          ? info.prompt_len + info.total_steps + 1
          : 0,
      0.0);
}

std::vector<double> KeyformerPolicy::export_score_state(
    std::size_t prefix_len) const {
  if (config_.scope != ScoreScope::kShared) return {};
  const std::size_t n = std::min(prefix_len, shared_scores_.size());
  return {shared_scores_.begin(),
          shared_scores_.begin() + static_cast<long>(n)};
}

void KeyformerPolicy::import_score_state(std::span<const double> state) {
  if (config_.scope != ScoreScope::kShared) return;
  const std::size_t n = std::min(state.size(), shared_scores_.size());
  std::copy_n(state.begin(), n, shared_scores_.begin());
}

void KeyformerPolicy::accumulate(const PolicyContext& ctx) {
  KvCache& cache = *ctx.cache;
  assert(ctx.key_len == cache.size() && ctx.n_queries <= ctx.key_len);
  const auto positions = cache.original_positions();
  // Scratch rows shared by every policy on this thread: an engine-built
  // policy lives as long as its request, so rows held per policy would
  // keep one cache row each for a whole run.
  thread_local std::vector<double> increments;
  thread_local std::vector<double> head_noise;
  increments.resize(ctx.key_len);
  head_noise.resize(ctx.key_len);
  const double tau =
      config_.score.temperature.at(ctx.decode_step, ctx.total_steps);
  const cpu::ScoreIncrementsFn score = cpu::score_increments_stub.get();

  if (config_.score.damping < 1.0) cache.damp_scores(config_.score.damping);

  // Query row q sees the first first_q + q + 1 keys; its masked tail
  // (-inf logits) would only add exact zeros, so the kernel runs over the
  // visible prefix alone. A decode row sees the whole cache.
  const std::size_t first_q = ctx.key_len - ctx.n_queries;
  for (std::size_t h = 0; h < ctx.n_heads; ++h) {
    const bool noisy = score_fn_.noise_row(ctx.layer, h, positions, head_noise);
    const double* noise = noisy ? head_noise.data() : nullptr;
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
