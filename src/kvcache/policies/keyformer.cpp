#include "kvcache/policies/keyformer.h"

#include <algorithm>
#include <stdexcept>

#include "cpu/kernels.h"
#include "obs/trace.h"

namespace kf::kv {

KeyformerPolicy::KeyformerPolicy(KeyformerConfig config)
    : config_(config), score_fn_(config.score) {
  if (config_.scope == ScoreScope::kShared && config_.score.damping < 1.0) {
    // begin_attend() damps the per-layer cache scores, which shared scope
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

void KeyformerPolicy::begin_attend(const PolicyContext& ctx) {
  KF_TRACE_SCOPE("policy.score", "policy");
  KvCache& cache = *ctx.cache;
  tau_ = config_.score.temperature.at(ctx.decode_step, sequence_.total_steps);
  if (config_.score.damping < 1.0) cache.damp_scores(config_.score.damping);
  if (config_.score.adjustment == LogitAdjustment::kNone) return;
  // zeta is drawn once per cached row, for the rows this call appended;
  // the covered rows keep theirs.
  const auto positions = cache.original_positions();
  for (std::size_t h = 0; h < cache.n_heads(); ++h) {
    for (std::size_t i = cache.noise(h).size(); i < cache.size(); ++i) {
      cache.append_noise(h, score_fn_.noise(ctx.layer, h, positions[i]));
    }
  }
}

void KeyformerPolicy::observe_row(KvCache& cache, std::size_t head,
                                  std::span<const float> logits,
                                  std::span<const float> /*probs*/) {
  KF_TRACE_SCOPE("policy.score", "policy");
  const std::size_t vis = logits.size();
  // Scratch row shared by every policy on this thread: an engine-built
  // policy lives as long as its request, so a row held per policy would
  // keep one cache row for a whole run.
  thread_local std::vector<double> increments;
  increments.resize(vis);
  // kNone keeps no noise row; the kernel then takes nullptr.
  const double* noise = config_.score.adjustment == LogitAdjustment::kNone
                            ? nullptr
                            : cache.noise(head).data();
  cpu::score_increments_stub.get()(logits.data(), noise, increments.data(),
                                   vis, tau_);
  if (config_.scope == ScoreScope::kPerLayer) {
    const auto scores = cache.scores(head);
    for (std::size_t i = 0; i < vis; ++i) scores[i] += increments[i];
  } else {
    const auto positions = cache.original_positions();
    for (std::size_t i = 0; i < vis; ++i) {
      const std::size_t pos = positions[i];
      if (pos < shared_scores_.size()) shared_scores_[pos] += increments[i];
    }
  }
}

void KeyformerPolicy::observe(const PolicyContext& ctx) {
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
