#include "kvcache/eviction_telemetry.h"

#include <algorithm>
#include <cmath>

#include "kvcache/kv_cache.h"

namespace kf::kv {

void EvictionTelemetry::begin_sequence(std::size_t span_tokens) {
  span_tokens_ = std::max<std::size_t>(1, span_tokens);
  position_totals_.fill(0);
  score_totals_.fill(0);
  decisions_ = 0;
  tokens_evicted_ = 0;
  tokens_kept_ = 0;
  score_sum_ = 0.0;
  score_min_ = 0.0;
  score_max_ = 0.0;
  score_samples_ = 0;
}

std::size_t EvictionTelemetry::score_bucket(double score) noexcept {
  if (!(score > 0.0)) {
    return 0;
  }
  const double b = 1.0 + std::floor(std::log2(score + 1.0));
  return std::min<std::size_t>(kScoreBuckets - 1,
                               static_cast<std::size_t>(b));
}

void EvictionTelemetry::record_decision(const KvCache& cache,
                                        std::span<const std::size_t> keep) {
  const std::size_t n = cache.size();
  ++decisions_;
  if (keep.size() >= n) {  // nothing evicted: count the decision only
    tokens_kept_ += n;
    return;
  }
  tokens_kept_ += keep.size();
  tokens_evicted_ += n - keep.size();

  const auto positions = cache.original_positions();
  std::size_t next_keep = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (next_keep < keep.size() && keep[next_keep] == i) {
      ++next_keep;
      continue;
    }
    // Row i is evicted.
    const std::size_t pos = positions[i];
    const std::size_t bucket = std::min(
        kPositionBuckets - 1, pos * kPositionBuckets / span_tokens_);
    ++position_totals_[bucket];
    for (std::size_t h = 0; h < cache.n_heads(); ++h) {
      const double score = cache.scores(h)[i];
      ++score_totals_[score_bucket(score)];
      if (score_samples_ == 0 || score < score_min_) score_min_ = score;
      if (score_samples_ == 0 || score > score_max_) score_max_ = score;
      score_sum_ += score;
      ++score_samples_;
    }
  }
}

EvictionSummary EvictionTelemetry::summary() const {
  EvictionSummary s;
  s.decisions = decisions_;
  s.tokens_evicted = tokens_evicted_;
  s.tokens_kept = tokens_kept_;
  s.position_counts = position_totals_;
  if (score_samples_ == 0) {
    return s;
  }
  s.score_min = score_min_;
  s.score_max = score_max_;
  s.score_mean = score_sum_ / static_cast<double>(score_samples_);
  // Nearest-rank walk over the log sketch; a bucket's representative is
  // its upper bound (2^b - 1), clamped into the exact extremes.
  const auto sketch_percentile = [&](double q) {
    const auto rank = std::max<std::uint64_t>(
        1, static_cast<std::uint64_t>(
               std::ceil(q * static_cast<double>(score_samples_))));
    std::uint64_t cumulative = 0;
    for (std::size_t b = 0; b < kScoreBuckets; ++b) {
      cumulative += score_totals_[b];
      if (cumulative >= rank) {
        const double upper =
            b == 0 ? 0.0 : std::exp2(static_cast<double>(b)) - 1.0;
        return std::clamp(upper, score_min_, score_max_);
      }
    }
    return score_max_;
  };
  s.score_p10 = sketch_percentile(0.10);
  s.score_p50 = sketch_percentile(0.50);
  s.score_p90 = sketch_percentile(0.90);
  return s;
}

void EvictionTelemetry::merge(const EvictionTelemetry& other) {
  for (std::size_t b = 0; b < kPositionBuckets; ++b) {
    position_totals_[b] += other.position_totals_[b];
  }
  for (std::size_t b = 0; b < kScoreBuckets; ++b) {
    score_totals_[b] += other.score_totals_[b];
  }
  decisions_ += other.decisions_;
  tokens_evicted_ += other.tokens_evicted_;
  tokens_kept_ += other.tokens_kept_;
  if (other.score_samples_ > 0) {
    if (score_samples_ == 0 || other.score_min_ < score_min_) {
      score_min_ = other.score_min_;
    }
    if (score_samples_ == 0 || other.score_max_ > score_max_) {
      score_max_ = other.score_max_;
    }
    score_sum_ += other.score_sum_;
    score_samples_ += other.score_samples_;
  }
}

}  // namespace kf::kv
