// Eviction-decision introspection: which tokens did a policy evict,
// where did they sit in the sequence, and how much accumulated score did
// they carry when they were dropped? This is the paper's fig-3 question
// ("key tokens are an emergent property — a small set of positions gets
// most of the attention") turned into a live serving surface: every
// compaction a policy executes is recorded here, so any serving run can
// report the position distribution of evicted tokens instead of only
// the offline sweep.
//
// Threading model: one telemetry instance per sequence, written
// single-threaded by that sequence's policy inside the batched decode
// step's parallel_for worker, read by the engine loop
// after the step joins (and merged into an engine-lifetime aggregate at
// retirement, behind the engine's stats mutex). Never shared between
// concurrently-observed sequences.
//
// Recompute-based resume replays a preempted sequence's decode steps, so
// its evictions are recorded again — the counters report decisions
// *executed* (like EngineStats::resume_replayed_tokens), not unique
// tokens dropped. A replay of several tokens decides layer by layer (all
// its rows in layer 0, then in layer 1, ...), so the same decisions reach
// the sink in another order than the original steps sent them: every
// count, position bucket, score extreme and sketch percentile is the
// same, but score_mean, a sum of doubles in decision order, may move in
// its last bits.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>

namespace kf::kv {

class KvCache;

/// Per-sequence digest of eviction activity, attached to a serving
/// Response. Position buckets are fractions of the sequence's full span
/// (prompt + planned generation): bucket b covers original positions in
/// [b/16, (b+1)/16) of the span — a coarse fig-3 x-axis.
struct EvictionSummary {
  static constexpr std::size_t kPositionBuckets = 16;

  std::uint64_t decisions = 0;       ///< compaction events (one per layer hit)
  std::uint64_t tokens_evicted = 0;  ///< cache rows dropped, summed
  std::uint64_t tokens_kept = 0;     ///< cache rows retained at decisions
  /// Evicted-token counts by relative original position (each dropped row
  /// counted once per layer decision, not per head).
  std::array<std::uint64_t, kPositionBuckets> position_counts{};
  /// Head-aggregated accumulated score at the moment of eviction: exact
  /// extremes and mean, log-sketch percentiles (within one power-of-two
  /// bucket of the true value).
  double score_min = 0.0;
  double score_max = 0.0;
  double score_mean = 0.0;
  double score_p10 = 0.0;
  double score_p50 = 0.0;
  double score_p90 = 0.0;
};

/// Single-writer sink an EvictionPolicy records its keep/evict decisions
/// into (see EvictionPolicy::set_eviction_sink). Holds the histograms of
/// evicted-token positions and score-at-eviction, summed over layers and
/// heads, plus the scalar decision counters behind EvictionSummary.
class EvictionTelemetry {
 public:
  static constexpr std::size_t kPositionBuckets =
      EvictionSummary::kPositionBuckets;
  /// Score sketch: bucket 0 holds scores <= 0, bucket b >= 1 holds
  /// (2^(b-1) - 1, 2^b - 1] — log2-spaced over accumulated softmax mass.
  static constexpr std::size_t kScoreBuckets = 24;

  /// Clears all counts. `span_tokens` is the full sequence span (prompt
  /// + planned decode tokens) the position buckets normalize against.
  void begin_sequence(std::size_t span_tokens);

  /// Records one compaction decision of `cache`, taken while the cache
  /// still holds its pre-compaction rows: every row index not in `keep`
  /// (sorted ascending) is recorded as evicted, bucketing its original
  /// position and its per-head accumulated scores.
  void record_decision(const KvCache& cache,
                       std::span<const std::size_t> keep);

  std::uint64_t decisions() const noexcept { return decisions_; }
  std::uint64_t tokens_evicted() const noexcept { return tokens_evicted_; }
  std::uint64_t tokens_kept() const noexcept { return tokens_kept_; }

  /// Evicted-position counts aggregated over layers (each dropped row
  /// counted once per layer decision).
  const std::array<std::uint64_t, kPositionBuckets>& position_totals()
      const noexcept {
    return position_totals_;
  }

  /// Distills the counters into the Response-facing digest.
  EvictionSummary summary() const;

  /// Accumulates `other` into this (the engine-lifetime aggregate).
  void merge(const EvictionTelemetry& other);

 private:
  static std::size_t score_bucket(double score) noexcept;

  std::size_t span_tokens_ = 1;
  std::array<std::uint64_t, kPositionBuckets> position_totals_{};
  std::array<std::uint64_t, kScoreBuckets> score_totals_{};
  std::uint64_t decisions_ = 0;
  std::uint64_t tokens_evicted_ = 0;
  std::uint64_t tokens_kept_ = 0;
  double score_sum_ = 0.0;
  double score_min_ = 0.0;
  double score_max_ = 0.0;
  std::uint64_t score_samples_ = 0;
};

}  // namespace kf::kv
