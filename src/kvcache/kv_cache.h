// Per-layer Key/Value cache with the bookkeeping the paper's eviction
// policies need:
//   - K and V vectors per cached token and head,
//   - the *original* sequence position of every cached token (Table 3's
//     "Org Pos" mode and the recency ordering both rely on it),
//   - per-head accumulated score-function values f_theta that survive
//     compaction (Sections 3.3.2 and 2.3.1).
//
// KvCache is the storage-agnostic interface: positions and scores (small
// metadata) live here, while K/V float storage is the derived class's
// business. Two implementations exist:
//   - ContiguousKvCache (this header): one private head-major arena of
//     [capacity, d_head] rows per head, geometric growth — the classic
//     single-sequence layout;
//   - mem::PagedKvCache (src/mem): a chain of fixed-size token blocks
//     allocated from a shared BlockPool, so evicted memory returns to a
//     store other sequences draw from.
//
// The attend never assumes one contiguous span per head; it iterates
// *segments* — maximal contiguous [count, d_head] runs of a head's K (or
// V) rows. A contiguous cache exposes exactly one segment
// per head, a paged cache one per block. Per-row arithmetic is identical
// either way, so the two layouts are bit-exact (pinned by tests).
//
// Rotation contract: the cache stores whatever the attention layer appends.
// Under RoPE with PositionMode::kOriginal the attention layer appends keys
// *pre-rotated* by their (immutable) original position, so no per-step
// re-rotation is needed; under PositionMode::kNew effective positions change
// with compaction, so keys are stored unrotated and rotated at attention
// time (see model/attention.h).
//
// The cache is always ordered by ascending original position; appends carry
// strictly increasing positions and compaction preserves order. "Recent w
// tokens" is therefore always the last w rows.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "core/aligned.h"

namespace kf::kv {

/// One maximal contiguous run of a head's cached rows: `count` K rows and
/// `count` V rows of d_head floats each, row-major, covering cache indices
/// [first, first + count).
struct KvSegment {
  const float* keys = nullptr;
  const float* values = nullptr;
  std::size_t first = 0;
  std::size_t count = 0;
};

/// KV store interface for one decoder layer. Metadata (positions, scores)
/// and all validation live here; K/V float storage is virtual.
class KvCache {
 public:
  virtual ~KvCache() = default;

  std::size_t n_heads() const noexcept { return n_heads_; }
  std::size_t d_head() const noexcept { return d_head_; }

  /// Width of one full K or V token row (= n_heads * d_head).
  std::size_t row_width() const noexcept { return n_heads_ * d_head_; }

  /// Number of cached tokens.
  std::size_t size() const noexcept { return positions_.size(); }

  bool empty() const noexcept { return positions_.empty(); }

  /// Appends one token's K and V rows (each row_width() floats, head-
  /// concatenated token-major order) with its original sequence position.
  /// Positions must be strictly increasing. The row is scattered into the
  /// per-head storage.
  void append(std::span<const float> k_row, std::span<const float> v_row,
              std::size_t original_pos);

  /// Full K row of cached token idx, gathered back to token-major
  /// (head-concatenated) order. Copies; intended for tests/diagnostics.
  std::vector<float> key_row(std::size_t idx) const;
  /// Full V row of cached token idx (token-major gather; copies).
  std::vector<float> value_row(std::size_t idx) const;

  /// Per-head, per-token slices (d_head contiguous floats).
  virtual std::span<const float> key_head(std::size_t idx,
                                          std::size_t head) const = 0;
  virtual std::span<const float> value_head(std::size_t idx,
                                            std::size_t head) const = 0;

  /// Number of contiguous segments each head's rows split into (identical
  /// across heads; 0 when empty).
  virtual std::size_t segment_count() const noexcept = 0;
  /// Segment s of one head, ascending by `first`, jointly covering
  /// [0, size()).
  virtual KvSegment segment(std::size_t head, std::size_t s) const = 0;

  /// Original sequence position of cached token idx.
  std::size_t original_position(std::size_t idx) const;
  /// All original positions, ascending.
  std::span<const std::size_t> original_positions() const noexcept {
    return positions_;
  }

  /// Accumulated score-function values for one head (length == size()).
  std::span<double> scores(std::size_t head);
  std::span<const double> scores(std::size_t head) const;

  /// Adds v to head's score at idx.
  void add_score(std::size_t head, std::size_t idx, double v);

  /// Multiplies every score of every head by factor (damping, Fig 5).
  void damp_scores(double factor);

  /// Sum of per-head scores at idx (head-aggregated ranking value).
  double total_score(std::size_t idx) const;

  /// Keeps exactly the rows in `keep` (indices into the current layout,
  /// strictly ascending); drops everything else. Scores and positions
  /// are gathered along with K/V rows.
  void compact(std::span<const std::size_t> keep);

  /// Removes all tokens and scores (capacity is retained where the
  /// storage has any; a paged cache returns its blocks to the pool).
  void clear();

 protected:
  KvCache(std::size_t n_heads, std::size_t d_head);
  KvCache(const KvCache&) = default;
  KvCache& operator=(const KvCache&) = default;

  /// Storage hooks. append_rows runs with size() still the *new* token's
  /// index (metadata is pushed after); compact_rows gathers K/V only —
  /// the base gathers positions/scores; `keep` is pre-validated.
  virtual void append_rows(std::span<const float> k_row,
                           std::span<const float> v_row) = 0;
  virtual void compact_rows(std::span<const std::size_t> keep) = 0;
  virtual void clear_rows() = 0;

  /// Installs positions and per-head accumulated scores wholesale for rows
  /// the derived storage adopted without going through append() — a paged
  /// cache taking over a shared prefix chain. The cache must be empty;
  /// `scores` is one vector per head, each positions.size() long.
  void seed_metadata(std::span<const std::size_t> positions,
                     std::span<const std::vector<double>> scores);

 private:
  std::size_t n_heads_;
  std::size_t d_head_;
  std::vector<std::size_t> positions_;
  std::vector<std::vector<double>> scores_;  // [n_heads][size]
};

/// The classic single-arena implementation: each head owns one contiguous
/// segment of [capacity, d_head] rows, grown geometrically, so the decode
/// hot path streams over one run per head. `keys_head(h)` / `values_head(h)`
/// expose a head's whole live segment — the single-segment special case of
/// the KvSegment API.
class ContiguousKvCache final : public KvCache {
 public:
  /// n_heads/d_head describe row layout; capacity_hint preallocates.
  ContiguousKvCache(std::size_t n_heads, std::size_t d_head,
                    std::size_t capacity_hint = 0);

  ContiguousKvCache(const ContiguousKvCache&) = default;
  ContiguousKvCache& operator=(const ContiguousKvCache&) = default;

  std::span<const float> key_head(std::size_t idx,
                                  std::size_t head) const override;
  std::span<const float> value_head(std::size_t idx,
                                    std::size_t head) const override;

  std::size_t segment_count() const noexcept override {
    return empty() ? 0 : 1;
  }
  KvSegment segment(std::size_t head, std::size_t s) const override;

  /// One head's whole live K segment: [size, d_head] row-major, contiguous.
  std::span<const float> keys_head(std::size_t head) const;
  /// One head's whole live V segment: [size, d_head] row-major, contiguous.
  std::span<const float> values_head(std::size_t head) const;

  /// Tokens per head segment currently reserved.
  std::size_t capacity() const noexcept { return capacity_; }

  /// Full-arena reallocations performed so far. Growth is geometric
  /// (capacity at least doubles per reallocation), so a generation that
  /// starts from a capacity_hint covering its steady-state footprint pays
  /// zero reallocations, and a cold cache pays O(log size) — pinned by
  /// tests and relied on by the engine's capacity_hint derivation.
  std::size_t reallocations() const noexcept { return reallocations_; }

 protected:
  void append_rows(std::span<const float> k_row,
                   std::span<const float> v_row) override;
  void compact_rows(std::span<const std::size_t> keep) override;
  void clear_rows() override {}  // capacity retained; metadata clears size

 private:
  /// Grows the per-head segments to hold at least `need` tokens.
  void ensure_capacity(std::size_t need);

  std::size_t capacity_ = 0;  ///< tokens per head segment
  std::size_t reallocations_ = 0;
  /// Head-major: head h's token t lives at (h * capacity_ + t) * d_head_.
  /// 64-byte-aligned arenas with capacity_ rounded so every head's
  /// segment also starts on an alignment boundary (see ensure_capacity).
  AlignedVector<float> keys_;
  AlignedVector<float> values_;
};

}  // namespace kf::kv
