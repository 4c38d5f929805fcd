// Per-layer Key/Value cache with the bookkeeping the paper's eviction
// policies need:
//   - K and V vectors per cached token and head,
//   - the *original* sequence position of every cached token (Table 3's
//     "Org Pos" mode and the recency ordering both rely on it),
//   - per-head accumulated score-function values f_theta that survive
//     compaction (Sections 3.3.2 and 2.3.1),
//   - per-head frozen logit adjustments zeta (Keyformer's noise rows,
//     Algorithm 1), drawn once per cached row and compacted with it.
//
// Storage: one layer's K/V rows live in a chain of fixed-size token blocks
// allocated from a mem::BlockPool. Inside each block the layout is head-
// major, [n_heads][block_tokens][d_head] for K and then for V, so a head's
// rows in one block are one contiguous run. The attend iterates these
// runs as *segments*, one per block. Per-row arithmetic never depends on
// where a segment boundary falls, so outputs are bit-identical across
// block sizes (pinned by tests). A serving engine's sequences share one
// pool, so evicted memory returns to a store other sequences draw from;
// a standalone kv::SequenceKvState owns a private pool.
//
// Chain invariant: blocks().size() == ceil(size() / block_tokens). The
// tail block is the only partially filled one, and a block that holds no
// live row goes back to the pool at once (compact frees emptied tail
// blocks; clear and the destructor free everything).
//
// No-throw growth: appends and the copy-on-write path run inside the
// batched decode step's parallel_for workers, where an escaping exception
// would take the whole process down, so block acquisition never throws.
// When the pool cannot hand out a block (exhausted mid-decode, or a
// chaos-test FaultInjector vetoed it), the cache falls back to a private
// heap "emergency block" (same payload layout, held in the chain slot
// itself) and latches alloc_failed(). The step's numerics stay exact, but
// the sequence is now over its physical budget, so the engine preempts it
// at the next step boundary and resumes it by recompute.
//
// Copy-on-write sharing: adopt_prefix() lets an empty cache take over an
// immutable block chain (a prompt prefix another sequence prefilled,
// handed out by the mem::PrefixIndex) by retaining each block instead of
// copying it. Shared blocks are read exactly like owned ones; the first
// mutation that would touch one (an append landing in a shared tail slot,
// or a compact gather writing into a shared destination block) copies
// that block into a fresh private block first (counted as
// pool.cow_copies), so per-sequence eviction never perturbs other
// readers.
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
#include "mem/block_pool.h"

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

/// KV store of one decoder layer over a chain of pool blocks.
class KvCache {
 public:
  /// An empty cache drawing blocks from `pool`, which must outlive it.
  /// Geometry (n_heads, d_head, block_tokens) comes from the pool config.
  explicit KvCache(mem::BlockPool& pool);
  ~KvCache();

  KvCache(const KvCache&) = delete;
  KvCache& operator=(const KvCache&) = delete;

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
  std::span<const float> key_head(std::size_t idx, std::size_t head) const;
  std::span<const float> value_head(std::size_t idx, std::size_t head) const;

  /// Number of contiguous segments each head's rows split into: one per
  /// block (0 when empty).
  std::size_t segment_count() const noexcept { return blocks_.size(); }
  /// Segment s of one head, ascending by `first`, jointly covering
  /// [0, size()).
  KvSegment segment(std::size_t head, std::size_t s) const;

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

  /// Frozen logit adjustments zeta of one head's first noise(head).size()
  /// rows, never more than size(). Keyformer draws a row's zeta the first
  /// time it scores the row and reads it back at every later step; other
  /// policies leave the row empty.
  std::span<const double> noise(std::size_t head) const;

  /// Covers head's first uncovered row with `zeta`.
  void append_noise(std::size_t head, double zeta);

  /// Keeps exactly the rows in `keep` (indices into the current layout,
  /// strictly ascending); drops everything else. Scores, noise and
  /// positions are gathered along with K/V rows (the kept covered rows
  /// stay the covered prefix); emptied tail blocks return to the pool.
  void compact(std::span<const std::size_t> keep);

  /// Removes all tokens, scores and noise and returns every block to the
  /// pool.
  void clear();

  /// The pool this cache draws its blocks from.
  const mem::BlockPool& pool() const noexcept { return pool_; }

  /// Blocks currently held (== ceil(size() / block_tokens)).
  std::size_t blocks_held() const noexcept { return blocks_.size(); }

  /// The block chain backing this cache, in token order. An emergency
  /// slot's entry names no pool block (see alloc_failed()).
  std::span<const mem::BlockRef> blocks() const noexcept { return blocks_; }

  /// Adopts `chain` as this cache's first rows: retains every block
  /// (copy-on-write; nothing is copied until a mutation lands in one) and
  /// seeds positions 0..tokens-1, per-head accumulated scores (`scores`
  /// is one vector per head, each `tokens` long) and per-head noise rows
  /// (`noise`, one vector per head, each at most `tokens` long). The
  /// cache must be empty and `tokens` a whole number of blocks, so later
  /// appends open fresh private blocks.
  void adopt_prefix(std::span<const mem::BlockRef> chain, std::size_t tokens,
                    std::span<const std::vector<double>> scores,
                    std::span<const std::vector<double>> noise);

  /// Marks the first `blocks` chain blocks as shared: another reader (the
  /// prefix index) just retained them, so future mutations must
  /// copy-on-write. The donor side of adopt_prefix.
  void mark_shared_prefix(std::size_t blocks);

  /// Blocks of this chain still shared (refcounted with other readers).
  std::size_t shared_blocks() const noexcept;

  /// True once any block acquisition fell back to emergency heap memory:
  /// this cache holds rows the pool never granted, so its sequence must be
  /// preempted (or retired) rather than keep decoding past the cap. The
  /// pool counts each fallback (pool.emergency_blocks). clear() resets it
  /// with the blocks.
  bool alloc_failed() const noexcept { return alloc_failed_; }

 private:
  /// Returns every chain block past the first ceil(live_tokens / bt).
  void free_blocks_beyond(std::size_t live_tokens);
  /// Replaces a (possibly) shared chain block with a private copy before a
  /// write; no copy, only the unmark, when this cache is the last reader.
  void cow_block(std::size_t chain_idx);
  /// Points chain slot `chain_idx` at a fresh private block: from the
  /// pool, or on failure an emergency heap block (latches alloc_failed).
  /// Never throws for capacity.
  void fill_block(std::size_t chain_idx);
  /// Payload access to chain slot `chain_idx`, pool or emergency block:
  /// one head's [block_tokens, d_head] rows.
  float* keys_of(std::size_t chain_idx, std::size_t head) const;
  float* values_of(std::size_t chain_idx, std::size_t head) const;

  mem::BlockPool& pool_;
  std::size_t n_heads_;
  std::size_t d_head_;
  std::size_t block_tokens_;
  std::vector<std::size_t> positions_;
  std::vector<std::vector<double>> scores_;  // [n_heads][size]
  std::vector<std::vector<double>> noise_;   // [n_heads][<= size]
  std::vector<mem::BlockRef> blocks_;
  /// shared_[i]: blocks_[i] was adopted or indexed and may still have
  /// other readers; mutations go through cow_block() first.
  std::vector<bool> shared_;
  /// emergency_[i]: the heap payload (64-byte aligned like pool slabs)
  /// backing chain slot i when the pool refused it a block (blocks_[i]
  /// then names no pool block); null for pool blocks. Only this cache
  /// ever sees these payloads: they are invisible to the pool, the
  /// scheduler and the prefix index.
  std::vector<AlignedFloatArray> emergency_;
  bool alloc_failed_ = false;
};

}  // namespace kf::kv
