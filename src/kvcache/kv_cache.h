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
// runs as *segments*. Per-row arithmetic never depends on where a segment
// boundary falls, so outputs are bit-identical across block sizes and
// segment layouts (pinned by tests). A serving engine's sequences share
// one pool, so evicted memory returns to a store other sequences draw
// from; a standalone kv::SequenceKvState owns a private pool.
//
// Shared prefix region: adopt_prefix() lets an empty cache take over an
// immutable block chain (a prompt prefix another sequence prefilled,
// handed out by the mem::PrefixIndex) by retaining each block instead of
// copying it, and mark_shared_prefix() turns a donor's own leading blocks
// into such a region once the index retains them. The region covers the
// original positions [0, S) for a whole number of blocks S. Its rows are
// never written again: each sits at chain slot position / block_tokens,
// slot position % block_tokens, so the positions array is its row map.
// Eviction drops a shared row from the metadata and leaves its K/V where
// it is; a shared block goes back (one reference released) once it holds
// no kept row, and its chain slot then names no block (kNoBlock). Nothing
// is ever copied, so sharing survives eviction and other readers never
// see a change.
//
// Chain invariant: the chain is S / block_tokens shared slots, then
// ceil(private rows / block_tokens) private blocks. Private rows (every
// row past the shared ones) stay dense: private row j sits in private
// block j / block_tokens, slot j % block_tokens, and compact gathers them
// forward like an unshared cache. Appends always land in private blocks.
// Of those only the tail is partially filled, and a private block that
// holds no live row goes back to the pool at once. When a compact
// finds this cache the only reader of every shared block it still holds
// (the index dropped the entry and no other adopter remains), it folds
// the region into the dense layout in place, with no copy, so an orphaned
// adopter's footprint stays within its admission charge. Only blocks this
// cache alone holds are ever written (asserted in debug builds).
//
// No-throw growth: appends run inside the batched decode step's
// parallel_for workers, where an escaping exception would take the whole
// process down, so block acquisition never throws. When the pool cannot
// hand out a block (exhausted mid-decode, or a chaos-test FaultInjector
// vetoed it), the cache falls back to a private heap "emergency block"
// (same payload layout, held in the chain slot itself) and latches
// alloc_failed(). The step's numerics stay exact, but the sequence is now
// over its physical budget, so the engine preempts it at the next step
// boundary and resumes it by recompute.
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
#include <cstdint>
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
  /// Positions must be strictly increasing and past the shared prefix. The
  /// row is scattered into the per-head storage of the private tail.
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
  /// maximal run of consecutive positions inside one shared block, then
  /// one per private block (0 when empty).
  std::size_t segment_count() const noexcept {
    return shared_runs_.size() + blocks_.size() - shared_slots_;
  }
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
  /// positions are gathered (the kept covered rows stay the covered
  /// prefix). Kept shared rows stay where they are and a shared block
  /// with no kept row is released; private K/V rows gather forward and
  /// emptied private tail blocks return to the pool. Folds the shared
  /// region into the dense layout when this cache is its last reader.
  void compact(std::span<const std::size_t> keep);

  /// Removes all tokens, scores and noise and returns every block to the
  /// pool.
  void clear();

  /// The pool this cache draws its blocks from.
  const mem::BlockPool& pool() const noexcept { return pool_; }

  /// Id of a shared chain slot whose block was released (no kept row).
  static constexpr std::uint32_t kNoBlock = UINT32_MAX;

  /// Blocks currently held: the shared blocks still holding a kept row
  /// plus ceil(private rows / block_tokens).
  std::size_t blocks_held() const noexcept {
    return blocks_.size() - released_slots();
  }

  /// The block chain backing this cache, in token order: the shared
  /// region's slots, then the private blocks. A released shared slot's
  /// entry has id kNoBlock; an emergency slot's entry names no pool block
  /// (see alloc_failed()).
  std::span<const mem::BlockRef> blocks() const noexcept { return blocks_; }

  /// Adopts `chain` as this cache's shared prefix region: retains every
  /// block (nothing is copied, and no path ever writes them) and seeds
  /// positions 0..tokens-1, per-head accumulated scores (`scores` is one
  /// vector per head, each `tokens` long) and per-head noise rows
  /// (`noise`, one vector per head, each at most `tokens` long). The
  /// cache must be empty and `tokens` a whole number of blocks, so later
  /// appends open fresh private blocks.
  void adopt_prefix(std::span<const mem::BlockRef> chain, std::size_t tokens,
                    std::span<const std::vector<double>> scores,
                    std::span<const std::vector<double>> noise);

  /// Extends the shared region over the first `blocks` chain blocks:
  /// another reader (the prefix index) just retained them, so they are
  /// never written again. The donor side of adopt_prefix; rows 0 ..
  /// blocks * block_tokens - 1 must all be present (positions equal to
  /// their indices). A region already at least that long stays as it is.
  void mark_shared_prefix(std::size_t blocks);

  /// Blocks of the shared region this cache still holds.
  std::size_t shared_blocks() const noexcept {
    return shared_slots_ - released_slots();
  }
  /// Leading rows that lie in the shared region; the rest are private.
  std::size_t shared_rows() const noexcept { return shared_rows_; }
  /// Private blocks: blocks_held() - shared_blocks(), without counting the
  /// released shared slots.
  std::size_t private_blocks() const noexcept {
    return blocks_.size() - shared_slots_;
  }

  /// True once any block acquisition fell back to emergency heap memory:
  /// this cache holds rows the pool never granted, so its sequence must be
  /// preempted (or retired) rather than keep decoding past the cap. The
  /// pool counts each fallback (pool.emergency_blocks). clear() resets it
  /// with the blocks.
  bool alloc_failed() const noexcept { return alloc_failed_; }

 private:
  /// One shared segment: its first cache row, and the chain slot and
  /// in-block slot that row sits at.
  struct SharedRun {
    std::size_t first = 0;
    std::size_t slot = 0;
    std::size_t offset = 0;
  };

  /// Shared slots whose block was released.
  std::size_t released_slots() const noexcept;
  /// Chain slot and in-block slot of cache row idx.
  std::size_t chain_slot(std::size_t idx) const;
  std::size_t block_slot(std::size_t idx) const;
  /// Makes the rows of the first `blocks` chain blocks, present at their
  /// own indices, the whole shared region, one segment run per block
  /// (blocks == 0: no region).
  void share_leading_blocks(std::size_t blocks);
  /// Returns every chain slot past the first `chain_slots`.
  void free_blocks_beyond(std::size_t chain_slots);
  /// Releases shared slot `b`'s block, if it still holds one.
  void release_shared_slot(std::size_t b);
  /// True when every shared block still held has no reader but this cache.
  bool sole_reader_of_shared() const;
  /// Folds the shared region into the dense layout: every row gathers
  /// forward into the held blocks, in place, and the region ends.
  void fold_shared_region();
  /// Points chain slot `chain_idx` at a fresh private block: from the
  /// pool, or on failure an emergency heap block (latches alloc_failed).
  /// Never throws for capacity.
  void fill_block(std::size_t chain_idx);
  /// Payload access to chain slot `chain_idx`, pool or emergency block:
  /// one head's [block_tokens, d_head] rows.
  const float* keys_of(std::size_t chain_idx, std::size_t head) const;
  const float* values_of(std::size_t chain_idx, std::size_t head) const;
  /// The same rows for writing, the only way any path writes: asserts
  /// (debug builds) that the slot is an emergency block or a pool block
  /// no other reader holds (refcount 1).
  float* keys_to_write(std::size_t chain_idx, std::size_t head);
  float* values_to_write(std::size_t chain_idx, std::size_t head);

  mem::BlockPool& pool_;
  std::size_t n_heads_;
  std::size_t d_head_;
  std::size_t block_tokens_;
  std::vector<std::size_t> positions_;
  std::vector<std::vector<double>> scores_;  // [n_heads][size]
  std::vector<std::vector<double>> noise_;   // [n_heads][<= size]
  std::vector<mem::BlockRef> blocks_;
  /// Chain slots of the shared region, which covers original positions
  /// [0, shared_slots_ * block_tokens); 0 when there is none.
  std::size_t shared_slots_ = 0;
  /// Leading cache rows whose positions lie in the shared region.
  std::size_t shared_rows_ = 0;
  /// One per maximal run of consecutive positions inside one shared
  /// block, ascending.
  std::vector<SharedRun> shared_runs_;
  /// emergency_[i]: the heap payload (64-byte aligned like pool slabs)
  /// backing chain slot i when the pool refused it a block (blocks_[i]
  /// then names no pool block); null for pool blocks. Only this cache
  /// ever sees these payloads: they are invisible to the pool, the
  /// scheduler and the prefix index.
  std::vector<AlignedFloatArray> emergency_;
  bool alloc_failed_ = false;
};

}  // namespace kf::kv
