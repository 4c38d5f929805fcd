// Paged implementation of the kv::KvCache surface: one layer's K/V rows
// live in a chain of fixed-size token blocks allocated from a BlockPool,
// instead of a private contiguous arena.
//
// Layout inside each block is the same head-major [n_heads][block_tokens]
// [d_head] the contiguous cache uses per segment, so the attend streams
// per-block runs with identical per-row arithmetic — the paged and
// contiguous paths are bit-exact (pinned by the parity property tests).
//
// Chain invariant: blocks_.size() == ceil(size() / block_tokens) — the
// tail block is the only partially filled one and a fully-drained block is
// returned to the pool immediately (compact frees emptied tail blocks,
// clear and the destructor free everything). Freed memory therefore goes
// back to the *shared* pool free list, where the scheduler's admission
// reservations can hand it to another sequence — the mechanism that turns
// Keyformer's discarded tokens into serving capacity.
//
// No-throw growth: append_rows and the copy-on-write path run inside the
// batched decode step's parallel_for workers, where an escaping exception
// would take the whole process down — so block acquisition never throws.
// When the pool cannot hand out a block (pool exhausted mid-decode, or a
// chaos-test FaultInjector vetoed it), the cache falls back to a private
// heap "emergency block" (same payload layout, held in the chain slot
// itself) and latches alloc_failed(). The step's numerics stay exact —
// the rows are real, just not pool-backed — but the sequence is now over
// its physical budget, so the engine preempts it at the next step
// boundary and resumes it by recompute once a reservation is granted
// again.
//
// Copy-on-write sharing: adopt_prefix() lets an empty cache take over an
// immutable block chain (a prompt prefix another sequence already
// prefilled, handed out by the mem::PrefixIndex) by retaining each block
// instead of copying it. Shared blocks are read exactly like owned ones;
// the first *mutation* that would touch one — an append landing in a
// shared tail slot, or a compact gather writing into a shared destination
// block — copies that block into a freshly allocated private block first
// (counted as pool.cow_copies), so per-sequence score-based eviction keeps
// working over shared storage without ever perturbing the other readers.
// Releasing (clear, compact drains, destructor) decrements refcounts; the
// chain itself survives as long as the index or any reader holds it.
#pragma once

#include <memory>
#include <vector>

#include "kvcache/kv_cache.h"
#include "mem/block_pool.h"

namespace kf::mem {

class PagedKvCache final : public kv::KvCache {
 public:
  /// Builds an empty cache drawing blocks from `pool`. Geometry
  /// (n_heads/d_head/block_tokens) comes from the pool config.
  explicit PagedKvCache(BlockPool& pool);
  ~PagedKvCache() override;

  PagedKvCache(const PagedKvCache&) = delete;
  PagedKvCache& operator=(const PagedKvCache&) = delete;

  /// Blocks currently held (== ceil(size()/block_tokens)).
  std::size_t blocks_held() const noexcept { return blocks_.size(); }
  std::size_t block_tokens() const noexcept { return pool_.block_tokens(); }

  /// The block chain backing this cache, in token order. An emergency
  /// slot's entry names no pool block (see alloc_failed()).
  std::span<const BlockRef> blocks() const noexcept { return blocks_; }

  /// Adopts `chain` as this cache's first rows: retains every block
  /// (copy-on-write — nothing is copied until a mutation lands in one) and
  /// seeds positions 0..tokens-1 plus per-head accumulated scores. The
  /// cache must be empty and `tokens` a whole number of blocks, so
  /// subsequent appends open fresh private blocks.
  void adopt_prefix(std::span<const BlockRef> chain, std::size_t tokens,
                    std::span<const std::vector<double>> scores);

  /// Marks the first `blocks` chain blocks as shared: another reader (the
  /// prefix index) just retained them, so future mutations must
  /// copy-on-write. The inverse direction of adopt_prefix — the *donor*
  /// side of sharing.
  void mark_shared_prefix(std::size_t blocks);

  /// Blocks of this chain still shared (refcounted with other readers).
  std::size_t shared_blocks() const noexcept;

  /// True once any block acquisition fell back to emergency heap memory:
  /// this cache holds rows the pool never granted, so its sequence must be
  /// preempted (or retired) rather than keep decoding past the cap. The
  /// pool counts each fallback (pool.emergency_blocks).
  bool alloc_failed() const noexcept { return alloc_failed_; }

  std::span<const float> key_head(std::size_t idx,
                                  std::size_t head) const override;
  std::span<const float> value_head(std::size_t idx,
                                    std::size_t head) const override;

  std::size_t segment_count() const noexcept override {
    return blocks_.size();
  }
  kv::KvSegment segment(std::size_t head, std::size_t s) const override;

 protected:
  void append_rows(std::span<const float> k_row,
                   std::span<const float> v_row) override;
  void compact_rows(std::span<const std::size_t> keep) override;
  void clear_rows() override;

 private:
  void free_blocks_beyond(std::size_t live_tokens);
  /// Replaces a (possibly) shared chain block with a private copy before a
  /// write; no-op beyond unmarking when this cache is the last reader.
  void cow_block(std::size_t chain_idx);
  /// Points chain slot `chain_idx` at a fresh private block: from the
  /// pool, or — on failure — an emergency heap block (latches
  /// alloc_failed). Never throws for capacity.
  void fill_block(std::size_t chain_idx);
  /// Payload access to chain slot `chain_idx`, pool or emergency block.
  float* keys_of(std::size_t chain_idx, std::size_t head) const;
  float* values_of(std::size_t chain_idx, std::size_t head) const;

  BlockPool& pool_;
  std::vector<BlockRef> blocks_;
  /// shared_[i]: blocks_[i] was adopted and may still have other readers —
  /// mutations must go through cow_block() first. Parallel to blocks_.
  std::vector<bool> shared_;
  /// emergency_[i]: the heap payload (64-byte aligned like pool slabs)
  /// backing chain slot i when the pool refused it a block (blocks_[i]
  /// then names no pool block); null for pool blocks. Parallel to
  /// blocks_. Only this cache ever sees these payloads — they are
  /// invisible to the pool, the scheduler, and the prefix index.
  std::vector<AlignedFloatArray> emergency_;
  bool alloc_failed_ = false;
};

}  // namespace kf::mem
