#include "mem/paged_kv_cache.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>

namespace kf::mem {

PagedKvCache::PagedKvCache(BlockPool& pool)
    : kv::KvCache(pool.config().n_heads, pool.config().d_head), pool_(pool) {}

PagedKvCache::~PagedKvCache() {
  for (std::size_t i = 0; i < blocks_.size(); ++i) {
    if (!emergency_[i]) pool_.release(blocks_[i]);
  }
}

void PagedKvCache::fill_block(std::size_t chain_idx) {
  if (const auto ref = pool_.try_allocate()) {
    blocks_[chain_idx] = *ref;
    return;
  }
  // Pool refusal (exhaustion or injected fault): fall back to a private
  // heap block so the in-flight decode step completes with exact rows,
  // and latch the failure for the engine's next-step-boundary check.
  alloc_failed_ = true;
  pool_.note_emergency_block();
  emergency_[chain_idx] = make_aligned_floats(2 * pool_.section_floats());
}

float* PagedKvCache::keys_of(std::size_t chain_idx, std::size_t head) const {
  if (const auto& heap = emergency_[chain_idx]) {
    return heap.get() + head * pool_.block_tokens() * d_head();
  }
  return pool_.keys(blocks_[chain_idx], head);
}

float* PagedKvCache::values_of(std::size_t chain_idx, std::size_t head) const {
  if (const auto& heap = emergency_[chain_idx]) {
    return heap.get() + pool_.section_floats() +
           head * pool_.block_tokens() * d_head();
  }
  return pool_.values(blocks_[chain_idx], head);
}

void PagedKvCache::adopt_prefix(std::span<const BlockRef> chain,
                                std::size_t tokens,
                                std::span<const std::vector<double>> scores) {
  const std::size_t bt = pool_.block_tokens();
  if (!empty() || !blocks_.empty()) {
    throw std::logic_error("PagedKvCache::adopt_prefix on a non-empty cache");
  }
  if (tokens == 0 || tokens % bt != 0 || chain.size() != tokens / bt) {
    throw std::invalid_argument(
        "PagedKvCache::adopt_prefix: tokens must fill chain.size() whole "
        "blocks");
  }
  for (const BlockRef ref : chain) pool_.retain(ref);
  blocks_.assign(chain.begin(), chain.end());
  shared_.assign(blocks_.size(), true);
  emergency_.resize(blocks_.size());
  std::vector<std::size_t> positions(tokens);
  for (std::size_t i = 0; i < tokens; ++i) positions[i] = i;
  seed_metadata(positions, scores);
}

void PagedKvCache::mark_shared_prefix(std::size_t blocks) {
  if (blocks > blocks_.size()) {
    throw std::invalid_argument(
        "PagedKvCache::mark_shared_prefix: beyond the chain");
  }
  for (std::size_t i = 0; i < blocks; ++i) shared_[i] = true;
}

std::size_t PagedKvCache::shared_blocks() const noexcept {
  std::size_t n = 0;
  for (const bool s : shared_) n += s ? 1 : 0;
  return n;
}

void PagedKvCache::cow_block(std::size_t chain_idx) {
  // Shared blocks always come from the pool (an adopted chain, or this
  // cache's own prefix the index retained), never from emergency memory.
  const BlockRef old = blocks_[chain_idx];
  // The prefix index (and every other reader) holds its own reference, so
  // refcount 1 means this cache became the sole owner — write in place.
  if (pool_.refcount(old) > 1) {
    fill_block(chain_idx);
    const std::size_t section = pool_.block_tokens() * d_head();
    for (std::size_t h = 0; h < n_heads(); ++h) {
      std::copy_n(pool_.keys(old, h), section, keys_of(chain_idx, h));
      std::copy_n(pool_.values(old, h), section, values_of(chain_idx, h));
    }
    pool_.release(old);
    pool_.note_cow_copy();
  }
  shared_[chain_idx] = false;
}

void PagedKvCache::append_rows(std::span<const float> k_row,
                               std::span<const float> v_row) {
  const std::size_t bt = pool_.block_tokens();
  const std::size_t t = size();  // metadata not pushed yet: t is our index
  const std::size_t slot = t % bt;
  if (slot == 0) {
    blocks_.emplace_back();
    shared_.push_back(false);
    emergency_.emplace_back();
    fill_block(blocks_.size() - 1);
  } else if (shared_.back()) {
    // A partially filled shared tail (left by a compact that kept a prefix
    // of an adopted chain): writing the free slot would race other readers
    // of the block, so take a private copy first.
    cow_block(blocks_.size() - 1);
  }
  const std::size_t tail = blocks_.size() - 1;
  for (std::size_t h = 0; h < n_heads(); ++h) {
    std::copy_n(k_row.data() + h * d_head(), d_head(),
                keys_of(tail, h) + slot * d_head());
    std::copy_n(v_row.data() + h * d_head(), d_head(),
                values_of(tail, h) + slot * d_head());
  }
}

std::span<const float> PagedKvCache::key_head(std::size_t idx,
                                              std::size_t head) const {
  assert(idx < size() && head < n_heads());
  const std::size_t bt = pool_.block_tokens();
  return {keys_of(idx / bt, head) + (idx % bt) * d_head(), d_head()};
}

std::span<const float> PagedKvCache::value_head(std::size_t idx,
                                                std::size_t head) const {
  assert(idx < size() && head < n_heads());
  const std::size_t bt = pool_.block_tokens();
  return {values_of(idx / bt, head) + (idx % bt) * d_head(), d_head()};
}

kv::KvSegment PagedKvCache::segment(std::size_t head, std::size_t s) const {
  assert(head < n_heads() && s < blocks_.size());
  const std::size_t bt = pool_.block_tokens();
  kv::KvSegment seg;
  seg.keys = keys_of(s, head);
  seg.values = values_of(s, head);
  seg.first = s * bt;
  seg.count = std::min(bt, size() - seg.first);
  return seg;
}

void PagedKvCache::compact_rows(std::span<const std::size_t> keep) {
  // Cross-block forward gather. Destination index never exceeds the source
  // index (keep is ascending), so row j's write cannot clobber a row still
  // to be read — the same argument the contiguous gather relies on, here
  // spanning block boundaries.
  const std::size_t bt = pool_.block_tokens();
  // Copy-on-write pass, before any write: a destination block that takes a
  // moved row (keep[j] != j) and is still shared gets a private copy now,
  // while its contents are untouched. Destination blocks whose whole range
  // is the identity gather (keep[j] == j throughout) are never written and
  // stay shared — the common case when eviction keeps an early prefix.
  for (std::size_t j = 0; j < keep.size(); ++j) {
    if (keep[j] != j && shared_[j / bt]) cow_block(j / bt);
  }
  std::size_t out = 0;
  for (const std::size_t idx : keep) {
    if (idx != out) {
      const std::size_t src = idx / bt;
      const std::size_t dst = out / bt;
      const std::size_t s_off = (idx % bt) * d_head();
      const std::size_t d_off = (out % bt) * d_head();
      for (std::size_t h = 0; h < n_heads(); ++h) {
        std::copy_n(keys_of(src, h) + s_off, d_head(),
                    keys_of(dst, h) + d_off);
        std::copy_n(values_of(src, h) + s_off, d_head(),
                    values_of(dst, h) + d_off);
      }
    }
    ++out;
  }
  free_blocks_beyond(out);
}

void PagedKvCache::clear_rows() { free_blocks_beyond(0); }

void PagedKvCache::free_blocks_beyond(std::size_t live_tokens) {
  const std::size_t bt = pool_.block_tokens();
  const std::size_t live_blocks = (live_tokens + bt - 1) / bt;
  while (blocks_.size() > live_blocks) {
    if (!emergency_.back()) pool_.release(blocks_.back());
    blocks_.pop_back();
    shared_.pop_back();
    emergency_.pop_back();
  }
}

}  // namespace kf::mem
