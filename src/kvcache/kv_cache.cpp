#include "kvcache/kv_cache.h"

#include <algorithm>
#include <cassert>
#include <numeric>
#include <stdexcept>

namespace kf::kv {

KvCache::KvCache(mem::BlockPool& pool)
    : pool_(pool),
      n_heads_(pool.config().n_heads),
      d_head_(pool.config().d_head),
      block_tokens_(pool.block_tokens()),
      scores_(n_heads_),
      noise_(n_heads_) {}

KvCache::~KvCache() { free_blocks_beyond(0); }

void KvCache::append(std::span<const float> k_row,
                     std::span<const float> v_row, std::size_t original_pos) {
  if (k_row.size() != row_width() || v_row.size() != row_width()) {
    throw std::invalid_argument("KvCache::append: row width mismatch");
  }
  if (!positions_.empty() && original_pos <= positions_.back()) {
    throw std::invalid_argument(
        "KvCache::append: original positions must be strictly increasing");
  }
  const std::size_t slot = size() % block_tokens_;
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
  for (std::size_t h = 0; h < n_heads_; ++h) {
    std::copy_n(k_row.data() + h * d_head_, d_head_,
                keys_of(tail, h) + slot * d_head_);
    std::copy_n(v_row.data() + h * d_head_, d_head_,
                values_of(tail, h) + slot * d_head_);
  }
  positions_.push_back(original_pos);
  for (auto& s : scores_) s.push_back(0.0);
}

std::vector<float> KvCache::key_row(std::size_t idx) const {
  assert(idx < size());
  std::vector<float> row(row_width());
  for (std::size_t h = 0; h < n_heads_; ++h) {
    const auto head = key_head(idx, h);
    std::copy(head.begin(), head.end(), row.begin() + h * d_head_);
  }
  return row;
}

std::vector<float> KvCache::value_row(std::size_t idx) const {
  assert(idx < size());
  std::vector<float> row(row_width());
  for (std::size_t h = 0; h < n_heads_; ++h) {
    const auto head = value_head(idx, h);
    std::copy(head.begin(), head.end(), row.begin() + h * d_head_);
  }
  return row;
}

std::span<const float> KvCache::key_head(std::size_t idx,
                                         std::size_t head) const {
  assert(idx < size() && head < n_heads_);
  return {keys_of(idx / block_tokens_, head) +
              (idx % block_tokens_) * d_head_,
          d_head_};
}

std::span<const float> KvCache::value_head(std::size_t idx,
                                           std::size_t head) const {
  assert(idx < size() && head < n_heads_);
  return {values_of(idx / block_tokens_, head) +
              (idx % block_tokens_) * d_head_,
          d_head_};
}

KvSegment KvCache::segment(std::size_t head, std::size_t s) const {
  assert(head < n_heads_ && s < blocks_.size());
  KvSegment seg;
  seg.keys = keys_of(s, head);
  seg.values = values_of(s, head);
  seg.first = s * block_tokens_;
  seg.count = std::min(block_tokens_, size() - seg.first);
  return seg;
}

std::size_t KvCache::original_position(std::size_t idx) const {
  assert(idx < size());
  return positions_[idx];
}

std::span<double> KvCache::scores(std::size_t head) {
  assert(head < n_heads_);
  return scores_[head];
}

std::span<const double> KvCache::scores(std::size_t head) const {
  assert(head < n_heads_);
  return scores_[head];
}

void KvCache::add_score(std::size_t head, std::size_t idx, double v) {
  assert(head < n_heads_ && idx < size());
  scores_[head][idx] += v;
}

void KvCache::damp_scores(double factor) {
  for (auto& per_head : scores_) {
    for (double& s : per_head) s *= factor;
  }
}

double KvCache::total_score(std::size_t idx) const {
  assert(idx < size());
  double total = 0.0;
  for (const auto& per_head : scores_) total += per_head[idx];
  return total;
}

std::span<const double> KvCache::noise(std::size_t head) const {
  assert(head < n_heads_);
  return noise_[head];
}

void KvCache::append_noise(std::size_t head, double zeta) {
  assert(head < n_heads_ && noise_[head].size() < size());
  noise_[head].push_back(zeta);
}

void KvCache::compact(std::span<const std::size_t> keep) {
  // Validate once; the gather can then move rows without re-checking.
  std::size_t prev = 0;
  for (std::size_t j = 0; j < keep.size(); ++j) {
    const std::size_t idx = keep[j];
    if (idx >= size()) {
      throw std::out_of_range("KvCache::compact: keep index out of range");
    }
    if (j > 0 && idx <= prev) {
      throw std::invalid_argument(
          "KvCache::compact: keep indices must be strictly ascending");
    }
    prev = idx;
  }
  const std::size_t n = keep.size();
  const std::size_t bt = block_tokens_;
  // keep ascends strictly, so keep[j] >= j, and once one row moves
  // (keep[j] > j) every later row does: rows [0, moved) stay in place.
  std::size_t moved = 0;
  while (moved < n && keep[moved] == moved) ++moved;
  if (moved < n) {
    // Copy-on-write pass, before any write: the gather writes exactly the
    // destination blocks from row `moved`'s block to the new tail, so
    // those that are still shared get a private copy now, while their
    // contents are untouched. Blocks wholly before `moved` are never
    // written and stay shared (the common case when eviction keeps an
    // early prefix).
    for (std::size_t b = moved / bt; b * bt < n; ++b) {
      if (shared_[b]) cow_block(b);
    }
    // Head-major forward gather. A destination index never exceeds its
    // source index, so a write cannot clobber a row still to be read, in
    // one block or across blocks. Each block's K/V bases are resolved
    // once per head, and destination slots advance by counting.
    for (std::size_t h = 0; h < n_heads_; ++h) {
      std::size_t dst_block = moved / bt;
      std::size_t dst_slot = moved % bt;
      float* dk = keys_of(dst_block, h);
      float* dv = values_of(dst_block, h);
      std::size_t src_block = keep[moved] / bt;
      std::size_t src_first = src_block * bt;
      const float* sk = keys_of(src_block, h);
      const float* sv = values_of(src_block, h);
      for (std::size_t j = moved; j < n; ++j) {
        if (dst_slot == bt) {
          ++dst_block;
          dst_slot = 0;
          dk = keys_of(dst_block, h);
          dv = values_of(dst_block, h);
        }
        const std::size_t idx = keep[j];
        if (idx - src_first >= bt) {  // keep ascends: a later source block
          src_block = idx / bt;
          src_first = src_block * bt;
          sk = keys_of(src_block, h);
          sv = values_of(src_block, h);
        }
        const std::size_t src_off = (idx - src_first) * d_head_;
        std::copy_n(sk + src_off, d_head_, dk + dst_slot * d_head_);
        std::copy_n(sv + src_off, d_head_, dv + dst_slot * d_head_);
        ++dst_slot;
      }
    }
    for (std::size_t j = moved; j < n; ++j) positions_[j] = positions_[keep[j]];
    for (auto& per_head : scores_) {
      for (std::size_t j = moved; j < n; ++j) per_head[j] = per_head[keep[j]];
    }
  }
  positions_.resize(n);
  for (auto& per_head : scores_) per_head.resize(n);
  for (auto& per_head : noise_) {
    // The kept covered rows are keep's entries below the old cover, all
    // at its front: they become the new covered prefix.
    const auto covered = static_cast<std::size_t>(
        std::lower_bound(keep.begin(), keep.end(), per_head.size()) -
        keep.begin());
    for (std::size_t j = moved; j < covered; ++j) {
      per_head[j] = per_head[keep[j]];
    }
    per_head.resize(covered);
  }
  free_blocks_beyond(n);
}

void KvCache::clear() {
  free_blocks_beyond(0);
  positions_.clear();
  for (auto& per_head : scores_) per_head.clear();
  for (auto& per_head : noise_) per_head.clear();
  alloc_failed_ = false;  // no emergency block survives the clear
}

void KvCache::adopt_prefix(std::span<const mem::BlockRef> chain,
                           std::size_t tokens,
                           std::span<const std::vector<double>> scores,
                           std::span<const std::vector<double>> noise) {
  if (!empty()) {
    throw std::logic_error("KvCache::adopt_prefix on a non-empty cache");
  }
  if (tokens == 0 || tokens % block_tokens_ != 0 ||
      chain.size() != tokens / block_tokens_) {
    throw std::invalid_argument(
        "KvCache::adopt_prefix: tokens must fill chain.size() whole blocks");
  }
  if (scores.size() != n_heads_ ||
      std::any_of(scores.begin(), scores.end(),
                  [&](const auto& s) { return s.size() != tokens; })) {
    throw std::invalid_argument(
        "KvCache::adopt_prefix: one score vector of `tokens` per head");
  }
  if (noise.size() != n_heads_ ||
      std::any_of(noise.begin(), noise.end(),
                  [&](const auto& z) { return z.size() > tokens; })) {
    throw std::invalid_argument(
        "KvCache::adopt_prefix: one noise row of at most `tokens` per head");
  }
  for (const mem::BlockRef ref : chain) pool_.retain(ref);
  blocks_.assign(chain.begin(), chain.end());
  shared_.assign(blocks_.size(), true);
  emergency_.resize(blocks_.size());
  positions_.resize(tokens);
  std::iota(positions_.begin(), positions_.end(), std::size_t{0});
  std::copy(scores.begin(), scores.end(), scores_.begin());
  std::copy(noise.begin(), noise.end(), noise_.begin());
}

void KvCache::mark_shared_prefix(std::size_t blocks) {
  if (blocks > blocks_.size()) {
    throw std::invalid_argument(
        "KvCache::mark_shared_prefix: beyond the chain");
  }
  for (std::size_t i = 0; i < blocks; ++i) shared_[i] = true;
}

std::size_t KvCache::shared_blocks() const noexcept {
  return static_cast<std::size_t>(
      std::count(shared_.begin(), shared_.end(), true));
}

void KvCache::fill_block(std::size_t chain_idx) {
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

float* KvCache::keys_of(std::size_t chain_idx, std::size_t head) const {
  if (const auto& heap = emergency_[chain_idx]) {
    return heap.get() + head * block_tokens_ * d_head_;
  }
  return pool_.keys(blocks_[chain_idx], head);
}

float* KvCache::values_of(std::size_t chain_idx, std::size_t head) const {
  if (const auto& heap = emergency_[chain_idx]) {
    return heap.get() + pool_.section_floats() + head * block_tokens_ * d_head_;
  }
  return pool_.values(blocks_[chain_idx], head);
}

void KvCache::cow_block(std::size_t chain_idx) {
  // Shared blocks always come from the pool (an adopted chain, or this
  // cache's own prefix the index retained), never from emergency memory.
  const mem::BlockRef old = blocks_[chain_idx];
  // The prefix index (and every other reader) holds its own reference, so
  // refcount 1 means this cache became the sole owner: write in place.
  if (pool_.refcount(old) > 1) {
    fill_block(chain_idx);
    const std::size_t section = block_tokens_ * d_head_;
    for (std::size_t h = 0; h < n_heads_; ++h) {
      std::copy_n(pool_.keys(old, h), section, keys_of(chain_idx, h));
      std::copy_n(pool_.values(old, h), section, values_of(chain_idx, h));
    }
    pool_.release(old);
    pool_.note_cow_copy();
  }
  shared_[chain_idx] = false;
}

void KvCache::free_blocks_beyond(std::size_t live_tokens) {
  const std::size_t live_blocks =
      (live_tokens + block_tokens_ - 1) / block_tokens_;
  while (blocks_.size() > live_blocks) {
    if (!emergency_.back()) pool_.release(blocks_.back());
    blocks_.pop_back();
    shared_.pop_back();
    emergency_.pop_back();
  }
}

}  // namespace kf::kv
