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

std::size_t KvCache::released_slots() const noexcept {
  return static_cast<std::size_t>(std::count_if(
      blocks_.begin(), blocks_.begin() + static_cast<long>(shared_slots_),
      [](mem::BlockRef ref) { return ref.id == kNoBlock; }));
}

std::size_t KvCache::chain_slot(std::size_t idx) const {
  return idx < shared_rows_
             ? positions_[idx] / block_tokens_
             : shared_slots_ + (idx - shared_rows_) / block_tokens_;
}

std::size_t KvCache::block_slot(std::size_t idx) const {
  return idx < shared_rows_ ? positions_[idx] % block_tokens_
                            : (idx - shared_rows_) % block_tokens_;
}

void KvCache::append(std::span<const float> k_row,
                     std::span<const float> v_row, std::size_t original_pos) {
  if (k_row.size() != row_width() || v_row.size() != row_width()) {
    throw std::invalid_argument("KvCache::append: row width mismatch");
  }
  if (!positions_.empty() && original_pos <= positions_.back()) {
    throw std::invalid_argument(
        "KvCache::append: original positions must be strictly increasing");
  }
  if (original_pos < shared_slots_ * block_tokens_) {
    throw std::invalid_argument(
        "KvCache::append: position inside the shared prefix");
  }
  const std::size_t slot = (size() - shared_rows_) % block_tokens_;
  if (slot == 0) {
    blocks_.emplace_back();
    emergency_.emplace_back();
    fill_block(blocks_.size() - 1);
  }
  const std::size_t tail = blocks_.size() - 1;
  for (std::size_t h = 0; h < n_heads_; ++h) {
    std::copy_n(k_row.data() + h * d_head_, d_head_,
                keys_to_write(tail, h) + slot * d_head_);
    std::copy_n(v_row.data() + h * d_head_, d_head_,
                values_to_write(tail, h) + slot * d_head_);
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
  return {keys_of(chain_slot(idx), head) + block_slot(idx) * d_head_,
          d_head_};
}

std::span<const float> KvCache::value_head(std::size_t idx,
                                           std::size_t head) const {
  assert(idx < size() && head < n_heads_);
  return {values_of(chain_slot(idx), head) + block_slot(idx) * d_head_,
          d_head_};
}

KvSegment KvCache::segment(std::size_t head, std::size_t s) const {
  assert(head < n_heads_ && s < segment_count());
  KvSegment seg;
  const std::size_t runs = shared_runs_.size();
  if (s < runs) {
    const SharedRun& run = shared_runs_[s];
    seg.first = run.first;
    seg.count =
        (s + 1 < runs ? shared_runs_[s + 1].first : shared_rows_) - run.first;
    seg.keys = keys_of(run.slot, head) + run.offset * d_head_;
    seg.values = values_of(run.slot, head) + run.offset * d_head_;
  } else {
    const std::size_t j = s - runs;
    seg.first = shared_rows_ + j * block_tokens_;
    seg.count = std::min(block_tokens_, size() - seg.first);
    seg.keys = keys_of(shared_slots_ + j, head);
    seg.values = values_of(shared_slots_ + j, head);
  }
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
  // Shared rows lead the cache, so the kept ones lead `keep`. They stay
  // where they are: when some are dropped, rebuild the segment runs over
  // the rest and release every shared block left without a kept row.
  const std::size_t s_old = shared_rows_;
  const auto s_new = static_cast<std::size_t>(
      std::lower_bound(keep.begin(), keep.end(), s_old) - keep.begin());
  if (s_new < s_old) {
    shared_runs_.clear();
    std::size_t slot = 0;       // shared slot of the current row
    std::size_t slot_end = bt;  // first position past that slot
    std::size_t next = 0;       // first shared slot not yet settled
    for (std::size_t j = 0; j < s_new; ++j) {
      const std::size_t pos = positions_[keep[j]];
      assert(pos < shared_slots_ * bt);
      const bool new_slot = pos >= slot_end;
      for (; pos >= slot_end; slot_end += bt) ++slot;
      if (j == 0 || new_slot || pos != positions_[keep[j - 1]] + 1) {
        shared_runs_.push_back({j, slot, pos + bt - slot_end});
      }
      for (; next < slot; ++next) release_shared_slot(next);
      next = slot + 1;
    }
    for (; next < shared_slots_; ++next) release_shared_slot(next);
  }
  // keep ascends strictly, so keep[j] >= j, and once one row's metadata
  // moves (keep[j] > j) every later row's does: [0, moved) stay in place.
  std::size_t moved = 0;
  while (moved < n && keep[moved] == moved) ++moved;
  // Private rows gather densely: the j-th kept row lands in private slot
  // j - s_new, read from private slot keep[j] - s_old. Those stay in place
  // up to `pmoved`, the first whose slots differ.
  std::size_t pmoved = s_new;
  while (pmoved < n && keep[pmoved] - s_old == pmoved - s_new) ++pmoved;
  if (pmoved < n) {
    // Head-major forward gather. A destination slot never exceeds its
    // source slot, so a write cannot clobber a row still to be read, in
    // one block or across blocks. Each block's K/V bases are resolved
    // once per head, and destination slots advance by counting.
    const std::size_t base = shared_slots_;
    const std::size_t dst0 = pmoved - s_new;
    for (std::size_t h = 0; h < n_heads_; ++h) {
      std::size_t dst_block = base + dst0 / bt;
      std::size_t dst_slot = dst0 % bt;
      float* dk = keys_to_write(dst_block, h);
      float* dv = values_to_write(dst_block, h);
      std::size_t src_block = base + (keep[pmoved] - s_old) / bt;
      std::size_t src_first = (src_block - base) * bt;
      const float* sk = keys_of(src_block, h);
      const float* sv = values_of(src_block, h);
      for (std::size_t j = pmoved; j < n; ++j) {
        if (dst_slot == bt) {
          ++dst_block;
          dst_slot = 0;
          dk = keys_to_write(dst_block, h);
          dv = values_to_write(dst_block, h);
        }
        const std::size_t idx = keep[j] - s_old;
        if (idx - src_first >= bt) {  // keep ascends: a later source block
          src_block = base + idx / bt;
          src_first = (src_block - base) * bt;
          sk = keys_of(src_block, h);
          sv = values_of(src_block, h);
        }
        const std::size_t src_off = (idx - src_first) * d_head_;
        std::copy_n(sk + src_off, d_head_, dk + dst_slot * d_head_);
        std::copy_n(sv + src_off, d_head_, dv + dst_slot * d_head_);
        ++dst_slot;
      }
    }
  }
  for (std::size_t j = moved; j < n; ++j) positions_[j] = positions_[keep[j]];
  for (auto& per_head : scores_) {
    for (std::size_t j = moved; j < n; ++j) per_head[j] = per_head[keep[j]];
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
  shared_rows_ = s_new;
  free_blocks_beyond(shared_slots_ + (n - s_new + bt - 1) / bt);
  if (shared_slots_ > 0 && sole_reader_of_shared()) fold_shared_region();
}

void KvCache::clear() {
  free_blocks_beyond(0);
  share_leading_blocks(0);
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
  emergency_.resize(blocks_.size());
  positions_.resize(tokens);
  std::iota(positions_.begin(), positions_.end(), std::size_t{0});
  std::copy(scores.begin(), scores.end(), scores_.begin());
  std::copy(noise.begin(), noise.end(), noise_.begin());
  share_leading_blocks(chain.size());
}

void KvCache::mark_shared_prefix(std::size_t blocks) {
  const std::size_t tokens = blocks * block_tokens_;
  if (blocks > blocks_.size() || size() < tokens ||
      (tokens > 0 && positions_[tokens - 1] != tokens - 1)) {
    throw std::invalid_argument(
        "KvCache::mark_shared_prefix: rows 0..tokens-1 must all be cached");
  }
  // Positions ascend, so positions_[tokens - 1] == tokens - 1 puts every
  // row below `tokens` at its own index: chain slot == position already.
  if (blocks > shared_slots_) share_leading_blocks(blocks);
}

void KvCache::share_leading_blocks(std::size_t blocks) {
  shared_slots_ = blocks;
  shared_rows_ = blocks * block_tokens_;
  shared_runs_.clear();
  for (std::size_t b = 0; b < blocks; ++b) {
    shared_runs_.push_back({b * block_tokens_, b, 0});
  }
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

const float* KvCache::keys_of(std::size_t chain_idx, std::size_t head) const {
  if (const auto& heap = emergency_[chain_idx]) {
    return heap.get() + head * block_tokens_ * d_head_;
  }
  return pool_.keys(blocks_[chain_idx], head);
}

const float* KvCache::values_of(std::size_t chain_idx,
                                std::size_t head) const {
  if (const auto& heap = emergency_[chain_idx]) {
    return heap.get() + pool_.section_floats() + head * block_tokens_ * d_head_;
  }
  return pool_.values(blocks_[chain_idx], head);
}

float* KvCache::keys_to_write(std::size_t chain_idx, std::size_t head) {
  assert(emergency_[chain_idx] || pool_.refcount(blocks_[chain_idx]) == 1);
  return const_cast<float*>(keys_of(chain_idx, head));
}

float* KvCache::values_to_write(std::size_t chain_idx, std::size_t head) {
  assert(emergency_[chain_idx] || pool_.refcount(blocks_[chain_idx]) == 1);
  return const_cast<float*>(values_of(chain_idx, head));
}

void KvCache::release_shared_slot(std::size_t b) {
  if (blocks_[b].id == kNoBlock) return;
  pool_.release(blocks_[b]);
  blocks_[b].id = kNoBlock;
}

bool KvCache::sole_reader_of_shared() const {
  for (std::size_t b = 0; b < shared_slots_; ++b) {
    if (blocks_[b].id != kNoBlock && pool_.refcount(blocks_[b]) > 1) {
      return false;
    }
  }
  return true;
}

void KvCache::fold_shared_region() {
  // The held blocks, in chain order, become the dense chain: row i goes
  // to the (i / bt)-th of them, slot i % bt. Released slots hold no rows
  // and every held slot before row i's source holds at most bt rows up to
  // it, so a destination never passes its source and a forward gather
  // never clobbers a row still to be read.
  const std::size_t bt = block_tokens_;
  std::vector<std::size_t> held;
  for (std::size_t b = 0; b < blocks_.size(); ++b) {
    if (blocks_[b].id != kNoBlock) held.push_back(b);
  }
  for (std::size_t i = 0; i < size(); ++i) {
    const std::size_t src = chain_slot(i);
    const std::size_t src_off = block_slot(i) * d_head_;
    const std::size_t dst = held[i / bt];
    const std::size_t dst_off = (i % bt) * d_head_;
    if (src == dst && src_off == dst_off) continue;
    for (std::size_t h = 0; h < n_heads_; ++h) {
      std::copy_n(keys_of(src, h) + src_off, d_head_,
                  keys_to_write(dst, h) + dst_off);
      std::copy_n(values_of(src, h) + src_off, d_head_,
                  values_to_write(dst, h) + dst_off);
    }
  }
  for (std::size_t k = 0; k < held.size(); ++k) {
    if (held[k] == k) continue;
    blocks_[k] = blocks_[held[k]];
    emergency_[k] = std::move(emergency_[held[k]]);
  }
  blocks_.resize(held.size());
  emergency_.resize(held.size());
  share_leading_blocks(0);
  free_blocks_beyond((size() + bt - 1) / bt);
}

void KvCache::free_blocks_beyond(std::size_t chain_slots) {
  while (blocks_.size() > chain_slots) {
    if (!emergency_.back() && blocks_.back().id != kNoBlock) {
      pool_.release(blocks_.back());
    }
    blocks_.pop_back();
    emergency_.pop_back();
  }
}

}  // namespace kf::kv
