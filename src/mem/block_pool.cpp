#include "mem/block_pool.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>

#include "obs/metrics.h"

namespace kf::mem {

BlockPool::BlockPool(BlockPoolConfig cfg) : cfg_(cfg) {
  if (cfg_.metrics != nullptr) {
    ctr_allocs_ = &cfg_.metrics->counter("pool.allocs");
    ctr_alloc_failures_ = &cfg_.metrics->counter("pool.alloc_failures");
    ctr_reserves_ = &cfg_.metrics->counter("pool.reserves");
    ctr_reserve_failures_ = &cfg_.metrics->counter("pool.reserve_failures");
    ctr_emergency_ = &cfg_.metrics->counter("pool.emergency_blocks");
  }
  if (cfg_.block_tokens == 0) {
    throw std::invalid_argument("BlockPool requires block_tokens > 0");
  }
  if (cfg_.n_heads == 0 || cfg_.d_head == 0) {
    throw std::invalid_argument(
        "BlockPool requires n_heads > 0 and d_head > 0");
  }
  section_floats_ = cfg_.n_heads * cfg_.block_tokens * cfg_.d_head;
  block_floats_ = 2 * section_floats_;
  slab_slots_ =
      cfg_.capacity_blocks > 0
          ? (cfg_.capacity_blocks + kBlocksPerSlab - 1) / kBlocksPerSlab
          : kUnboundedSlabs;
  // Directory only; arenas come lazily. The base-pointer directory is
  // what lock-free readers touch, so it is fully sized up front and its
  // entries only ever transition nullptr -> slab base.
  slabs_.resize(slab_slots_);
  slab_bases_ = std::make_unique<std::atomic<float*>[]>(slab_slots_);
  for (std::size_t i = 0; i < slab_slots_; ++i) {
    slab_bases_[i].store(nullptr, std::memory_order_relaxed);
  }
}

float* BlockPool::block_base(BlockRef ref) const noexcept {
  const std::size_t slab = ref.id / kBlocksPerSlab;
  const std::size_t offset = ref.id % kBlocksPerSlab;
  assert(slab < slab_slots_);
  // Acquire pairs with the release store in carve_slab_locked: a reader
  // holding a BlockRef sees the slab payload without the pool mutex.
  float* base = slab_bases_[slab].load(std::memory_order_acquire);
  assert(base != nullptr);
  return base + offset * block_floats_;
}

bool BlockPool::carve_slab_locked() {
  // Carve a fresh slab — unless the pool is at capacity or the directory
  // (the unbounded mode's implementation limit) is full.
  const std::size_t created = refs_.size();
  if (cfg_.capacity_blocks > 0 && created >= cfg_.capacity_blocks) {
    return false;
  }
  const std::size_t slab = created / kBlocksPerSlab;
  if (slab >= slab_slots_) return false;
  assert(created % kBlocksPerSlab == 0);
  // 64-byte-aligned (and zeroed) slab so SIMD loads on head-major block
  // payloads start on cache-line boundaries.
  slabs_[slab] = make_aligned_floats(kBlocksPerSlab * block_floats_);
  assert(is_simd_aligned(slabs_[slab].get()));
  slab_bases_[slab].store(slabs_[slab].get(), std::memory_order_release);
  std::size_t batch = kBlocksPerSlab;
  if (cfg_.capacity_blocks > 0) {
    batch = std::min(batch, cfg_.capacity_blocks - created);
  }
  // Push in reverse so blocks hand out in ascending id order.
  for (std::size_t i = batch; i > 0; --i) {
    free_list_.push_back(static_cast<std::uint32_t>(created + i - 1));
  }
  refs_.resize(created + batch, 0);
  return true;
}

std::optional<BlockRef> BlockPool::try_allocate() {
  const LockGuard lock(mu_);
  if (auto* injector = injector_.load(std::memory_order_acquire)) {
    if (injector->should_fail(FaultOp::kAllocate)) {
      if (ctr_alloc_failures_ != nullptr) ctr_alloc_failures_->add();
      return std::nullopt;
    }
  }
  if (free_list_.empty() && !carve_slab_locked()) {
    if (ctr_alloc_failures_ != nullptr) ctr_alloc_failures_->add();
    return std::nullopt;
  }
  const std::uint32_t id = free_list_.back();
  free_list_.pop_back();
  refs_[id] = 1;
  ++used_;
  peak_used_ = std::max(peak_used_, used_);
  if (ctr_allocs_ != nullptr) ctr_allocs_->add();
  return BlockRef{id};
}

void BlockPool::retain(BlockRef ref) {
  const LockGuard lock(mu_);
  if (ref.id >= refs_.size() || refs_[ref.id] == 0) {
    throw std::invalid_argument(
        "BlockPool::retain: block is not currently allocated");
  }
  ++refs_[ref.id];
}

void BlockPool::release(BlockRef ref) {
  const LockGuard lock(mu_);
  if (ref.id >= refs_.size() || refs_[ref.id] == 0) {
    // Never-allocated or over-released: putting the id on the free list
    // twice would hand one payload to two caches.
    throw std::invalid_argument(
        "BlockPool::release: block is not currently allocated");
  }
  if (--refs_[ref.id] > 0) return;  // other readers keep it alive
  free_list_.push_back(ref.id);
  --used_;
}

std::uint32_t BlockPool::refcount(BlockRef ref) const {
  const LockGuard lock(mu_);
  return ref.id < refs_.size() ? refs_[ref.id] : 0;
}

bool BlockPool::try_reserve(std::size_t blocks) {
  const LockGuard lock(mu_);
  if (cfg_.capacity_blocks > 0 && reserved_ + blocks > cfg_.capacity_blocks) {
    if (ctr_reserve_failures_ != nullptr) ctr_reserve_failures_->add();
    return false;
  }
  if (auto* injector = injector_.load(std::memory_order_acquire)) {
    if (injector->should_fail(FaultOp::kReserve)) {
      if (ctr_reserve_failures_ != nullptr) ctr_reserve_failures_->add();
      return false;
    }
  }
  reserved_ += blocks;
  peak_reserved_ = std::max(peak_reserved_, reserved_);
  if (ctr_reserves_ != nullptr) ctr_reserves_->add();
  return true;
}

void BlockPool::note_emergency_block() noexcept {
  if (ctr_emergency_ != nullptr) ctr_emergency_->add();
}

void BlockPool::unreserve(std::size_t blocks) {
  const LockGuard lock(mu_);
  if (blocks > reserved_) {
    throw std::invalid_argument(
        "BlockPool::unreserve: releasing more than reserved");
  }
  reserved_ -= blocks;
}

std::size_t BlockPool::unreserved_blocks() const {
  const LockGuard lock(mu_);
  if (cfg_.capacity_blocks == 0) return static_cast<std::size_t>(-1);
  return cfg_.capacity_blocks - reserved_;
}

float* BlockPool::keys(BlockRef ref, std::size_t head) noexcept {
  assert(head < cfg_.n_heads);
  return block_base(ref) + head * cfg_.block_tokens * cfg_.d_head;
}

const float* BlockPool::keys(BlockRef ref, std::size_t head) const noexcept {
  assert(head < cfg_.n_heads);
  return block_base(ref) + head * cfg_.block_tokens * cfg_.d_head;
}

float* BlockPool::values(BlockRef ref, std::size_t head) noexcept {
  assert(head < cfg_.n_heads);
  return block_base(ref) + section_floats_ +
         head * cfg_.block_tokens * cfg_.d_head;
}

const float* BlockPool::values(BlockRef ref, std::size_t head) const noexcept {
  assert(head < cfg_.n_heads);
  return block_base(ref) + section_floats_ +
         head * cfg_.block_tokens * cfg_.d_head;
}

PoolStats BlockPool::stats() const {
  const LockGuard lock(mu_);
  PoolStats st;
  st.capacity_blocks = cfg_.capacity_blocks;
  st.allocated_blocks = refs_.size();
  st.used_blocks = used_;
  st.reserved_blocks = reserved_;
  st.peak_used_blocks = peak_used_;
  st.peak_reserved_blocks = peak_reserved_;
  return st;
}

void BlockPool::reset_peaks() {
  const LockGuard lock(mu_);
  peak_used_ = used_;
  peak_reserved_ = reserved_;
}

}  // namespace kf::mem
