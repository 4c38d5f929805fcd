#include "mem/block_pool.h"

#include <cassert>
#include <stdexcept>
#include <string>

#include "obs/metrics.h"

namespace kf::mem {

BlockPool::BlockPool(BlockPoolConfig cfg) : cfg_(cfg) {
  if (cfg_.n_shards == 0) {
    throw std::invalid_argument("BlockPool requires n_shards > 0");
  }
  if (cfg_.metrics != nullptr) {
    ctr_allocs_ = &cfg_.metrics->counter("pool.allocs");
    ctr_alloc_failures_ = &cfg_.metrics->counter("pool.alloc_failures");
    ctr_reserves_ = &cfg_.metrics->counter("pool.reserves");
    ctr_reserve_failures_ = &cfg_.metrics->counter("pool.reserve_failures");
    ctr_emergency_ = &cfg_.metrics->counter("pool.emergency_blocks");
    ctr_cow_copies_ = &cfg_.metrics->counter("pool.cow_copies");
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
  shards_.reserve(cfg_.n_shards);
  for (std::size_t s = 0; s < cfg_.n_shards; ++s) {
    auto shard = std::make_unique<Shard>();
    const std::size_t max_slabs =
        cfg_.blocks_per_shard > 0
            ? (cfg_.blocks_per_shard + kBlocksPerSlab - 1) / kBlocksPerSlab
            : kUnboundedSlabs;
    // Directory only; arenas come lazily. The base-pointer directory is
    // what lock-free readers touch, so it is fully sized up front and
    // its entries only ever transition nullptr -> slab base.
    shard->slabs.resize(max_slabs);
    shard->slab_bases = std::make_unique<std::atomic<float*>[]>(max_slabs);
    for (std::size_t i = 0; i < max_slabs; ++i) {
      shard->slab_bases[i].store(nullptr, std::memory_order_relaxed);
    }
    shard->slab_slots = max_slabs;
    shards_.push_back(std::move(shard));
  }
}

float* BlockPool::block_base(BlockRef ref) const noexcept {
  assert(ref.shard < shards_.size());
  const Shard& sh = *shards_[ref.shard];
  const std::size_t slab = ref.id / kBlocksPerSlab;
  const std::size_t offset = ref.id % kBlocksPerSlab;
  assert(slab < sh.slab_slots);
  // Acquire pairs with the release store in carve_slab_locked: a reader
  // holding a BlockRef sees the slab payload without the shard mutex.
  float* base = sh.slab_bases[slab].load(std::memory_order_acquire);
  assert(base != nullptr);
  return base + offset * block_floats_;
}

bool BlockPool::carve_slab_locked(Shard& sh) {
  // Carve a fresh slab — unless the shard is at capacity or the
  // directory (the unbounded mode's implementation limit) is full.
  if (cfg_.blocks_per_shard > 0 && sh.created >= cfg_.blocks_per_shard) {
    return false;
  }
  const std::size_t slab = sh.created / kBlocksPerSlab;
  if (slab >= sh.slab_slots) return false;
  assert(sh.created % kBlocksPerSlab == 0);
  // 64-byte-aligned (and zeroed) slab so SIMD loads on head-major block
  // payloads start on cache-line boundaries.
  sh.slabs[slab] = make_aligned_floats(kBlocksPerSlab * block_floats_);
  assert(is_simd_aligned(sh.slabs[slab].get()));
  sh.slab_bases[slab].store(sh.slabs[slab].get(), std::memory_order_release);
  std::size_t batch = kBlocksPerSlab;
  if (cfg_.blocks_per_shard > 0) {
    batch = std::min(batch, cfg_.blocks_per_shard - sh.created);
  }
  // Push in reverse so blocks hand out in ascending id order.
  for (std::size_t i = batch; i > 0; --i) {
    sh.free_list.push_back(static_cast<std::uint32_t>(sh.created + i - 1));
  }
  sh.created += batch;
  return true;
}

BlockRef BlockPool::allocate(std::size_t shard) {
  const auto ref = try_allocate(shard);
  if (!ref.has_value()) {
    const ShardStats st = shard_stats(shard);
    throw std::runtime_error(
        "BlockPool: shard " + std::to_string(shard) + " exhausted (" +
        std::to_string(cfg_.blocks_per_shard) + " blocks, used " +
        std::to_string(st.used_blocks) + ", reserved " +
        std::to_string(st.reserved_blocks) +
        "); admission reservations should have prevented this");
  }
  return *ref;
}

std::optional<BlockRef> BlockPool::try_allocate(std::size_t shard) {
  if (shard >= shards_.size()) {
    throw std::invalid_argument("BlockPool::allocate: shard out of range");
  }
  Shard& sh = *shards_[shard];
  const LockGuard lock(sh.mu);
  if (auto* injector = injector_.load(std::memory_order_acquire)) {
    if (injector->should_fail(FaultOp::kAllocate, shard)) {
      if (ctr_alloc_failures_ != nullptr) ctr_alloc_failures_->add();
      return std::nullopt;
    }
  }
  if (sh.free_list.empty() && !carve_slab_locked(sh)) {
    if (ctr_alloc_failures_ != nullptr) ctr_alloc_failures_->add();
    return std::nullopt;
  }
  const std::uint32_t id = sh.free_list.back();
  sh.free_list.pop_back();
  if (sh.live.size() < sh.created) {
    sh.live.resize(sh.created, false);
    sh.refs.resize(sh.created, 0);
  }
  sh.live[id] = true;
  sh.refs[id] = 1;
  ++sh.used;
  if (sh.used > sh.peak_used) sh.peak_used = sh.used;
  raise_peak(peak_total_used_, total_used_.fetch_add(1) + 1);
  if (ctr_allocs_ != nullptr) ctr_allocs_->add();
  return BlockRef{static_cast<std::uint32_t>(shard), id};
}

void BlockPool::raise_peak(std::atomic<std::size_t>& peak,
                           std::size_t value) {
  std::size_t seen = peak.load();
  while (seen < value && !peak.compare_exchange_weak(seen, value)) {
  }
}

void BlockPool::retain(BlockRef ref) {
  if (ref.shard >= shards_.size()) {
    throw std::invalid_argument("BlockPool::retain: shard out of range");
  }
  Shard& sh = *shards_[ref.shard];
  const LockGuard lock(sh.mu);
  if (ref.id >= sh.created || ref.id >= sh.live.size() || !sh.live[ref.id]) {
    throw std::invalid_argument(
        "BlockPool::retain: block is not currently allocated");
  }
  ++sh.refs[ref.id];
}

void BlockPool::release(BlockRef ref) {
  if (ref.shard >= shards_.size()) {
    throw std::invalid_argument("BlockPool::release: shard out of range");
  }
  Shard& sh = *shards_[ref.shard];
  const LockGuard lock(sh.mu);
  if (ref.id >= sh.created || ref.id >= sh.live.size() || !sh.live[ref.id]) {
    // Never-allocated or over-released: putting the id on the free list
    // twice would hand one payload to two caches.
    throw std::invalid_argument(
        "BlockPool::release: block is not currently allocated");
  }
  if (--sh.refs[ref.id] > 0) return;  // other readers keep it alive
  sh.live[ref.id] = false;
  sh.free_list.push_back(ref.id);
  --sh.used;
  total_used_.fetch_sub(1);
}

std::uint32_t BlockPool::refcount(BlockRef ref) const {
  if (ref.shard >= shards_.size()) {
    throw std::invalid_argument("BlockPool::refcount: shard out of range");
  }
  const Shard& sh = *shards_[ref.shard];
  const LockGuard lock(sh.mu);
  if (ref.id >= sh.refs.size()) return 0;
  return sh.refs[ref.id];
}

bool BlockPool::try_reserve(std::size_t shard, std::size_t blocks) {
  if (shard >= shards_.size()) {
    throw std::invalid_argument("BlockPool::try_reserve: shard out of range");
  }
  Shard& sh = *shards_[shard];
  const LockGuard lock(sh.mu);
  if (cfg_.blocks_per_shard > 0 &&
      sh.reserved + blocks > cfg_.blocks_per_shard) {
    if (ctr_reserve_failures_ != nullptr) ctr_reserve_failures_->add();
    return false;
  }
  if (auto* injector = injector_.load(std::memory_order_acquire)) {
    if (injector->should_fail(FaultOp::kReserve, shard)) {
      if (ctr_reserve_failures_ != nullptr) ctr_reserve_failures_->add();
      return false;
    }
  }
  sh.reserved += blocks;
  if (sh.reserved > sh.peak_reserved) sh.peak_reserved = sh.reserved;
  raise_peak(peak_total_reserved_, total_reserved_.fetch_add(blocks) + blocks);
  if (ctr_reserves_ != nullptr) ctr_reserves_->add();
  return true;
}

void BlockPool::note_emergency_block() noexcept {
  if (ctr_emergency_ != nullptr) ctr_emergency_->add();
}

void BlockPool::note_cow_copy() noexcept {
  if (ctr_cow_copies_ != nullptr) ctr_cow_copies_->add();
}

void BlockPool::unreserve(std::size_t shard, std::size_t blocks) {
  if (shard >= shards_.size()) {
    throw std::invalid_argument("BlockPool::unreserve: shard out of range");
  }
  Shard& sh = *shards_[shard];
  const LockGuard lock(sh.mu);
  if (blocks > sh.reserved) {
    throw std::invalid_argument(
        "BlockPool::unreserve: releasing more than reserved");
  }
  sh.reserved -= blocks;
  total_reserved_.fetch_sub(blocks);
}

std::size_t BlockPool::unreserved_blocks(std::size_t shard) const {
  if (shard >= shards_.size()) {
    throw std::invalid_argument(
        "BlockPool::unreserved_blocks: shard out of range");
  }
  const Shard& sh = *shards_[shard];
  const LockGuard lock(sh.mu);
  if (cfg_.blocks_per_shard == 0) return static_cast<std::size_t>(-1);
  return cfg_.blocks_per_shard - sh.reserved;
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

ShardStats BlockPool::shard_stats(std::size_t shard) const {
  if (shard >= shards_.size()) {
    throw std::invalid_argument("BlockPool::shard_stats: shard out of range");
  }
  const Shard& sh = *shards_[shard];
  const LockGuard lock(sh.mu);
  ShardStats st;
  st.capacity_blocks = cfg_.blocks_per_shard;
  st.allocated_blocks = sh.created;
  st.used_blocks = sh.used;
  st.reserved_blocks = sh.reserved;
  st.peak_used_blocks = sh.peak_used;
  st.peak_reserved_blocks = sh.peak_reserved;
  return st;
}

PoolStats BlockPool::stats() const {
  PoolStats agg;
  agg.n_shards = shards_.size();
  agg.capacity_blocks =
      cfg_.blocks_per_shard > 0 ? cfg_.blocks_per_shard * shards_.size() : 0;
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    const ShardStats st = shard_stats(s);
    agg.allocated_blocks += st.allocated_blocks;
    agg.used_blocks += st.used_blocks;
    agg.reserved_blocks += st.reserved_blocks;
  }
  // True simultaneous pool-wide peaks; summing per-shard peaks would
  // overstate the high-water mark when shards peak at different times.
  agg.peak_used_blocks = peak_total_used_.load();
  agg.peak_reserved_blocks = peak_total_reserved_.load();
  return agg;
}

void BlockPool::reset_peaks() {
  for (auto& shard : shards_) {
    const LockGuard lock(shard->mu);
    shard->peak_used = shard->used;
    shard->peak_reserved = shard->reserved;
  }
  peak_total_used_.store(total_used_.load());
  peak_total_reserved_.store(total_reserved_.load());
}

}  // namespace kf::mem
