// Paged KV memory: a sharded pool of fixed-size token blocks.
//
// Keyformer's serving claim is that discarding non-key tokens turns KV
// memory into admission capacity — but that only works if evicted memory
// actually returns to a shared store other sequences can draw from. The
// BlockPool is that store: each shard owns an arena carved into fixed-size
// blocks of `block_tokens` tokens, head-major inside the block
// ([n_heads][block_tokens][d_head] for K, then the same for V), handed out
// through a per-shard free list. PagedKvCache chains blocks per layer;
// compaction and sequence retirement free whole blocks back to the shard.
//
// Two accounting layers, both per shard:
//   - used blocks: physically allocated to caches right now;
//   - reserved blocks: the BatchScheduler's admission claims. Admission
//     reserves a sequence's worst-case block demand before any token is
//     appended, so `capacity_blocks` is an exact memory cap — a sequence
//     that was admitted can always allocate what it was charged for
//     (used <= reserved <= capacity).
//
// Blocks are reference counted so one immutable chain can back several
// readers (the prefix cache shares a prompt's block chain across every
// sequence carrying that prompt): allocate() hands a block out at
// refcount 1, retain() adds a reader, release() drops one, and the block
// only returns to the free list at refcount 0. `used` counts *physical*
// blocks (refcount >= 1), so sharing N ways still charges the pool once.
// Shards model separate memory domains (the ROADMAP's cache-sharding
// item): placement picks a shard per sequence, eviction and allocation run
// per shard, and aggregate stats expose utilization, fragmentation inputs,
// and high-water marks.
//
// Thread safety: allocate/free/reserve/unreserve/stats take the shard
// mutex (sequences append concurrently in the batched decode step); the
// guarded state is annotated for clang's -Wthread-safety, which proves
// every access goes through it. Block payload pointers are stable for
// the lifetime of the pool: arenas grow by fixed-size slabs into a
// pre-sized directory of atomically published base pointers, never by
// reallocating, so keys()/values() read blocks they own without locks
// (acquire loads pair with the release store that carved the slab).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "core/aligned.h"
#include "core/annotations.h"
#include "core/mutex.h"

namespace kf::obs {
class Counter;
class MetricsRegistry;
}

namespace kf::mem {

struct BlockPoolConfig {
  std::size_t n_shards = 1;
  /// Hard cap per shard; 0 = unbounded (slabs grow on demand up to the
  /// slab-directory limit).
  std::size_t blocks_per_shard = 0;
  /// Tokens per block.
  std::size_t block_tokens = 16;
  /// Row geometry shared by every cache built on this pool.
  std::size_t n_heads = 0;
  std::size_t d_head = 0;
  /// Observability registry for allocation/reservation counters
  /// (pool.allocs, pool.alloc_failures, pool.reserves,
  /// pool.reserve_failures, pool.emergency_blocks, pool.cow_copies); null
  /// disables them. Must outlive the pool.
  obs::MetricsRegistry* metrics = nullptr;
};

/// Handle to one block: the owning shard and its block id within it.
struct BlockRef {
  std::uint32_t shard = 0;
  std::uint32_t id = 0;
};

/// Which pool operation a fault-injection decision is gating.
enum class FaultOp {
  kReserve,   ///< try_reserve: an admission claim
  kAllocate,  ///< try_allocate: handing out a physical block
};

/// Failure-injection hook for chaos testing: when installed on a pool,
/// should_fail() is consulted on the success path of try_reserve and
/// try_allocate, and a true verdict makes the operation report failure
/// without touching pool state. Implementations must be thread-safe —
/// the pool calls them under a shard mutex from concurrently appending
/// sequences — and should be seeded/deterministic so chaos runs replay
/// (see serve::SeededFaultInjector).
class FaultInjector {
 public:
  virtual ~FaultInjector() = default;
  virtual bool should_fail(FaultOp op, std::size_t shard) = 0;
};

/// Point-in-time counters for one shard.
struct ShardStats {
  std::size_t capacity_blocks = 0;   ///< configured cap; 0 = unbounded
  std::size_t allocated_blocks = 0;  ///< slab-backed blocks ever created
  std::size_t used_blocks = 0;       ///< currently handed out
  std::size_t reserved_blocks = 0;   ///< scheduler admission claims
  std::size_t peak_used_blocks = 0;
  std::size_t peak_reserved_blocks = 0;
};

/// Aggregate of every shard's counters. The peak_* fields are true
/// *simultaneous* pool-wide high-water marks (tracked globally), not sums
/// of per-shard peaks that may have occurred at different times.
struct PoolStats {
  std::size_t n_shards = 0;
  std::size_t capacity_blocks = 0;  ///< 0 when any shard is unbounded
  std::size_t allocated_blocks = 0;
  std::size_t used_blocks = 0;
  std::size_t reserved_blocks = 0;
  std::size_t peak_used_blocks = 0;
  std::size_t peak_reserved_blocks = 0;
};

class BlockPool {
 public:
  explicit BlockPool(BlockPoolConfig cfg);

  BlockPool(const BlockPool&) = delete;
  BlockPool& operator=(const BlockPool&) = delete;

  const BlockPoolConfig& config() const noexcept { return cfg_; }
  std::size_t n_shards() const noexcept { return cfg_.n_shards; }
  std::size_t block_tokens() const noexcept { return cfg_.block_tokens; }

  /// Floats in one block's K (or V) section: n_heads*block_tokens*d_head.
  std::size_t section_floats() const noexcept { return section_floats_; }

  /// Blocks needed to hold `tokens` cache tokens (one layer's demand).
  std::size_t blocks_for_tokens(std::size_t tokens) const noexcept {
    return (tokens + cfg_.block_tokens - 1) / cfg_.block_tokens;
  }

  /// Takes one block from `shard`'s free list (growing the arena by a slab
  /// when the free list is dry and capacity allows) at refcount 1. Throws
  /// std::runtime_error when the shard is exhausted — with correct
  /// scheduler reservations this never fires.
  BlockRef allocate(std::size_t shard);

  /// Non-throwing allocate: nullopt when the shard is exhausted or the
  /// installed fault injector vetoes the allocation. The variant callers
  /// on no-throw paths (appends inside the parallel decode step, where an
  /// escaping exception would terminate the process) must use.
  std::optional<BlockRef> try_allocate(std::size_t shard);

  /// Adds a reference to a live block (a new reader of a shared chain).
  void retain(BlockRef ref);

  /// Drops one reference; at refcount 0 the block returns to its shard's
  /// free list (and stops counting as used).
  void release(BlockRef ref);

  /// Alias of release(): the sole-owner free of the pre-refcount API.
  void free(BlockRef ref) { release(ref); }

  /// Current reference count of a block (0 when not allocated).
  std::uint32_t refcount(BlockRef ref) const;

  /// Claims `blocks` of `shard`'s capacity for a sequence about to run.
  /// False (and no change) when the claim would exceed capacity.
  bool try_reserve(std::size_t shard, std::size_t blocks);

  /// Releases part of an earlier claim.
  void unreserve(std::size_t shard, std::size_t blocks);

  /// Capacity not yet claimed by reservations; SIZE_MAX when unbounded.
  std::size_t unreserved_blocks(std::size_t shard) const;

  /// K rows of one head inside a block: [block_tokens, d_head] row-major.
  float* keys(BlockRef ref, std::size_t head) noexcept;
  const float* keys(BlockRef ref, std::size_t head) const noexcept;
  /// V rows of one head inside a block: [block_tokens, d_head] row-major.
  float* values(BlockRef ref, std::size_t head) noexcept;
  const float* values(BlockRef ref, std::size_t head) const noexcept;

  ShardStats shard_stats(std::size_t shard) const;
  PoolStats stats() const;

  /// Resets peak_used/peak_reserved to current levels (start of a run).
  void reset_peaks();

  /// Installs (nullptr: clears) the fault injector consulted by
  /// try_reserve/try_allocate. The injector must outlive its installation;
  /// atomic, so it can be swapped while sequences run.
  void set_fault_injector(FaultInjector* injector) noexcept {
    injector_.store(injector, std::memory_order_release);
  }

  /// Observability hooks for PagedKvCache events the pool never sees: a
  /// fallback to an owned heap block, and a private copy of a shared block
  /// before a write. No-ops without a metrics registry.
  void note_emergency_block() noexcept;
  void note_cow_copy() noexcept;

 private:
  /// Blocks per arena slab: small enough that an unbounded shard does not
  /// over-commit, large enough that slab allocation stays off the hot path.
  static constexpr std::size_t kBlocksPerSlab = 64;
  /// Slab-directory entries per shard when unbounded (the directory is
  /// pre-sized so block pointers never move).
  static constexpr std::size_t kUnboundedSlabs = 4096;

  struct Shard {
    mutable Mutex mu;
    /// Owning slab arenas (64-byte aligned, see core/aligned.h), filled
    /// in order under `mu`. Payload access goes through `slab_bases`,
    /// not this vector.
    std::vector<AlignedFloatArray> slabs KF_GUARDED_BY(mu);
    /// Lock-free payload directory: slab_bases[i] is stored (release)
    /// exactly once when slab i is carved and never changes, so
    /// keys()/values() load (acquire) without the shard mutex. Pre-sized
    /// in the constructor (`slab_slots` entries); entries never move.
    std::unique_ptr<std::atomic<float*>[]> slab_bases;
    std::size_t slab_slots = 0;  ///< immutable after construction
    std::vector<std::uint32_t> free_list KF_GUARDED_BY(mu);
    /// live[id] is true while block id is handed out — the double-free /
    /// free-of-never-allocated guard (a duplicated id on the free list
    /// would silently alias two caches onto one payload).
    std::vector<bool> live KF_GUARDED_BY(mu);
    /// refs[id]: readers of block id (0 when not allocated). A block
    /// returns to the free list only when the last reader releases it.
    std::vector<std::uint32_t> refs KF_GUARDED_BY(mu);
    std::size_t created KF_GUARDED_BY(mu) = 0;  ///< blocks carved so far
    std::size_t used KF_GUARDED_BY(mu) = 0;
    std::size_t reserved KF_GUARDED_BY(mu) = 0;
    std::size_t peak_used KF_GUARDED_BY(mu) = 0;
    std::size_t peak_reserved KF_GUARDED_BY(mu) = 0;
  };

  /// Carves the next slab arena out of `sh` and pushes its blocks onto
  /// the free list. False when the shard is at capacity or the slab
  /// directory is full (the shard is exhausted).
  bool carve_slab_locked(Shard& sh) KF_REQUIRES(sh.mu);

  float* block_base(BlockRef ref) const noexcept;
  /// CAS-max of `peak` against `value` (pool-wide peaks are updated
  /// outside any single shard's mutex).
  static void raise_peak(std::atomic<std::size_t>& peak, std::size_t value);

  BlockPoolConfig cfg_;
  std::size_t section_floats_ = 0;
  std::size_t block_floats_ = 0;  ///< K + V sections
  std::vector<std::unique_ptr<Shard>> shards_;
  /// Pool-wide counters for true simultaneous high-water marks.
  std::atomic<std::size_t> total_used_{0};
  std::atomic<std::size_t> total_reserved_{0};
  std::atomic<std::size_t> peak_total_used_{0};
  std::atomic<std::size_t> peak_total_reserved_{0};
  /// Chaos hook; null in production. Read with acquire on the reserve/
  /// allocate paths, swapped with release by set_fault_injector.
  std::atomic<FaultInjector*> injector_{nullptr};
  /// Registry-owned counters (null when cfg_.metrics is null): sharded
  /// relaxed adds, cheap enough for the allocate hot path.
  obs::Counter* ctr_allocs_ = nullptr;
  obs::Counter* ctr_alloc_failures_ = nullptr;
  obs::Counter* ctr_reserves_ = nullptr;
  obs::Counter* ctr_reserve_failures_ = nullptr;
  obs::Counter* ctr_emergency_ = nullptr;
  obs::Counter* ctr_cow_copies_ = nullptr;
};

}  // namespace kf::mem
