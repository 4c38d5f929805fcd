// Paged KV memory: one pool of fixed-size token blocks.
//
// Keyformer's serving claim is that discarding non-key tokens turns KV
// memory into admission capacity — but that only works if evicted memory
// actually returns to a shared store other sequences can draw from. The
// BlockPool is that store: an arena carved into fixed-size blocks of
// `block_tokens` tokens, head-major inside the block ([n_heads]
// [block_tokens][d_head] for K, then the same for V), handed out through
// one free list. Each kv::KvCache chains blocks per layer; compaction and
// sequence retirement free whole blocks back to the pool.
//
// Two accounting layers:
//   - used blocks: physically allocated to caches right now;
//   - reserved blocks: the BatchScheduler's admission claims. Admission
//     reserves a sequence's worst-case block demand before any token is
//     appended, so `capacity_blocks` is an exact memory cap — a sequence
//     that was admitted can always allocate what it was charged for
//     (used <= reserved <= capacity).
// Stats expose both levels, their high-water marks and the blocks carved
// so far.
//
// Blocks are reference counted so one immutable chain can back several
// readers (the prefix cache shares a prompt's block chain across every
// sequence carrying that prompt): try_allocate() hands a block out at
// refcount 1, retain() adds a reader, release() drops one, and the block
// only returns to the free list at refcount 0. `used` counts *physical*
// blocks (refcount >= 1), so sharing N ways still charges the pool once.
//
// Thread safety: allocate/release/reserve/unreserve/stats take the pool
// mutex (sequences append concurrently in the batched decode step); the
// guarded state is annotated for clang's -Wthread-safety, which proves
// every access goes through it. Block payload pointers are stable for
// the lifetime of the pool: the arena grows by fixed-size slabs into a
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
  /// Hard cap on blocks; 0 = unbounded (slabs grow on demand up to the
  /// slab-directory limit).
  std::size_t capacity_blocks = 0;
  /// Tokens per block.
  std::size_t block_tokens = 16;
  /// Row geometry shared by every cache built on this pool.
  std::size_t n_heads = 0;
  std::size_t d_head = 0;
  /// Observability registry for allocation/reservation counters
  /// (pool.allocs, pool.alloc_failures, pool.reserves,
  /// pool.reserve_failures, pool.emergency_blocks); null disables them.
  /// Must outlive the pool.
  obs::MetricsRegistry* metrics = nullptr;
};

/// Handle to one block: its id in the pool.
struct BlockRef {
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
/// the pool calls them under its mutex from concurrently appending
/// sequences — and should be seeded/deterministic so chaos runs replay
/// (see serve::SeededFaultInjector).
class FaultInjector {
 public:
  virtual ~FaultInjector() = default;
  virtual bool should_fail(FaultOp op) = 0;
};

/// Point-in-time counters of the pool.
struct PoolStats {
  std::size_t capacity_blocks = 0;   ///< configured cap; 0 = unbounded
  std::size_t allocated_blocks = 0;  ///< slab-backed blocks ever created
  std::size_t used_blocks = 0;       ///< currently handed out
  std::size_t reserved_blocks = 0;   ///< scheduler admission claims
  std::size_t peak_used_blocks = 0;
  std::size_t peak_reserved_blocks = 0;
};

class BlockPool {
 public:
  explicit BlockPool(BlockPoolConfig cfg);

  BlockPool(const BlockPool&) = delete;
  BlockPool& operator=(const BlockPool&) = delete;

  const BlockPoolConfig& config() const noexcept { return cfg_; }
  std::size_t block_tokens() const noexcept { return cfg_.block_tokens; }

  /// Floats in one block's K (or V) section: n_heads*block_tokens*d_head.
  std::size_t section_floats() const noexcept { return section_floats_; }

  /// Takes one block from the free list (growing the arena by a slab
  /// when the free list is dry and capacity allows) at refcount 1;
  /// nullopt when the pool is exhausted or the installed fault injector
  /// vetoes the allocation. Never throws for capacity: callers on no-throw
  /// paths (appends inside the parallel decode step, where an escaping
  /// exception would terminate the process) rely on that.
  std::optional<BlockRef> try_allocate() KF_EXCLUDES(mu_);

  /// Adds a reference to a live block (a new reader of a shared chain).
  void retain(BlockRef ref) KF_EXCLUDES(mu_);

  /// Drops one reference; at refcount 0 the block returns to the free
  /// list (and stops counting as used). Throws std::invalid_argument for
  /// a block that is not allocated (a double release).
  void release(BlockRef ref) KF_EXCLUDES(mu_);

  /// Current reference count of a block (0 when not allocated).
  std::uint32_t refcount(BlockRef ref) const KF_EXCLUDES(mu_);

  /// Claims `blocks` of capacity for a sequence about to run. False (and
  /// no change) when the claim would exceed capacity.
  bool try_reserve(std::size_t blocks) KF_EXCLUDES(mu_);

  /// Releases part of an earlier claim.
  void unreserve(std::size_t blocks) KF_EXCLUDES(mu_);

  /// Capacity not yet claimed by reservations; SIZE_MAX when unbounded.
  std::size_t unreserved_blocks() const KF_EXCLUDES(mu_);

  /// K rows of one head inside a block: [block_tokens, d_head] row-major.
  float* keys(BlockRef ref, std::size_t head) noexcept;
  const float* keys(BlockRef ref, std::size_t head) const noexcept;
  /// V rows of one head inside a block: [block_tokens, d_head] row-major.
  float* values(BlockRef ref, std::size_t head) noexcept;
  const float* values(BlockRef ref, std::size_t head) const noexcept;

  PoolStats stats() const KF_EXCLUDES(mu_);

  /// Resets peak_used/peak_reserved to current levels (start of a run).
  void reset_peaks() KF_EXCLUDES(mu_);

  /// Installs (nullptr: clears) the fault injector consulted by
  /// try_reserve/try_allocate. The injector must outlive its installation;
  /// atomic, so it can be swapped while sequences run.
  void set_fault_injector(FaultInjector* injector) noexcept {
    injector_.store(injector, std::memory_order_release);
  }

  /// Observability hook for a KvCache event the pool never sees: a
  /// fallback to an owned heap block. No-op without a metrics registry.
  void note_emergency_block() noexcept;

 private:
  /// Blocks per arena slab: small enough that an unbounded pool does not
  /// over-commit, large enough that slab allocation stays off the hot path.
  static constexpr std::size_t kBlocksPerSlab = 64;
  /// Slab-directory entries when unbounded (the directory is pre-sized so
  /// block pointers never move).
  static constexpr std::size_t kUnboundedSlabs = 4096;

  /// Carves the next slab arena and pushes its blocks onto the free list.
  /// False when the pool is at capacity or the slab directory is full
  /// (the pool is exhausted).
  bool carve_slab_locked() KF_REQUIRES(mu_);

  float* block_base(BlockRef ref) const noexcept;

  BlockPoolConfig cfg_;
  std::size_t section_floats_ = 0;
  std::size_t block_floats_ = 0;  ///< K + V sections
  mutable Mutex mu_;
  /// Owning slab arenas (64-byte aligned, see core/aligned.h), filled in
  /// order under `mu_`. Payload access goes through `slab_bases_`, not
  /// this vector.
  std::vector<AlignedFloatArray> slabs_ KF_GUARDED_BY(mu_);
  /// Lock-free payload directory: slab_bases_[i] is stored (release)
  /// exactly once when slab i is carved and never changes, so
  /// keys()/values() load (acquire) without the mutex. Pre-sized in the
  /// constructor (`slab_slots_` entries); entries never move.
  std::unique_ptr<std::atomic<float*>[]> slab_bases_;
  std::size_t slab_slots_ = 0;  ///< immutable after construction
  std::vector<std::uint32_t> free_list_ KF_GUARDED_BY(mu_);
  /// refs_[id]: readers of block id (0 when not allocated — the
  /// double-release / release-of-never-allocated guard, since a duplicated
  /// id on the free list would silently alias two caches onto one
  /// payload). A block returns to the free list only when the last reader
  /// releases it. Sized to the blocks carved so far.
  std::vector<std::uint32_t> refs_ KF_GUARDED_BY(mu_);
  std::size_t used_ KF_GUARDED_BY(mu_) = 0;
  std::size_t reserved_ KF_GUARDED_BY(mu_) = 0;
  std::size_t peak_used_ KF_GUARDED_BY(mu_) = 0;
  std::size_t peak_reserved_ KF_GUARDED_BY(mu_) = 0;
  /// Chaos hook; null in production. Read with acquire on the reserve/
  /// allocate paths, swapped with release by set_fault_injector.
  std::atomic<FaultInjector*> injector_{nullptr};
  /// Registry-owned counters (null when cfg_.metrics is null): relaxed
  /// per-thread adds, cheap enough for the allocate hot path.
  obs::Counter* ctr_allocs_ = nullptr;
  obs::Counter* ctr_alloc_failures_ = nullptr;
  obs::Counter* ctr_reserves_ = nullptr;
  obs::Counter* ctr_reserve_failures_ = nullptr;
  obs::Counter* ctr_emergency_ = nullptr;
};

}  // namespace kf::mem
