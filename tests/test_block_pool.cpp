#include "mem/block_pool.h"

#include <gtest/gtest.h>

#include <cstring>
#include <stdexcept>
#include <vector>

#include "core/rng.h"

namespace kf::mem {
namespace {

BlockPoolConfig small_config(std::size_t capacity_blocks = 8) {
  BlockPoolConfig cfg;
  cfg.capacity_blocks = capacity_blocks;
  cfg.block_tokens = 4;
  cfg.n_heads = 2;
  cfg.d_head = 3;
  return cfg;
}

TEST(BlockPool, RejectsDegenerateConfig) {
  auto cfg = small_config();
  cfg.block_tokens = 0;
  EXPECT_THROW(BlockPool{cfg}, std::invalid_argument);
  cfg = small_config();
  cfg.n_heads = 0;
  EXPECT_THROW(BlockPool{cfg}, std::invalid_argument);
}

/// try_allocate() for a pool the test sized to have room.
BlockRef take(BlockPool& pool) {
  const auto ref = pool.try_allocate();
  EXPECT_TRUE(ref.has_value());
  return ref.value_or(BlockRef{});
}

TEST(BlockPool, AllocateFreeRoundTrip) {
  BlockPool pool(small_config());
  const BlockRef a = take(pool);
  const BlockRef b = take(pool);
  EXPECT_NE(a.id, b.id);
  EXPECT_EQ(pool.stats().used_blocks, 2u);
  pool.release(a);
  pool.release(b);
  EXPECT_EQ(pool.stats().used_blocks, 0u);
  // Everything freed: the next allocations reuse the same ids.
  const BlockRef c = take(pool);
  EXPECT_LT(c.id, 2u);
}

TEST(BlockPool, PayloadPointersAreStableAndDisjoint) {
  // Write a distinct pattern into every head section of every block, then
  // verify nothing overlapped — the addressing math carves disjoint
  // [block][K/V][head][token][d_head] regions.
  BlockPool pool(small_config(6));
  const auto& cfg = pool.config();
  std::vector<BlockRef> refs;
  for (std::size_t i = 0; i < 6; ++i) refs.push_back(take(pool));
  const std::size_t head_floats = cfg.block_tokens * cfg.d_head;
  for (std::size_t i = 0; i < refs.size(); ++i) {
    for (std::size_t h = 0; h < cfg.n_heads; ++h) {
      const float kv_tag = static_cast<float>(i * 100 + h * 10);
      for (std::size_t j = 0; j < head_floats; ++j) {
        pool.keys(refs[i], h)[j] = kv_tag + 1.0F;
        pool.values(refs[i], h)[j] = kv_tag + 2.0F;
      }
    }
  }
  for (std::size_t i = 0; i < refs.size(); ++i) {
    for (std::size_t h = 0; h < cfg.n_heads; ++h) {
      const float kv_tag = static_cast<float>(i * 100 + h * 10);
      for (std::size_t j = 0; j < head_floats; ++j) {
        EXPECT_EQ(pool.keys(refs[i], h)[j], kv_tag + 1.0F);
        EXPECT_EQ(pool.values(refs[i], h)[j], kv_tag + 2.0F);
      }
    }
  }
}

TEST(BlockPool, SlabAllocationsAre64ByteAligned) {
  // Slab arenas allocate at kSimdAlign (core/aligned.h) so SIMD loads on
  // head-major block payloads start cache-line aligned. Block 0 of every
  // slab IS the slab base; the property must hold across slab growth.
  BlockPool pool(small_config(0));  // unbounded: slabs on demand
  std::vector<BlockRef> refs;
  for (std::size_t i = 0; i < 260; ++i) refs.push_back(take(pool));
  for (const BlockRef r : refs) {
    if (r.id % 64 == 0) {  // kBlocksPerSlab: this block is a slab base
      EXPECT_TRUE(is_simd_aligned(pool.keys(r, 0))) << "block " << r.id;
    }
  }
  for (const BlockRef r : refs) pool.release(r);
}

TEST(BlockPool, ReservationAccounting) {
  BlockPool pool(small_config(8));
  EXPECT_TRUE(pool.try_reserve(5));
  EXPECT_EQ(pool.unreserved_blocks(), 3u);
  EXPECT_FALSE(pool.try_reserve(4));  // 5 + 4 > 8: no change
  EXPECT_EQ(pool.stats().reserved_blocks, 5u);
  EXPECT_TRUE(pool.try_reserve(3));
  EXPECT_EQ(pool.unreserved_blocks(), 0u);
  pool.unreserve(8);
  EXPECT_EQ(pool.unreserved_blocks(), 8u);
  EXPECT_THROW(pool.unreserve(1), std::invalid_argument);
}

TEST(BlockPool, UnboundedPoolGrowsOnDemand) {
  BlockPool pool(small_config(/*capacity_blocks=*/0));
  EXPECT_EQ(pool.unreserved_blocks(), static_cast<std::size_t>(-1));
  std::vector<BlockRef> refs;
  for (std::size_t i = 0; i < 200; ++i) refs.push_back(take(pool));
  EXPECT_EQ(pool.stats().used_blocks, 200u);
  EXPECT_GE(pool.stats().allocated_blocks, 200u);
  for (const BlockRef r : refs) pool.release(r);
  EXPECT_EQ(pool.stats().used_blocks, 0u);
}

TEST(BlockPool, PeaksTrackHighWaterAndReset) {
  BlockPool pool(small_config(8));
  std::vector<BlockRef> refs;
  for (std::size_t i = 0; i < 6; ++i) refs.push_back(take(pool));
  for (const BlockRef r : refs) pool.release(r);
  ASSERT_TRUE(pool.try_reserve(4));
  pool.unreserve(4);
  EXPECT_EQ(pool.stats().peak_used_blocks, 6u);
  EXPECT_EQ(pool.stats().peak_reserved_blocks, 4u);
  pool.reset_peaks();
  EXPECT_EQ(pool.stats().peak_used_blocks, 0u);
  EXPECT_EQ(pool.stats().peak_reserved_blocks, 0u);
}

TEST(BlockPool, RandomizedAllocFreeNeverLeaks) {
  // N random alloc/free cycles; at the end every freed block must be
  // reusable and used counts must be exactly what is still held — the
  // pool-invariant half of the leak test (the engine half lives in
  // test_serve_engine).
  constexpr std::size_t kCapacity = 48;
  BlockPool pool(small_config(kCapacity));
  Rng rng(99);
  std::vector<BlockRef> held;
  for (std::size_t step = 0; step < 2000; ++step) {
    const bool can_alloc = held.size() < kCapacity;
    if (!held.empty() && (!can_alloc || rng.uniform_u64(2) == 0)) {
      const std::size_t pick = rng.uniform_u64(held.size());
      pool.release(held[pick]);
      held[pick] = held.back();
      held.pop_back();
    } else if (can_alloc) {
      held.push_back(take(pool));
    }
    ASSERT_EQ(pool.stats().used_blocks, held.size()) << "step " << step;
  }
  for (const BlockRef r : held) pool.release(r);
  const PoolStats st = pool.stats();
  EXPECT_EQ(st.used_blocks, 0u);
  EXPECT_LE(st.allocated_blocks, st.capacity_blocks);
}

TEST(BlockPool, FreeDetectsDoubleFree) {
  BlockPool pool(small_config(4));
  const BlockRef a = take(pool);
  const BlockRef b = take(pool);
  pool.release(a);
  EXPECT_THROW(pool.release(a), std::invalid_argument);  // double free
  const BlockRef never{3};  // never allocated
  EXPECT_THROW(pool.release(never), std::invalid_argument);
  pool.release(b);
  EXPECT_EQ(pool.stats().used_blocks, 0u);
}

TEST(BlockPool, RefcountRetainKeepsBlockAliveUntilLastRelease) {
  BlockPool pool(small_config(8));
  const BlockRef r = take(pool);
  EXPECT_EQ(pool.refcount(r), 1u);
  pool.retain(r);
  pool.retain(r);
  EXPECT_EQ(pool.refcount(r), 3u);
  pool.release(r);
  pool.release(r);
  // Still alive: one reader left, used still counts it once.
  EXPECT_EQ(pool.refcount(r), 1u);
  EXPECT_EQ(pool.stats().used_blocks, 1u);
  pool.release(r);
  EXPECT_EQ(pool.refcount(r), 0u);
  EXPECT_EQ(pool.stats().used_blocks, 0u);
  // Fully released: further touches are errors, and the id is reusable.
  EXPECT_THROW(pool.retain(r), std::invalid_argument);
  EXPECT_THROW(pool.release(r), std::invalid_argument);
  const BlockRef again = take(pool);
  EXPECT_EQ(again.id, r.id);
  EXPECT_EQ(pool.refcount(again), 1u);
  pool.release(again);
}

TEST(BlockPool, SharedBlockChargesUsedOnce) {
  // Sharing N ways is the whole point of the prefix cache: the pool must
  // charge the physical block once no matter how many readers hold it.
  BlockPool pool(small_config(4));
  const BlockRef r = take(pool);
  for (int i = 0; i < 5; ++i) pool.retain(r);
  EXPECT_EQ(pool.stats().used_blocks, 1u);
  for (int i = 0; i < 6; ++i) pool.release(r);
  EXPECT_EQ(pool.stats().used_blocks, 0u);
}

TEST(BlockPool, RandomizedRefcountChurnNeverLeaks) {
  // Interleaved allocate/retain/release; live refcount bookkeeping
  // mirrored locally. After draining, every block must be at refcount 0
  // with used back to zero — the no-leak half of the prefix-cache
  // acceptance criteria at the pool level.
  constexpr std::size_t kCapacity = 32;
  BlockPool pool(small_config(kCapacity));
  Rng rng(99);
  std::vector<std::pair<BlockRef, std::size_t>> live;  // ref, local count
  for (std::size_t step = 0; step < 2000; ++step) {
    const std::uint64_t op = rng.uniform_u64(10);
    if (op < 4 || live.empty()) {
      if (live.size() < kCapacity) live.emplace_back(take(pool), 1u);
    } else if (op < 6) {
      auto& [ref, count] = live[rng.uniform_u64(live.size())];
      pool.retain(ref);
      ++count;
    } else {
      const std::size_t pick = rng.uniform_u64(live.size());
      auto& [ref, count] = live[pick];
      pool.release(ref);
      if (--count == 0) {
        live.erase(live.begin() + static_cast<long>(pick));
      }
    }
    std::size_t used = 0;
    for (const auto& [ref, count] : live) {
      EXPECT_EQ(pool.refcount(ref), count);
      ++used;
    }
    ASSERT_EQ(pool.stats().used_blocks, used) << "step " << step;
  }
  for (auto& [ref, count] : live) {
    while (count-- > 0) pool.release(ref);
    EXPECT_EQ(pool.refcount(ref), 0u);
  }
  EXPECT_EQ(pool.stats().used_blocks, 0u);
}

TEST(BlockPool, TryAllocateReturnsNulloptAtCapacityInsteadOfThrowing) {
  BlockPool pool(small_config(2));
  std::vector<BlockRef> held;
  for (;;) {
    const auto ref = pool.try_allocate();
    if (!ref.has_value()) break;
    held.push_back(*ref);
  }
  EXPECT_EQ(held.size(), 2u);
  EXPECT_EQ(pool.stats().used_blocks, 2u);
  // Freeing one makes try_allocate succeed again.
  pool.release(held.back());
  held.pop_back();
  const auto again = pool.try_allocate();
  ASSERT_TRUE(again.has_value());
  held.push_back(*again);
  for (const BlockRef r : held) pool.release(r);
  EXPECT_EQ(pool.stats().used_blocks, 0u);
}

/// Scripted injector: fails the next `n` calls of the given op.
class CountdownInjector final : public FaultInjector {
 public:
  CountdownInjector(FaultOp op, std::size_t n) : op_(op), left_(n) {}
  bool should_fail(FaultOp op) override {
    if (op != op_ || left_ == 0) return false;
    --left_;
    return true;
  }

 private:
  const FaultOp op_;
  std::size_t left_;
};

TEST(BlockPool, FaultInjectorVetoesReserveThenRecovers) {
  BlockPool pool(small_config(8));
  CountdownInjector inject(FaultOp::kReserve, 2);
  pool.set_fault_injector(&inject);
  // Capacity is plentiful, but the injector vetoes the first two claims —
  // and a vetoed reserve must leave the counters untouched.
  EXPECT_FALSE(pool.try_reserve(2));
  EXPECT_FALSE(pool.try_reserve(2));
  EXPECT_EQ(pool.stats().reserved_blocks, 0u);
  EXPECT_TRUE(pool.try_reserve(2));
  EXPECT_EQ(pool.stats().reserved_blocks, 2u);
  pool.unreserve(2);
  pool.set_fault_injector(nullptr);
}

TEST(BlockPool, FaultInjectorVetoesAllocateThenRecovers) {
  BlockPool pool(small_config(8));
  CountdownInjector inject(FaultOp::kAllocate, 1);
  pool.set_fault_injector(&inject);
  EXPECT_FALSE(pool.try_allocate().has_value());
  EXPECT_EQ(pool.stats().used_blocks, 0u);
  const auto ref = pool.try_allocate();
  ASSERT_TRUE(ref.has_value());
  EXPECT_EQ(pool.stats().used_blocks, 1u);
  // Clearing the injector stops all vetoes.
  pool.set_fault_injector(nullptr);
  const BlockRef b = take(pool);
  pool.release(*ref);
  pool.release(b);
  EXPECT_EQ(pool.stats().used_blocks, 0u);
}

}  // namespace
}  // namespace kf::mem
