// Randomized multi-threaded stress of the BlockPool: the regression net
// for the pool's concurrency contract (mutex-guarded bookkeeping,
// lock-free slab-directory publication for payload access). Run under
// ThreadSanitizer in CI; single-threaded runs still exercise the
// invariants.
//
// Each worker loops: reserve a random claim, allocate blocks against it,
// stamp and verify payloads (catches two owners aliasing one block and a
// torn slab publication alike), churn refcounts, release everything,
// unreserve. A dedicated observer hammers the stats accessor, asserting
// the invariant used <= reserved <= capacity on every snapshot. After
// the join the pool must be empty: every block back on the free list,
// every reservation returned.
#include "mem/block_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <random>
#include <thread>
#include <vector>

namespace kf::mem {
namespace {

/// Pre-shared blocks the workers retain and read concurrently.
constexpr std::size_t kShared = 3;
constexpr std::size_t kCapacity = 72;

BlockPoolConfig stress_config() {
  BlockPoolConfig cfg;
  cfg.capacity_blocks = kCapacity;
  cfg.block_tokens = 4;
  cfg.n_heads = 2;
  cfg.d_head = 3;
  return cfg;
}

// A value no other block's stamp collides with.
float stamp_of(BlockRef ref) { return static_cast<float>(ref.id) + 0.5F; }

/// try_allocate() where the test guarantees room.
BlockRef take(BlockPool& pool) {
  const auto ref = pool.try_allocate();
  EXPECT_TRUE(ref.has_value());
  return ref.value_or(BlockRef{});
}

void stamp(BlockPool& pool, BlockRef ref) {
  const std::size_t heads = pool.config().n_heads;
  const std::size_t section = pool.config().block_tokens * pool.config().d_head;
  for (std::size_t h = 0; h < heads; ++h) {
    float* k = pool.keys(ref, h);
    float* v = pool.values(ref, h);
    for (std::size_t i = 0; i < section; ++i) {
      k[i] = stamp_of(ref);
      v[i] = -stamp_of(ref);
    }
  }
}

bool verify_stamp(const BlockPool& pool, BlockRef ref) {
  const std::size_t heads = pool.config().n_heads;
  const std::size_t section = pool.config().block_tokens * pool.config().d_head;
  for (std::size_t h = 0; h < heads; ++h) {
    const float* k = pool.keys(ref, h);
    const float* v = pool.values(ref, h);
    for (std::size_t i = 0; i < section; ++i) {
      if (k[i] != stamp_of(ref) || v[i] != -stamp_of(ref)) return false;
    }
  }
  return true;
}

TEST(BlockPoolStress, ConcurrentReserveAllocateChurnLeavesPoolEmpty) {
  BlockPool pool(stress_config());

  // Pre-shared blocks: workers retain/release and read them concurrently,
  // stressing refcounts above 1 the way prefix-cache chains do. Backed by
  // a reservation so used <= reserved holds throughout.
  std::vector<BlockRef> shared;
  ASSERT_TRUE(pool.try_reserve(kShared));
  for (std::size_t s = 0; s < kShared; ++s) {
    shared.push_back(take(pool));
    stamp(pool, shared.back());
  }

  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kRounds = 300;
  std::atomic<bool> failed{false};
  std::atomic<bool> stop_observer{false};

  const auto worker = [&](std::size_t tid) {
    std::mt19937 rng(static_cast<std::mt19937::result_type>(tid) + 1);
    std::uniform_int_distribution<std::size_t> shared_dist(0, kShared - 1);
    std::uniform_int_distribution<std::size_t> claim_dist(1, 3);
    for (std::size_t round = 0; round < kRounds && !failed; ++round) {
      const std::size_t s = shared_dist(rng);
      const std::size_t claim = claim_dist(rng);
      if (!pool.try_reserve(claim)) continue;  // pool contended: skip
      std::vector<BlockRef> mine;
      for (std::size_t i = 0; i < claim; ++i) {
        mine.push_back(take(pool));
        stamp(pool, mine.back());
      }
      // Refcount churn on an owned block and on the shared one.
      pool.retain(mine.front());
      pool.retain(shared[s]);
      if (!verify_stamp(pool, shared[s])) failed = true;
      pool.release(shared[s]);
      pool.release(mine.front());
      // Nobody else may have written our blocks: aliasing (a block handed
      // to two owners) or a mis-published slab shows up here.
      for (const BlockRef ref : mine) {
        if (!verify_stamp(pool, ref)) failed = true;
      }
      for (const BlockRef ref : mine) pool.release(ref);
      pool.unreserve(claim);
    }
  };

  // Stats observer: every snapshot must satisfy the accounting
  // invariant; allocate/release never run outside a reservation here.
  const auto observer = [&] {
    while (!stop_observer) {
      const PoolStats st = pool.stats();
      if (st.used_blocks > st.reserved_blocks ||
          st.reserved_blocks > st.capacity_blocks) {
        failed = true;
      }
      std::this_thread::yield();
    }
  };

  std::vector<std::thread> threads;
  threads.reserve(kThreads + 1);
  threads.emplace_back(observer);
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back(worker, t);
  }
  for (std::size_t t = 1; t < threads.size(); ++t) threads[t].join();
  stop_observer = true;
  threads.front().join();

  EXPECT_FALSE(failed) << "invariant violated or payload corrupted";

  // The shared blocks survived the churn intact at refcount 1.
  for (const BlockRef ref : shared) {
    EXPECT_EQ(pool.refcount(ref), 1u);
    EXPECT_TRUE(verify_stamp(pool, ref));
    pool.release(ref);
  }
  pool.unreserve(kShared);

  // Empty pool: every block returned, every claim released, peaks sane.
  const PoolStats st = pool.stats();
  EXPECT_EQ(st.used_blocks, 0u);
  EXPECT_EQ(st.reserved_blocks, 0u);
  EXPECT_LE(st.peak_used_blocks, st.peak_reserved_blocks);
  EXPECT_LE(st.peak_reserved_blocks, kCapacity);
  EXPECT_LE(st.allocated_blocks, st.capacity_blocks);

  // Emptied means reusable: a full-capacity sweep still succeeds.
  std::vector<BlockRef> sweep;
  ASSERT_TRUE(pool.try_reserve(kCapacity));
  for (std::size_t i = 0; i < kCapacity; ++i) sweep.push_back(take(pool));
  for (const BlockRef ref : sweep) pool.release(ref);
  pool.unreserve(kCapacity);
}

// An unbounded pool grows by slabs while readers touch already-published
// payloads: the acquire/release slab-directory handshake under fire.
TEST(BlockPoolStress, ConcurrentSlabGrowthKeepsPublishedPayloadsStable) {
  BlockPoolConfig cfg = stress_config();
  cfg.capacity_blocks = 0;  // unbounded: every carve goes through a slab
  BlockPool pool(cfg);

  constexpr std::size_t kThreads = 6;
  constexpr std::size_t kPerThread = 100;  // > kBlocksPerSlab total: grows
  std::atomic<bool> failed{false};

  const auto worker = [&](std::size_t tid) {
    std::mt19937 rng(static_cast<std::mt19937::result_type>(tid) + 101);
    std::uniform_int_distribution<int> coin(0, 3);
    std::vector<BlockRef> mine;
    for (std::size_t i = 0; i < kPerThread && !failed; ++i) {
      mine.push_back(take(pool));
      stamp(pool, mine.back());
      // Re-read a random earlier block: its slab may have been published
      // long ago or by another thread a moment ago.
      const std::size_t pick = rng() % mine.size();
      if (!verify_stamp(pool, mine[pick])) failed = true;
      if (coin(rng) == 0 && mine.size() > 1) {
        pool.release(mine.back());
        mine.pop_back();
      }
    }
    for (const BlockRef ref : mine) pool.release(ref);
  };

  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) threads.emplace_back(worker, t);
  for (std::thread& t : threads) t.join();

  EXPECT_FALSE(failed) << "payload corrupted across slab growth";
  EXPECT_EQ(pool.stats().used_blocks, 0u);
  EXPECT_GT(pool.stats().allocated_blocks, 64u);  // really grew past 1 slab
}

}  // namespace
}  // namespace kf::mem
