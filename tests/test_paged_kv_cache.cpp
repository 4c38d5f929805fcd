// The block-chain behaviour of kv::KvCache: chain invariants, segments,
// the shared prefix region (eviction drops shared rows without moving or
// copying them) and the emergency-block fallback.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <vector>

#include "kvcache/kv_cache.h"
#include "mem/block_pool.h"
#include "obs/metrics.h"

namespace kf::mem {
namespace {

using kv::KvCache;

BlockPoolConfig pool_config(std::size_t block_tokens = 4,
                            std::size_t n_heads = 2, std::size_t d_head = 3) {
  BlockPoolConfig cfg;
  cfg.capacity_blocks = 0;  // unbounded: the cache under test decides
  cfg.block_tokens = block_tokens;
  cfg.n_heads = n_heads;
  cfg.d_head = d_head;
  return cfg;
}

/// pool_config(4) counting into `reg` (pool.allocs and the rest).
BlockPoolConfig metered_config(obs::MetricsRegistry& reg) {
  BlockPoolConfig cfg = pool_config(/*block_tokens=*/4);
  cfg.metrics = &reg;
  return cfg;
}

std::vector<float> ramp_row(std::size_t width, float base) {
  std::vector<float> row(width);
  for (std::size_t i = 0; i < width; ++i) {
    row[i] = base + static_cast<float>(i) * 0.25F;
  }
  return row;
}

TEST(PagedKvCache, ChainInvariantAcrossAppends) {
  BlockPool pool(pool_config(/*block_tokens=*/4));
  KvCache c(pool);
  EXPECT_EQ(c.blocks_held(), 0u);
  for (std::size_t t = 0; t < 10; ++t) {
    const auto k = ramp_row(c.row_width(), static_cast<float>(t));
    c.append(k, k, t);
    EXPECT_EQ(c.blocks_held(), (t + 1 + 3) / 4) << "token " << t;
    EXPECT_EQ(pool.stats().used_blocks, c.blocks_held());
  }
}

TEST(PagedKvCache, SegmentsTileTheCacheInOrder) {
  BlockPool pool(pool_config(/*block_tokens=*/4));
  KvCache c(pool);
  for (std::size_t t = 0; t < 10; ++t) {
    const auto k = ramp_row(c.row_width(), static_cast<float>(t));
    c.append(k, k, t);
  }
  ASSERT_EQ(c.segment_count(), 3u);
  for (std::size_t h = 0; h < c.n_heads(); ++h) {
    std::size_t covered = 0;
    for (std::size_t s = 0; s < c.segment_count(); ++s) {
      const kv::KvSegment seg = c.segment(h, s);
      EXPECT_EQ(seg.first, covered);
      covered += seg.count;
      // Each segment row must agree with the per-index accessor.
      for (std::size_t r = 0; r < seg.count; ++r) {
        const auto expect_k = c.key_head(seg.first + r, h);
        const auto expect_v = c.value_head(seg.first + r, h);
        for (std::size_t j = 0; j < c.d_head(); ++j) {
          EXPECT_EQ(seg.keys[r * c.d_head() + j], expect_k[j]);
          EXPECT_EQ(seg.values[r * c.d_head() + j], expect_v[j]);
        }
      }
    }
    EXPECT_EQ(covered, c.size());
  }
}

TEST(PagedKvCache, CompactFreesEmptiedTailBlocks) {
  BlockPool pool(pool_config(/*block_tokens=*/4));
  KvCache c(pool);
  for (std::size_t t = 0; t < 12; ++t) {
    const auto k = ramp_row(c.row_width(), static_cast<float>(t));
    c.append(k, k, t);
  }
  EXPECT_EQ(c.blocks_held(), 3u);
  // Keep 5 scattered tokens: 2 blocks remain, 1 returns to the pool.
  const std::vector<std::size_t> keep{0, 3, 6, 9, 11};
  c.compact(keep);
  EXPECT_EQ(c.size(), 5u);
  EXPECT_EQ(c.blocks_held(), 2u);
  EXPECT_EQ(pool.stats().used_blocks, 2u);
  // Kept rows gathered in order.
  EXPECT_EQ(c.original_position(0), 0u);
  EXPECT_EQ(c.original_position(4), 11u);
  EXPECT_EQ(c.key_row(1), ramp_row(c.row_width(), 3.0F));
  EXPECT_EQ(c.value_row(3), ramp_row(c.row_width(), 9.0F));
}

TEST(PagedKvCache, ClearAndDestructorReturnEveryBlock) {
  BlockPool pool(pool_config());
  {
    KvCache c(pool);
    for (std::size_t t = 0; t < 9; ++t) {
      const auto k = ramp_row(c.row_width(), static_cast<float>(t));
      c.append(k, k, t);
    }
    EXPECT_GT(pool.stats().used_blocks, 0u);
    c.clear();
    EXPECT_EQ(pool.stats().used_blocks, 0u);
    EXPECT_EQ(c.size(), 0u);
    for (std::size_t t = 0; t < 5; ++t) {  // reusable after clear
      const auto k = ramp_row(c.row_width(), static_cast<float>(t));
      c.append(k, k, t);
    }
    EXPECT_EQ(pool.stats().used_blocks, 2u);
  }
  EXPECT_EQ(pool.stats().used_blocks, 0u);  // destructor freed
}

TEST(PagedKvCache, CompactToEmptyThenRegrow) {
  // Satellite coverage: a cache drained to zero by compaction must return
  // every block and then grow again from scratch exactly like a fresh
  // cache (chain invariant, stats, and contents all intact).
  BlockPool pool(pool_config(/*block_tokens=*/4));
  KvCache c(pool);
  for (std::size_t t = 0; t < 11; ++t) {
    const auto k = ramp_row(c.row_width(), static_cast<float>(t));
    c.append(k, k, t);
  }
  EXPECT_EQ(c.blocks_held(), 3u);
  c.compact({});  // keep nothing
  EXPECT_EQ(c.size(), 0u);
  EXPECT_EQ(c.blocks_held(), 0u);
  EXPECT_EQ(pool.stats().used_blocks, 0u);
  // Regrowth: positions may restart (the cache is empty), contents land
  // in freshly allocated blocks.
  for (std::size_t t = 0; t < 6; ++t) {
    const auto k = ramp_row(c.row_width(), 100.0F + static_cast<float>(t));
    c.append(k, k, t);
    EXPECT_EQ(c.blocks_held(), (t + 1 + 3) / 4);
  }
  EXPECT_EQ(pool.stats().used_blocks, 2u);
  EXPECT_EQ(c.key_row(4), ramp_row(c.row_width(), 104.0F));
  EXPECT_EQ(c.original_position(5), 5u);
}

// ---------------------------------------------------------------------------
// Shared prefix region.

/// Builds a donor cache holding `tokens` rows (positions 0..tokens-1) with
/// deterministic contents, per-head scores i * (head + 1), and noise rows
/// covering every row with i - head.
void fill_prefix(KvCache& c, std::size_t tokens) {
  for (std::size_t t = 0; t < tokens; ++t) {
    const auto k = ramp_row(c.row_width(), static_cast<float>(t));
    const auto v = ramp_row(c.row_width(), 1000.0F + static_cast<float>(t));
    c.append(k, v, t);
    for (std::size_t h = 0; h < c.n_heads(); ++h) {
      c.add_score(h, t, static_cast<double>(t * (h + 1)));
      c.append_noise(h, static_cast<double>(t) - static_cast<double>(h));
    }
  }
}

std::vector<std::vector<double>> snapshot_scores(const KvCache& c,
                                                 std::size_t tokens) {
  std::vector<std::vector<double>> scores;
  for (std::size_t h = 0; h < c.n_heads(); ++h) {
    const auto s = c.scores(h).first(tokens);
    scores.emplace_back(s.begin(), s.end());
  }
  return scores;
}

/// The first `tokens` covered noise values of every head.
std::vector<std::vector<double>> snapshot_noise(const KvCache& c,
                                                std::size_t tokens) {
  std::vector<std::vector<double>> noise;
  for (std::size_t h = 0; h < c.n_heads(); ++h) {
    const auto z = c.noise(h);
    const auto covered = z.first(std::min(z.size(), tokens));
    noise.emplace_back(covered.begin(), covered.end());
  }
  return noise;
}

TEST(PagedKvCache, AdoptPrefixSharesBlocksAndSeedsMetadata) {
  obs::MetricsRegistry reg;
  BlockPool pool(metered_config(reg));
  KvCache donor(pool);
  fill_prefix(donor, 8);  // exactly 2 blocks
  const std::vector<BlockRef> chain(donor.blocks().begin(),
                                    donor.blocks().end());
  const auto scores = snapshot_scores(donor, 8);

  KvCache reader(pool);
  reader.adopt_prefix(chain, 8, scores, snapshot_noise(donor, 8));
  EXPECT_EQ(reader.size(), 8u);
  EXPECT_EQ(reader.blocks_held(), 2u);
  EXPECT_EQ(reader.shared_blocks(), 2u);
  // Physically the same blocks: used counts them once, refcount twice.
  EXPECT_EQ(pool.stats().used_blocks, 2u);
  EXPECT_EQ(pool.refcount(chain[0]), 2u);
  for (std::size_t t = 0; t < 8; ++t) {
    EXPECT_EQ(reader.key_row(t), donor.key_row(t)) << "token " << t;
    EXPECT_EQ(reader.value_row(t), donor.value_row(t)) << "token " << t;
    EXPECT_EQ(reader.original_position(t), t);
  }
  for (std::size_t h = 0; h < reader.n_heads(); ++h) {
    EXPECT_EQ(reader.scores(h)[5], donor.scores(h)[5]);
    const auto z = reader.noise(h);
    const auto donor_z = donor.noise(h);
    EXPECT_TRUE(std::equal(z.begin(), z.end(), donor_z.begin(), donor_z.end()))
        << "head " << h;
  }
  // Appends open a fresh private block; the shared ones stay shared.
  const auto k = ramp_row(reader.row_width(), 50.0F);
  reader.append(k, k, 8);
  EXPECT_EQ(reader.blocks_held(), 3u);
  EXPECT_EQ(reader.shared_blocks(), 2u);
  EXPECT_EQ(pool.refcount(chain[1]), 2u);
}

TEST(PagedKvCache, AdoptPrefixValidatesAlignmentAndEmptiness) {
  BlockPool pool(pool_config(/*block_tokens=*/4));
  KvCache donor(pool);
  fill_prefix(donor, 8);
  const std::vector<BlockRef> chain(donor.blocks().begin(),
                                    donor.blocks().end());
  KvCache reader(pool);
  const auto scores = snapshot_scores(donor, 8);
  const auto noise = snapshot_noise(donor, 8);
  // 7 tokens is not block-aligned; 8 tokens over one block is a mismatch.
  EXPECT_THROW(reader.adopt_prefix(chain, 7, snapshot_scores(donor, 7),
                                   snapshot_noise(donor, 7)),
               std::invalid_argument);
  EXPECT_THROW(reader.adopt_prefix({chain.data(), 1}, 8, scores, noise),
               std::invalid_argument);
  // A noise row may not cover more rows than the prefix holds.
  auto long_noise = noise;
  long_noise[1].push_back(0.0);
  EXPECT_THROW(reader.adopt_prefix(chain, 8, scores, long_noise),
               std::invalid_argument);
  EXPECT_TRUE(reader.empty());
  reader.adopt_prefix(chain, 8, scores, noise);
  EXPECT_THROW(reader.adopt_prefix(chain, 8, scores, noise), std::logic_error);
}

/// Appends `count` private rows at positions from, from + 1, ... with the
/// same contents fill_prefix gives those positions.
void append_rows(KvCache& c, std::size_t from, std::size_t count) {
  for (std::size_t t = from; t < from + count; ++t) {
    const auto k = ramp_row(c.row_width(), static_cast<float>(t));
    const auto v = ramp_row(c.row_width(), 1000.0F + static_cast<float>(t));
    c.append(k, v, t);
  }
}

/// Every row of `c` reads back what fill_prefix/append_rows wrote for its
/// original position, through the per-index accessors and the segments.
void expect_rows_intact(const KvCache& c) {
  for (std::size_t t = 0; t < c.size(); ++t) {
    const auto pos = static_cast<float>(c.original_position(t));
    EXPECT_EQ(c.key_row(t), ramp_row(c.row_width(), pos)) << "row " << t;
    EXPECT_EQ(c.value_row(t), ramp_row(c.row_width(), 1000.0F + pos))
        << "row " << t;
  }
  for (std::size_t h = 0; h < c.n_heads(); ++h) {
    std::size_t covered = 0;
    for (std::size_t s = 0; s < c.segment_count(); ++s) {
      const kv::KvSegment seg = c.segment(h, s);
      ASSERT_EQ(seg.first, covered) << "head " << h << " segment " << s;
      ASSERT_GT(seg.count, 0u);
      for (std::size_t r = 0; r < seg.count; ++r) {
        const auto k = c.key_head(seg.first + r, h);
        const auto v = c.value_head(seg.first + r, h);
        for (std::size_t j = 0; j < c.d_head(); ++j) {
          EXPECT_EQ(seg.keys[r * c.d_head() + j], k[j]);
          EXPECT_EQ(seg.values[r * c.d_head() + j], v[j]);
        }
      }
      covered += seg.count;
    }
    EXPECT_EQ(covered, c.size()) << "head " << h;
  }
}

TEST(PagedKvCache, EvictionFromAdoptedChainMovesAndCopiesNothing) {
  obs::MetricsRegistry reg;
  BlockPool pool(metered_config(reg));
  KvCache donor(pool);
  fill_prefix(donor, 12);  // 3 blocks
  const std::vector<BlockRef> chain(donor.blocks().begin(),
                                    donor.blocks().end());
  KvCache reader(pool);
  reader.adopt_prefix(chain, 12, snapshot_scores(donor, 12),
                      snapshot_noise(donor, 12));
  const std::size_t allocs = reg.counter("pool.allocs").value();

  // Keep rows 0..3 and 4 scattered later ones: every kept row stays where
  // the donor wrote it, so no block is allocated, written or copied.
  const std::vector<std::size_t> keep{0, 1, 2, 3, 5, 7, 9, 11};
  reader.compact(keep);
  EXPECT_EQ(reader.size(), 8u);
  EXPECT_EQ(reg.counter("pool.allocs").value(), allocs);
  EXPECT_EQ(pool.stats().used_blocks, 3u);
  ASSERT_EQ(reader.blocks().size(), chain.size());
  for (std::size_t b = 0; b < chain.size(); ++b) {
    EXPECT_EQ(reader.blocks()[b].id, chain[b].id) << "slot " << b;
    EXPECT_EQ(pool.refcount(chain[b]), 2u) << "slot " << b;
  }
  EXPECT_EQ(reader.shared_blocks(), 3u);
  // Runs of consecutive positions inside one block: {0..3}, {5}, {7},
  // {9}, {11}.
  EXPECT_EQ(reader.segment_count(), 5u);
  for (std::size_t j = 0; j < keep.size(); ++j) {
    EXPECT_EQ(reader.original_position(j), keep[j]);
    EXPECT_EQ(reader.scores(1)[j], static_cast<double>(keep[j] * 2));
  }
  expect_rows_intact(reader);
  expect_rows_intact(donor);
  EXPECT_EQ(donor.size(), 12u);
}

TEST(PagedKvCache, SharedBlockWithoutKeptRowIsReleased) {
  BlockPool pool(pool_config(/*block_tokens=*/4));
  KvCache donor(pool);
  fill_prefix(donor, 12);
  const std::vector<BlockRef> chain(donor.blocks().begin(),
                                    donor.blocks().end());
  KvCache reader(pool);
  reader.adopt_prefix(chain, 12, snapshot_scores(donor, 12),
                      snapshot_noise(donor, 12));
  // Nothing kept in block 1 (rows 4..7): the reader lets it go, the
  // donor keeps reading it.
  reader.compact(std::vector<std::size_t>{0, 1, 9, 11});
  EXPECT_EQ(reader.blocks()[1].id, KvCache::kNoBlock);
  EXPECT_EQ(reader.blocks()[0].id, chain[0].id);
  EXPECT_EQ(reader.blocks()[2].id, chain[2].id);
  EXPECT_EQ(pool.refcount(chain[1]), 1u);
  EXPECT_EQ(pool.refcount(chain[0]), 2u);
  EXPECT_EQ(reader.blocks_held(), 2u);
  EXPECT_EQ(reader.shared_blocks(), 2u);
  EXPECT_EQ(reader.segment_count(), 3u);  // {0, 1}, {9}, {11}
  expect_rows_intact(reader);
  expect_rows_intact(donor);
  // Appends open a private block after the region's slots.
  append_rows(reader, 12, 2);
  EXPECT_EQ(reader.blocks_held(), 3u);
  EXPECT_EQ(reader.blocks().size(), 4u);
  EXPECT_EQ(pool.stats().used_blocks, 4u);
  expect_rows_intact(reader);
  // Positions below the shared region's end cannot be appended.
  const auto k = ramp_row(reader.row_width(), 0.0F);
  EXPECT_THROW(reader.append(k, k, 11), std::invalid_argument);
  // Dropping every shared row ends the region: only private blocks stay.
  reader.compact(std::vector<std::size_t>{4, 5});
  EXPECT_EQ(reader.shared_blocks(), 0u);
  EXPECT_EQ(reader.blocks_held(), 1u);
  EXPECT_EQ(reader.blocks().size(), 1u);
  EXPECT_EQ(pool.stats().used_blocks, 4u);  // the donor's 3 + 1 private
  for (const BlockRef ref : chain) EXPECT_EQ(pool.refcount(ref), 1u);
  expect_rows_intact(reader);
  expect_rows_intact(donor);
}

TEST(PagedKvCache, PrivateRowsStayDenseAfterTheSharedRegion) {
  BlockPool pool(pool_config(/*block_tokens=*/4));
  KvCache donor(pool);
  fill_prefix(donor, 8);
  const std::vector<BlockRef> chain(donor.blocks().begin(),
                                    donor.blocks().end());
  KvCache reader(pool);
  reader.adopt_prefix(chain, 8, snapshot_scores(donor, 8),
                      snapshot_noise(donor, 8));
  append_rows(reader, 8, 10);  // positions 8..17: 3 private blocks
  EXPECT_EQ(reader.blocks_held(), 5u);
  // Keep 3 shared rows in block 0 and 5 of the private rows.
  const std::vector<std::size_t> keep{0, 2, 3, 8, 10, 13, 15, 17};
  reader.compact(keep);
  ASSERT_EQ(reader.size(), keep.size());
  const std::size_t private_rows = 5;
  EXPECT_EQ(reader.shared_blocks(), 1u);
  EXPECT_EQ(reader.blocks_held(),
            reader.shared_blocks() + (private_rows + 3) / 4);
  EXPECT_EQ(pool.stats().used_blocks, 2u + (private_rows + 3) / 4);
  EXPECT_EQ(pool.refcount(chain[1]), 1u);
  for (std::size_t j = 0; j < keep.size(); ++j) {
    EXPECT_EQ(reader.original_position(j), keep[j]);
  }
  expect_rows_intact(reader);
  // A later append lands in the private tail's free slot.
  append_rows(reader, 18, 3);
  EXPECT_EQ(reader.blocks_held(), 1u + (private_rows + 3 + 3) / 4);
  expect_rows_intact(reader);
  expect_rows_intact(donor);
}

TEST(PagedKvCache, LastReaderFoldKeepsEveryRowsBits) {
  obs::MetricsRegistry reg;
  BlockPool pool(metered_config(reg));
  std::vector<BlockRef> chain;
  std::vector<std::vector<double>> scores;
  std::vector<std::vector<double>> noise;
  {
    KvCache donor(pool);
    fill_prefix(donor, 12);
    chain.assign(donor.blocks().begin(), donor.blocks().end());
    scores = snapshot_scores(donor, 12);
    noise = snapshot_noise(donor, 12);
    for (const BlockRef r : chain) pool.retain(r);  // stand-in for an index
  }  // donor gone; the "index" still holds the chain
  KvCache reader(pool);
  reader.adopt_prefix(chain, 12, scores, noise);
  append_rows(reader, 12, 6);
  // While the index holds the chain, eviction leaves the region in place.
  reader.compact(std::vector<std::size_t>{0, 2, 3, 5, 9, 10, 11, 12, 13, 14,
                                          15, 16, 17});
  EXPECT_EQ(reader.shared_blocks(), 3u);
  // Runs {0}, {2, 3}, {5}, {9..11}, then 2 private blocks.
  EXPECT_EQ(reader.segment_count(), 4u + 2u);
  for (const BlockRef r : chain) pool.release(r);  // the index drops it
  EXPECT_EQ(pool.refcount(chain[0]), 1u);          // reader is the last one
  const std::size_t allocs = reg.counter("pool.allocs").value();

  // The next compact folds the region into the dense layout in place: no
  // block is allocated, the chain's blocks are reused, and every kept row
  // reads back its own bits with its scores and noise.
  const std::vector<std::size_t> keep{0, 1, 3, 4, 6, 7, 8, 9, 10, 12};
  std::vector<std::size_t> kept_pos;
  for (const std::size_t j : keep) kept_pos.push_back(reader.original_position(j));
  reader.compact(keep);
  EXPECT_EQ(reg.counter("pool.allocs").value(), allocs);
  EXPECT_EQ(reader.shared_blocks(), 0u);
  EXPECT_EQ(reader.blocks_held(), (keep.size() + 3) / 4);
  EXPECT_EQ(reader.segment_count(), (keep.size() + 3) / 4);
  EXPECT_EQ(pool.stats().used_blocks, reader.blocks_held());
  EXPECT_EQ(reader.blocks()[0].id, chain[0].id);
  // Noise covered the adopted rows only: the kept ones among them.
  ASSERT_EQ(reader.noise(0).size(), 5u);
  for (std::size_t j = 0; j < keep.size(); ++j) {
    EXPECT_EQ(reader.original_position(j), kept_pos[j]);
    const double pos = static_cast<double>(kept_pos[j]);
    EXPECT_EQ(reader.scores(1)[j], kept_pos[j] < 12 ? 2.0 * pos : 0.0);
    if (j < 5) {
      EXPECT_EQ(reader.noise(0)[j], pos);
    }
  }
  expect_rows_intact(reader);
  // The folded cache is an ordinary dense one: it appends and compacts
  // in place.
  append_rows(reader, 20, 3);
  reader.compact(std::vector<std::size_t>{1, 2, 11, 12});
  EXPECT_EQ(reader.blocks_held(), 1u);
  expect_rows_intact(reader);
  reader.clear();
  EXPECT_EQ(pool.stats().used_blocks, 0u);
}

/// Injector that vetoes every allocation, forever.
class AlwaysFailAllocate final : public FaultInjector {
 public:
  bool should_fail(FaultOp op) override {
    return op == FaultOp::kAllocate;
  }
};

TEST(PagedKvCache, AllocationFailureFallsBackToEmergencyBlocksExactly) {
  // When the pool denies a block mid-append, the cache latches
  // alloc_failed() and keeps the step numerically exact on emergency heap
  // memory — reads return the real rows, and teardown never touches the
  // pool for emergency refs.
  obs::MetricsRegistry reg;
  BlockPool pool(metered_config(reg));
  KvCache c(pool);
  // First block from the pool, then cut the supply.
  for (std::size_t t = 0; t < 4; ++t) {
    const auto k = ramp_row(c.row_width(), static_cast<float>(t));
    c.append(k, k, t);
  }
  EXPECT_FALSE(c.alloc_failed());
  AlwaysFailAllocate inject;
  pool.set_fault_injector(&inject);
  for (std::size_t t = 4; t < 7; ++t) {
    const auto k = ramp_row(c.row_width(), static_cast<float>(t));
    c.append(k, k, t);
  }
  EXPECT_TRUE(c.alloc_failed());
  // One emergency block covers 4..6.
  EXPECT_EQ(reg.counter("pool.emergency_blocks").value(), 1u);
  EXPECT_EQ(c.size(), 7u);
  // The pool only ever granted the first block.
  EXPECT_EQ(pool.stats().used_blocks, 1u);
  // Every row — pool-backed and emergency alike — reads back exactly.
  for (std::size_t t = 0; t < 7; ++t) {
    const auto expect = ramp_row(c.row_width(), static_cast<float>(t));
    for (std::size_t h = 0; h < c.n_heads(); ++h) {
      const auto k = c.key_head(t, h);
      const auto v = c.value_head(t, h);
      for (std::size_t i = 0; i < c.d_head(); ++i) {
        EXPECT_EQ(k[i], expect[h * c.d_head() + i]) << "t " << t;
        EXPECT_EQ(v[i], expect[h * c.d_head() + i]) << "t " << t;
      }
    }
  }
  pool.set_fault_injector(nullptr);
}

}  // namespace
}  // namespace kf::mem
