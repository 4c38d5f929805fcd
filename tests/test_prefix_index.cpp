#include "mem/prefix_index.h"

#include <gtest/gtest.h>

#include <numeric>
#include <stdexcept>
#include <vector>

#include "obs/metrics.h"

namespace kf::mem {
namespace {

constexpr std::size_t kLayers = 2;
constexpr std::size_t kHeads = 2;
constexpr std::size_t kDHead = 3;
constexpr std::size_t kBlockTokens = 4;

BlockPoolConfig pool_config(std::size_t capacity_blocks = 0) {
  BlockPoolConfig cfg;
  cfg.capacity_blocks = capacity_blocks;
  cfg.block_tokens = kBlockTokens;
  cfg.n_heads = kHeads;
  cfg.d_head = kDHead;
  return cfg;
}

PrefixIndexConfig index_config(std::size_t max_blocks = 0,
                               obs::MetricsRegistry* metrics = nullptr) {
  PrefixIndexConfig cfg;
  cfg.n_layers = kLayers;
  cfg.max_blocks = max_blocks;
  cfg.metrics = metrics;
  return cfg;
}

/// A paged state whose layer caches hold `run` as rows 0..run-1 (K row
/// value encodes (layer, token)) with scores token * (h+1) + layer.
kv::SequenceKvState fill_state(BlockPool& pool,
                               std::span<const PrefixToken> run) {
  kv::SequenceKvState state(pool, kLayers);
  for (std::size_t l = 0; l < kLayers; ++l) {
    auto& cache = state.layer(l);
    for (std::size_t t = 0; t < run.size(); ++t) {
      std::vector<float> k(cache.row_width(),
                           static_cast<float>(run[t]) + 0.5F * l);
      std::vector<float> v(cache.row_width(),
                           1000.0F + static_cast<float>(t));
      cache.append(k, v, t);
      for (std::size_t h = 0; h < kHeads; ++h) {
        cache.add_score(h, t, static_cast<double>(t * (h + 1) + l));
      }
    }
  }
  return state;
}

std::vector<PrefixToken> make_run(std::size_t n, PrefixToken base = 0) {
  std::vector<PrefixToken> run(n);
  std::iota(run.begin(), run.end(), base);
  return run;
}

TEST(PrefixIndex, InsertSharesTheLiveChainWithoutCopying) {
  BlockPool pool(pool_config());
  PrefixIndex index(pool, index_config());
  const auto run = make_run(8);
  auto state = fill_state(pool, run);

  const PrefixEntry* entry = index.insert(run, state);
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->tokens(), 8u);
  EXPECT_EQ(entry->blocks_per_layer(), 2u);
  // Shared, not copied: physical used stays at the state's own blocks,
  // each now refcounted by the index too; the index reserved its share.
  EXPECT_EQ(pool.stats().used_blocks, kLayers * 2);
  EXPECT_EQ(index.blocks_held(), kLayers * 2);
  EXPECT_EQ(pool.stats().reserved_blocks, kLayers * 2);
  EXPECT_EQ(pool.refcount(state.layer(0).blocks()[0]), 2u);
  // The chain survives the inserting sequence.
  state.clear();
  EXPECT_EQ(pool.stats().used_blocks, kLayers * 2);
}

TEST(PrefixIndex, InsertRejectsIneligibleRuns) {
  BlockPool pool(pool_config());
  obs::MetricsRegistry reg;
  PrefixIndex index(pool, index_config(0, &reg));
  const auto run = make_run(8);
  auto state = fill_state(pool, run);
  // Not block-aligned.
  EXPECT_EQ(index.insert(std::span(run).first(6), state), nullptr);
  // Shorter than one block (min_tokens floor).
  EXPECT_EQ(index.insert(std::span(run).first(0), state), nullptr);
  // Duplicate insert returns the existing entry.
  const PrefixEntry* a = index.insert(run, state);
  const PrefixEntry* b = index.insert(run, state);
  EXPECT_EQ(a, b);
  EXPECT_EQ(reg.counter("prefix.insertions").value(), 1u);
}

TEST(PrefixIndex, LookupFindsLongestIndexedPrefix) {
  BlockPool pool(pool_config());
  obs::MetricsRegistry reg;
  PrefixIndex index(pool, index_config(0, &reg));
  const auto long_run = make_run(12);
  const std::span<const PrefixToken> short_run(long_run.data(), 4);
  auto state_a = fill_state(pool, short_run);
  auto state_b = fill_state(pool, long_run);
  ASSERT_NE(index.insert(short_run, state_a), nullptr);
  const PrefixEntry* longer = index.insert(long_run, state_b);
  ASSERT_NE(longer, nullptr);

  // A prompt extending the long run matches the longest entry ...
  auto prompt = make_run(20);
  EXPECT_EQ(index.lookup(prompt, prompt.size() - 1), longer);
  // ... unless the caller caps the match below it.
  EXPECT_EQ(index.lookup(prompt, 11)->tokens(), 4u);
  // A prompt diverging after 4 tokens falls back to the short entry.
  prompt[5] = 999;
  EXPECT_EQ(index.lookup(prompt, prompt.size() - 1)->tokens(), 4u);
  // A prompt diverging immediately misses.
  prompt[0] = 999;
  EXPECT_EQ(index.lookup(prompt, prompt.size() - 1), nullptr);
  EXPECT_EQ(reg.counter("prefix.hits").value() +
                reg.counter("prefix.misses").value(),
            4u);
  EXPECT_EQ(reg.counter("prefix.hits").value(), 3u);
}

TEST(PrefixIndex, AdoptSeedsCachesFromTheSharedChain) {
  BlockPool pool(pool_config());
  PrefixIndex index(pool, index_config());
  const auto run = make_run(8);
  auto donor = fill_state(pool, run);
  // Noise rows: head 0 covers every row, head 1 only the first 5.
  for (std::size_t l = 0; l < kLayers; ++l) {
    for (std::size_t h = 0; h < kHeads; ++h) {
      for (std::size_t t = 0; t < (h == 0 ? 8u : 5u); ++t) {
        donor.layer(l).append_noise(
            h, 0.25 * static_cast<double>(t + l) - static_cast<double>(h));
      }
    }
  }
  const PrefixEntry* entry = index.insert(run, donor);
  ASSERT_NE(entry, nullptr);

  kv::SequenceKvState reader(pool, kLayers);
  index.adopt(entry, reader);
  for (std::size_t l = 0; l < kLayers; ++l) {
    const auto& cache = reader.layer(l);
    ASSERT_EQ(cache.size(), 8u);
    for (std::size_t t = 0; t < 8; ++t) {
      EXPECT_EQ(cache.key_row(t), donor.layer(l).key_row(t));
      EXPECT_EQ(cache.original_position(t), t);
    }
    for (std::size_t h = 0; h < kHeads; ++h) {
      EXPECT_EQ(cache.scores(h)[7], static_cast<double>(7 * (h + 1) + l));
      const auto noise = cache.noise(h);
      const auto donor_noise = donor.layer(l).noise(h);
      EXPECT_EQ(std::vector<double>(noise.begin(), noise.end()),
                std::vector<double>(donor_noise.begin(), donor_noise.end()))
          << "layer " << l << " head " << h;
    }
  }
  // Donor + index + reader all reference the chain; one physical copy.
  EXPECT_EQ(pool.stats().used_blocks, kLayers * 2);
}

TEST(PrefixIndex, LruTrimUnderBlockBudgetSkipsPinned) {
  BlockPool pool(pool_config());
  // Budget fits exactly two 2-block-per-layer entries.
  obs::MetricsRegistry reg;
  PrefixIndex index(pool, index_config(/*max_blocks=*/2 * kLayers * 2, &reg));
  const auto run_a = make_run(8, 0);
  const auto run_b = make_run(8, 100);
  const auto run_c = make_run(8, 200);
  auto state_a = fill_state(pool, run_a);
  auto state_b = fill_state(pool, run_b);
  auto state_c = fill_state(pool, run_c);

  const PrefixEntry* a = index.insert(run_a, state_a);
  const PrefixEntry* b = index.insert(run_b, state_b);
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  // Touch a so b becomes LRU; inserting c must trim b.
  index.lookup(run_a, run_a.size());
  ASSERT_NE(index.insert(run_c, state_c), nullptr);
  EXPECT_EQ(index.stats().entries, 2u);
  EXPECT_EQ(reg.counter("prefix.trims").value(), 1u);
  EXPECT_EQ(index.lookup(run_b, run_b.size()), nullptr);
  EXPECT_NE(index.lookup(run_a, run_a.size()), nullptr);

  // Pin the LRU entry: the next insert has no victim and fails.
  const PrefixEntry* lru = index.lru_candidate(/*include_pinned=*/false);
  ASSERT_NE(lru, nullptr);
  index.pin(lru);
  const auto run_d = make_run(8, 300);
  auto state_d = fill_state(pool, run_d);
  EXPECT_NE(index.lru_candidate(/*include_pinned=*/false), lru);
  index.pin(index.lru_candidate(/*include_pinned=*/false));
  EXPECT_EQ(index.insert(run_d, state_d), nullptr);
  index.unpin(lru);
  ASSERT_NE(index.insert(run_d, state_d), nullptr);
}

TEST(PrefixIndex, AdoptRejectsBadInput) {
  BlockPool pool(pool_config());
  PrefixIndex index(pool, index_config());
  const auto run = make_run(8);
  auto donor = fill_state(pool, run);
  const PrefixEntry* entry = index.insert(run, donor);
  ASSERT_NE(entry, nullptr);
  // A state that already holds rows, or one on its own private pool.
  EXPECT_THROW(index.adopt(entry, donor), std::invalid_argument);
  kv::SequenceKvState private_pool(kLayers, kHeads, kDHead);
  EXPECT_THROW(index.adopt(entry, private_pool), std::invalid_argument);
  EXPECT_TRUE(private_pool.empty());
  // An entry the index does not hold.
  const PrefixEntry stranger;
  kv::SequenceKvState reader(pool, kLayers);
  EXPECT_THROW(index.adopt(&stranger, reader), std::invalid_argument);
  EXPECT_TRUE(reader.empty());
}

/// The counts a refused insert or adopt must leave untouched.
struct Occupancy {
  std::size_t used, reserved, held, entries;
  bool operator==(const Occupancy&) const = default;
};

Occupancy occupancy(const BlockPool& pool, const PrefixIndex& index) {
  return {pool.stats().used_blocks, pool.stats().reserved_blocks,
          index.blocks_held(), index.stats().entries};
}

TEST(PrefixIndex, InsertRefusesADonorFromAnotherPool) {
  // Same geometry, different pool: the donor's block ids name other
  // memory in the index's pool, so the index must neither reserve for
  // nor retain them.
  BlockPool pool(pool_config());
  BlockPool other(pool_config());
  PrefixIndex index(pool, index_config());
  auto donor = fill_state(pool, make_run(8));
  ASSERT_NE(index.insert(make_run(8), donor), nullptr);
  const auto foreign_run = make_run(8, 50);
  auto foreign = fill_state(other, foreign_run);
  const Occupancy before = occupancy(pool, index);
  const std::size_t other_used = other.stats().used_blocks;

  EXPECT_EQ(index.insert(foreign_run, foreign), nullptr);
  EXPECT_TRUE(occupancy(pool, index) == before);
  EXPECT_EQ(other.stats().used_blocks, other_used);
  EXPECT_EQ(other.stats().reserved_blocks, 0u);
  EXPECT_EQ(foreign.layer(0).shared_blocks(), 0u);
}

TEST(PrefixIndex, AdoptRefusesAReaderOnAnotherPool) {
  BlockPool pool(pool_config());
  BlockPool other(pool_config());
  PrefixIndex index(pool, index_config());
  const auto run = make_run(8);
  auto donor = fill_state(pool, run);
  const PrefixEntry* entry = index.insert(run, donor);
  ASSERT_NE(entry, nullptr);
  // Give the other pool live blocks at the entry's ids, so a wrongly
  // accepted adopt would read them instead of the donor's rows.
  auto bystander = fill_state(other, make_run(8, 50));
  const Occupancy before = occupancy(pool, index);
  const std::size_t other_used = other.stats().used_blocks;

  kv::SequenceKvState reader(other, kLayers);
  EXPECT_THROW(index.adopt(entry, reader), std::invalid_argument);
  EXPECT_TRUE(reader.empty());
  EXPECT_TRUE(occupancy(pool, index) == before);
  EXPECT_EQ(other.stats().used_blocks, other_used);
  for (const BlockRef ref : bystander.layer(0).blocks()) {
    EXPECT_EQ(other.refcount(ref), 1u);
  }
}

TEST(PrefixIndex, TryDropIsAtomicOnPinState) {
  BlockPool pool(pool_config());
  PrefixIndex index(pool, index_config());
  const auto run = make_run(8);
  auto state = fill_state(pool, run);
  const PrefixEntry* entry = index.insert(run, state);
  ASSERT_NE(entry, nullptr);
  index.pin(entry);
  EXPECT_FALSE(index.try_drop(entry));  // pinned: refused, never throws
  EXPECT_EQ(index.stats().entries, 1u);
  index.unpin(entry);
  EXPECT_TRUE(index.try_drop(entry));
  EXPECT_EQ(index.stats().entries, 0u);
  EXPECT_EQ(index.blocks_held(), 0u);
}

TEST(PrefixIndex, RevisionMovesOnInsertAndDrop) {
  BlockPool pool(pool_config());
  PrefixIndex index(pool, index_config());
  const std::uint64_t r0 = index.revision();
  const auto run = make_run(8);
  auto state = fill_state(pool, run);
  const PrefixEntry* entry = index.insert(run, state);
  ASSERT_NE(entry, nullptr);
  EXPECT_GT(index.revision(), r0);
  const std::uint64_t r1 = index.revision();
  index.lookup(run, run.size());  // reads never move the revision
  EXPECT_EQ(index.revision(), r1);
  index.drop(entry);
  EXPECT_GT(index.revision(), r1);
}

TEST(PrefixIndex, DropAndClearReturnEveryBlockAndReservation) {
  BlockPool pool(pool_config());
  PrefixIndex index(pool, index_config());
  const auto run = make_run(8);
  {
    auto state = fill_state(pool, run);
    ASSERT_NE(index.insert(run, state), nullptr);
  }  // inserting state gone; the index holds the only references
  EXPECT_EQ(pool.stats().used_blocks, kLayers * 2);
  EXPECT_EQ(pool.stats().reserved_blocks, kLayers * 2);
  index.clear();
  EXPECT_EQ(index.stats().entries, 0u);
  EXPECT_EQ(index.blocks_held(), 0u);
  EXPECT_EQ(pool.stats().used_blocks, 0u);
  EXPECT_EQ(pool.stats().reserved_blocks, 0u);
}

TEST(PrefixIndex, InsertReservationPressureTrimsResidentEntries) {
  // Pool of 10 blocks: one 4-block entry plus a 4-block state leaves 2
  // unreserved, so indexing a second state must trim the first entry to
  // find room (its blocks are the only reclaimable ones).
  BlockPool pool(pool_config(/*capacity_blocks=*/10));
  obs::MetricsRegistry reg;
  PrefixIndex index(pool, index_config(0, &reg));
  const auto run_a = make_run(8, 0);
  const auto run_b = make_run(8, 100);
  auto state_a = fill_state(pool, run_a);
  ASSERT_NE(index.insert(run_a, state_a), nullptr);
  state_a.clear();
  auto state_b = fill_state(pool, run_b);
  ASSERT_TRUE(pool.try_reserve(4));  // squeeze: 4 index + 4 fake = 8/10
  const PrefixEntry* b = index.insert(run_b, state_b);
  ASSERT_NE(b, nullptr);  // trimmed entry a to fit
  EXPECT_EQ(reg.counter("prefix.trims").value(), 1u);
  EXPECT_EQ(index.lookup(run_a, run_a.size()), nullptr);
  pool.unreserve(4);
}

}  // namespace
}  // namespace kf::mem
