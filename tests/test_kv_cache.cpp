#include "kvcache/kv_cache.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "core/rng.h"
#include "kvcache/kv_state.h"

namespace kf::kv {
namespace {

std::vector<float> row_of(std::size_t width, float value) {
  return std::vector<float>(width, value);
}

/// An unbounded pool for n_heads x d_head rows; small blocks by default so
/// short tests cross block boundaries.
mem::BlockPool make_pool(std::size_t n_heads, std::size_t d_head,
                         std::size_t block_tokens = 4) {
  mem::BlockPoolConfig cfg;
  cfg.block_tokens = block_tokens;
  cfg.n_heads = n_heads;
  cfg.d_head = d_head;
  return mem::BlockPool(cfg);
}

TEST(KvCache, StartsEmpty) {
  auto pool = make_pool(2, 4);
  KvCache c(pool);
  EXPECT_TRUE(c.empty());
  EXPECT_EQ(c.size(), 0u);
  EXPECT_EQ(c.row_width(), 8u);
}

TEST(KvCache, RejectsZeroDims) {
  EXPECT_THROW(SequenceKvState(1, 0, 4), std::invalid_argument);
  EXPECT_THROW(SequenceKvState(1, 2, 0), std::invalid_argument);
}

TEST(KvCache, AppendAndRead) {
  auto pool = make_pool(2, 3);
  KvCache c(pool);
  c.append(row_of(6, 1.0F), row_of(6, 2.0F), 0);
  c.append(row_of(6, 3.0F), row_of(6, 4.0F), 1);
  EXPECT_EQ(c.size(), 2u);
  EXPECT_EQ(c.key_row(0)[0], 1.0F);
  EXPECT_EQ(c.value_row(1)[5], 4.0F);
  EXPECT_EQ(c.original_position(1), 1u);
}

TEST(KvCache, HeadSlices) {
  auto pool = make_pool(2, 2);
  KvCache c(pool);
  std::vector<float> k{1, 2, 3, 4};
  std::vector<float> v{5, 6, 7, 8};
  c.append(k, v, 0);
  EXPECT_EQ(c.key_head(0, 0)[0], 1.0F);
  EXPECT_EQ(c.key_head(0, 1)[0], 3.0F);
  EXPECT_EQ(c.value_head(0, 1)[1], 8.0F);
}

TEST(KvCache, RejectsWrongRowWidth) {
  auto pool = make_pool(2, 3);
  KvCache c(pool);
  EXPECT_THROW(c.append(row_of(5, 0.0F), row_of(6, 0.0F), 0),
               std::invalid_argument);
}

TEST(KvCache, RejectsNonIncreasingPositions) {
  auto pool = make_pool(1, 2);
  KvCache c(pool);
  c.append(row_of(2, 0.0F), row_of(2, 0.0F), 5);
  EXPECT_THROW(c.append(row_of(2, 0.0F), row_of(2, 0.0F), 5),
               std::invalid_argument);
  EXPECT_THROW(c.append(row_of(2, 0.0F), row_of(2, 0.0F), 3),
               std::invalid_argument);
}

TEST(KvCache, ScoresTrackAppends) {
  auto pool = make_pool(2, 2);
  KvCache c(pool);
  c.append(row_of(4, 0.0F), row_of(4, 0.0F), 0);
  c.append(row_of(4, 0.0F), row_of(4, 0.0F), 1);
  EXPECT_EQ(c.scores(0).size(), 2u);
  c.add_score(0, 1, 2.5);
  c.add_score(1, 1, 1.5);
  EXPECT_DOUBLE_EQ(c.scores(0)[1], 2.5);
  EXPECT_DOUBLE_EQ(c.total_score(1), 4.0);
  EXPECT_DOUBLE_EQ(c.total_score(0), 0.0);
}

TEST(KvCache, DampScoresScalesAllHeads) {
  auto pool = make_pool(2, 2);
  KvCache c(pool);
  c.append(row_of(4, 0.0F), row_of(4, 0.0F), 0);
  c.add_score(0, 0, 4.0);
  c.add_score(1, 0, 2.0);
  c.damp_scores(0.5);
  EXPECT_DOUBLE_EQ(c.total_score(0), 3.0);
}

TEST(KvCache, CompactKeepsSelectedRows) {
  auto pool = make_pool(1, 2);
  KvCache c(pool);
  for (std::size_t i = 0; i < 5; ++i) {
    c.append(row_of(2, static_cast<float>(i)), row_of(2, 10.0F + i), i);
    c.add_score(0, i, static_cast<double>(i));
  }
  const std::vector<std::size_t> keep{0, 2, 4};
  c.compact(keep);
  ASSERT_EQ(c.size(), 3u);
  EXPECT_EQ(c.key_row(0)[0], 0.0F);
  EXPECT_EQ(c.key_row(1)[0], 2.0F);
  EXPECT_EQ(c.key_row(2)[0], 4.0F);
  EXPECT_EQ(c.value_row(1)[0], 12.0F);
  EXPECT_EQ(c.original_position(2), 4u);
  EXPECT_DOUBLE_EQ(c.scores(0)[1], 2.0);
}

TEST(KvCache, CompactPreservesOrderInvariant) {
  auto pool = make_pool(1, 1);
  KvCache c(pool);
  for (std::size_t i = 0; i < 8; ++i) {
    c.append(row_of(1, 0.0F), row_of(1, 0.0F), i * 3);
  }
  c.compact(std::vector<std::size_t>{1, 3, 6});
  for (std::size_t i = 1; i < c.size(); ++i) {
    EXPECT_LT(c.original_position(i - 1), c.original_position(i));
  }
}

TEST(KvCache, CompactRejectsBadIndices) {
  auto pool = make_pool(1, 1);
  KvCache c(pool);
  c.append(row_of(1, 0.0F), row_of(1, 0.0F), 0);
  EXPECT_THROW(c.compact(std::vector<std::size_t>{1}), std::out_of_range);
  c.append(row_of(1, 0.0F), row_of(1, 0.0F), 1);
  EXPECT_THROW(c.compact(std::vector<std::size_t>{1, 0}),
               std::invalid_argument);
  EXPECT_THROW(c.compact(std::vector<std::size_t>{0, 0}),
               std::invalid_argument);
}

TEST(KvCache, CompactToEmpty) {
  auto pool = make_pool(1, 1);
  KvCache c(pool);
  c.append(row_of(1, 0.0F), row_of(1, 0.0F), 0);
  c.compact({});
  EXPECT_TRUE(c.empty());
}

TEST(KvCache, AppendAfterCompactKeepsPositionInvariant) {
  auto pool = make_pool(1, 1);
  KvCache c(pool);
  for (std::size_t i = 0; i < 4; ++i) {
    c.append(row_of(1, 0.0F), row_of(1, 0.0F), i);
  }
  c.compact(std::vector<std::size_t>{0, 1});
  c.append(row_of(1, 9.0F), row_of(1, 9.0F), 10);
  EXPECT_EQ(c.size(), 3u);
  EXPECT_EQ(c.original_position(2), 10u);
  // A position lower than the tail is rejected even after compaction.
  EXPECT_THROW(c.append(row_of(1, 0.0F), row_of(1, 0.0F), 2),
               std::invalid_argument);
}

// Property-style check of the block-chain layout: a randomized append/
// score/damp/compact/noise/clear/adopt/donate/index-drop sequence must keep
// key_head/value_head/segments/scores/noise/original_position bit-exact
// with a plain token-major reference model, across block sizes that do
// and do not divide the lengths evenly. An index stand-in holds at most
// one entry: blocks retained from the cache's leading rows (donate, as
// PrefixIndex::insert does) that the cache can re-adopt. The chain must
// hold exactly the shared blocks with a kept row plus ceil(private rows /
// block_tokens) blocks, and every refcount and the pool's used blocks
// must match who holds what.
TEST(KvCache, RandomizedOpsMatchReferenceModel) {
  struct RefToken {
    std::vector<float> k, v;
    std::size_t pos;
    std::vector<double> scores;  // per head
  };
  const std::size_t n_heads = 3, d_head = 4;
  const std::size_t width = n_heads * d_head;
  // A noise row's value is a function of (head, original position), like
  // Keyformer's frozen draws, so each covered value names its row.
  const auto zeta = [](std::size_t h, std::size_t pos) {
    return static_cast<double>(h) + 1e-3 * static_cast<double>(pos);
  };

  for (const std::size_t block_tokens : {1, 3, 4, 7, 16, 64}) {
    SCOPED_TRACE(::testing::Message() << "block_tokens " << block_tokens);
    auto pool = make_pool(n_heads, d_head, block_tokens);
    KvCache c(pool);
    kf::Rng rng(20260731 + block_tokens);
    std::vector<RefToken> ref;
    std::vector<std::size_t> cover(n_heads, 0);  // noise-covered rows
    std::size_t next_pos = 0;
    // The model's shared region [0, shared), and the index's entry: its
    // retained blocks and the rows and noise cover it was taken with.
    std::size_t shared = 0;
    std::vector<mem::BlockRef> entry;
    std::vector<RefToken> entry_rows;
    std::vector<std::size_t> entry_cover;

    // Shared chain slots that still hold a kept row, ascending.
    const auto held_shared_slots = [&] {
      std::vector<std::size_t> slots;
      for (const RefToken& tok : ref) {
        if (tok.pos >= shared) break;
        const std::size_t b = tok.pos / block_tokens;
        if (slots.empty() || slots.back() != b) slots.push_back(b);
      }
      return slots;
    };

    const auto check = [&](int step) {
      ASSERT_EQ(c.size(), ref.size()) << "step " << step;
      for (std::size_t h = 0; h < n_heads; ++h) {
        const auto noise = c.noise(h);
        ASSERT_LE(noise.size(), c.size()) << "step " << step;
        ASSERT_EQ(noise.size(), cover[h]) << "step " << step;
        for (std::size_t t = 0; t < noise.size(); ++t) {
          ASSERT_EQ(noise[t], zeta(h, ref[t].pos)) << "step " << step;
        }
      }
      for (std::size_t t = 0; t < ref.size(); ++t) {
        ASSERT_EQ(c.original_position(t), ref[t].pos) << "step " << step;
        for (std::size_t h = 0; h < n_heads; ++h) {
          const auto k = c.key_head(t, h);
          const auto v = c.value_head(t, h);
          for (std::size_t j = 0; j < d_head; ++j) {
            ASSERT_EQ(k[j], ref[t].k[h * d_head + j]) << "step " << step;
            ASSERT_EQ(v[j], ref[t].v[h * d_head + j]) << "step " << step;
          }
          ASSERT_EQ(c.scores(h)[t], ref[t].scores[h]) << "step " << step;
        }
      }
      // The segments tile the cache in order and read the same rows.
      for (std::size_t h = 0; h < n_heads; ++h) {
        std::size_t covered = 0;
        for (std::size_t s = 0; s < c.segment_count(); ++s) {
          const KvSegment seg = c.segment(h, s);
          ASSERT_EQ(seg.first, covered) << "step " << step;
          ASSERT_GT(seg.count, 0u) << "step " << step;
          for (std::size_t r = 0; r < seg.count; ++r) {
            for (std::size_t j = 0; j < d_head; ++j) {
              ASSERT_EQ(seg.keys[r * d_head + j],
                        ref[covered + r].k[h * d_head + j])
                  << "step " << step;
              ASSERT_EQ(seg.values[r * d_head + j],
                        ref[covered + r].v[h * d_head + j])
                  << "step " << step;
            }
          }
          covered += seg.count;
        }
        ASSERT_EQ(covered, ref.size()) << "step " << step;
      }
      const auto held = held_shared_slots();
      std::size_t shared_rows = 0;
      while (shared_rows < ref.size() && ref[shared_rows].pos < shared) {
        ++shared_rows;
      }
      const std::size_t private_blocks =
          (ref.size() - shared_rows + block_tokens - 1) / block_tokens;
      ASSERT_EQ(c.shared_blocks(), held.size()) << "step " << step;
      ASSERT_EQ(c.blocks_held(), held.size() + private_blocks)
          << "step " << step;
      // While the region lasts, its first entry.size() slots are the
      // entry's blocks: those have two readers, every other block one.
      std::size_t both = 0;
      for (const std::size_t b : held) {
        const bool indexed = b < entry.size();
        if (indexed) {
          ASSERT_EQ(c.blocks()[b].id, entry[b].id) << "step " << step;
          ++both;
        }
        ASSERT_EQ(pool.refcount(c.blocks()[b]), indexed ? 2u : 1u)
            << "step " << step;
      }
      for (std::size_t b = shared / block_tokens; b < c.blocks().size(); ++b) {
        ASSERT_EQ(pool.refcount(c.blocks()[b]), 1u) << "step " << step;
      }
      for (std::size_t b = 0; b < entry.size(); ++b) {
        const bool also_cache =
            std::find(held.begin(), held.end(), b) != held.end();
        ASSERT_EQ(pool.refcount(entry[b]), also_cache ? 2u : 1u)
            << "step " << step;
      }
      ASSERT_EQ(pool.stats().used_blocks,
                c.blocks_held() + entry.size() - both)
          << "step " << step;
    };

    const auto append_at = [&](std::size_t pos) {
      RefToken tok;
      tok.pos = pos;
      tok.k.resize(width);
      tok.v.resize(width);
      for (auto& x : tok.k) x = static_cast<float>(rng.normal());
      for (auto& x : tok.v) x = static_cast<float>(rng.normal());
      tok.scores.assign(n_heads, 0.0);
      c.append(tok.k, tok.v, tok.pos);
      ref.push_back(std::move(tok));
    };

    for (int step = 0; step < 600; ++step) {
      const std::uint64_t op = rng.uniform_u64(14);
      if (op < 6 || ref.empty()) {  // append
        append_at(next_pos);
        next_pos += 1 + rng.uniform_u64(3);
      } else if (op < 7) {  // add_score on a random slot
        const std::size_t t = rng.uniform_u64(ref.size());
        const std::size_t h = rng.uniform_u64(n_heads);
        const double v = rng.normal();
        c.add_score(h, t, v);
        ref[t].scores[h] += v;
      } else if (op < 8) {  // damp every score
        const double f = 0.5 + 0.5 * rng.uniform();
        c.damp_scores(f);
        for (auto& tok : ref) {
          for (double& x : tok.scores) x *= f;
        }
      } else if (op < 9) {  // compact to a random subset
        std::vector<std::size_t> keep;
        std::vector<RefToken> kept;
        for (std::size_t t = 0; t < ref.size(); ++t) {
          if (rng.uniform_u64(3) > 0) {
            keep.push_back(t);
            kept.push_back(ref[t]);
          }
        }
        c.compact(keep);
        ref = std::move(kept);
        // The kept covered rows stay covered.
        for (std::size_t& n : cover) {
          n = static_cast<std::size_t>(
              std::count_if(keep.begin(), keep.end(),
                            [&](std::size_t t) { return t < n; }));
        }
        // The region ends when no shared row is left, or folds into the
        // dense layout once no block of it is also the entry's.
        if (shared > 0) {
          const auto held = held_shared_slots();
          if (held.empty() || held.front() >= entry.size()) shared = 0;
        }
      } else if (op < 10) {  // draw noise for some uncovered rows of a head
        const std::size_t h = rng.uniform_u64(n_heads);
        const std::size_t draws = rng.uniform_u64(ref.size() - cover[h] + 1);
        for (std::size_t i = 0; i < draws; ++i, ++cover[h]) {
          c.append_noise(h, zeta(h, ref[cover[h]].pos));
        }
      } else if (op < 11) {  // clear
        c.clear();
        ref.clear();
        cover.assign(n_heads, 0);
        shared = 0;
        // Positions may restart after clear.
        next_pos = 0;
      } else if (op < 12) {  // adopt the entry into the cleared cache
        if (entry.empty()) continue;
        const std::size_t m = entry_rows.size();
        std::vector<std::vector<double>> scores(n_heads);
        std::vector<std::vector<double>> noise(n_heads);
        for (std::size_t h = 0; h < n_heads; ++h) {
          for (std::size_t t = 0; t < m; ++t) {
            scores[h].push_back(entry_rows[t].scores[h]);
          }
          for (std::size_t t = 0; t < entry_cover[h]; ++t) {
            noise[h].push_back(zeta(h, t));
          }
        }
        c.clear();
        c.adopt_prefix(entry, m, scores, noise);
        ref = entry_rows;
        cover = entry_cover;
        shared = m;
        next_pos = m;
      } else if (op < 13) {  // donate whole leading blocks to the index
        if (!entry.empty()) continue;
        std::size_t lead = 0;
        while (lead < ref.size() && ref[lead].pos == lead) ++lead;
        if (lead == ref.size()) {
          // Rows 0..n-1 so far, as a prompt prefill leaves them: top up to
          // a whole block at least, as the engine chunks a donor's prefill.
          const std::size_t target =
              std::max<std::size_t>(1, (lead + block_tokens - 1) /
                                           block_tokens) *
              block_tokens;
          for (; lead < target; ++lead) append_at(lead);
          next_pos = lead;
        }
        if (lead < block_tokens) continue;
        const std::size_t blocks = 1 + rng.uniform_u64(lead / block_tokens);
        const std::size_t m = blocks * block_tokens;
        entry.assign(c.blocks().begin(),
                     c.blocks().begin() + static_cast<long>(blocks));
        for (const mem::BlockRef b : entry) pool.retain(b);
        c.mark_shared_prefix(blocks);
        entry_rows.assign(ref.begin(), ref.begin() + static_cast<long>(m));
        entry_cover = cover;
        for (std::size_t& n : entry_cover) n = std::min(n, m);
        shared = std::max(shared, m);
      } else {  // the index drops its entry
        for (const mem::BlockRef b : entry) pool.release(b);
        entry.clear();
        entry_rows.clear();
      }
      check(step);
    }
    for (const mem::BlockRef b : entry) pool.release(b);
    c.clear();
    EXPECT_EQ(pool.stats().used_blocks, 0u);
  }
}

/// Fills every layer of `state` with `tokens` rows whose values encode
/// (layer, token).
void fill_state(SequenceKvState& state, std::size_t tokens) {
  for (std::size_t l = 0; l < state.n_layers(); ++l) {
    KvCache& cache = state.layer(l);
    for (std::size_t t = 0; t < tokens; ++t) {
      const float x = static_cast<float>(100 * l + t);
      cache.append(row_of(cache.row_width(), x),
                   row_of(cache.row_width(), -x), t);
    }
  }
}

TEST(SequenceKvState, PrivatePoolReturnsEveryBlock) {
  // A state built without a pool owns one, shared by its layers, of
  // kPrivateBlockTokens-token blocks. Clear, move-assignment over a
  // non-empty state and destruction must each hand every block back, the
  // old caches releasing into the old pool before that pool is freed
  // (ASan reports the opposite order as a use after free).
  SequenceKvState a(2, 2, 3);
  const mem::BlockPool& pool_a = a.layer(0).pool();
  EXPECT_EQ(&a.layer(1).pool(), &pool_a);
  EXPECT_EQ(pool_a.block_tokens(), SequenceKvState::kPrivateBlockTokens);
  fill_state(a, 100);
  EXPECT_EQ(pool_a.stats().used_blocks, 4u);
  a.clear();
  EXPECT_TRUE(a.empty());
  EXPECT_EQ(pool_a.stats().used_blocks, 0u);
  fill_state(a, 70);

  SequenceKvState b(2, 2, 3);
  fill_state(b, 10);
  const mem::BlockPool& pool_b = b.layer(0).pool();
  a = std::move(b);  // frees a's caches, then a's pool
  EXPECT_EQ(&a.layer(0).pool(), &pool_b);
  EXPECT_EQ(pool_b.stats().used_blocks, 2u);
  EXPECT_EQ(a.layer(1).key_row(9), row_of(6, 109.0F));

  // Assigning over a state on a shared pool returns its blocks there.
  auto shared = make_pool(2, 3);
  SequenceKvState on_shared(shared, 2);
  fill_state(on_shared, 9);
  EXPECT_EQ(shared.stats().used_blocks, 6u);
  on_shared = std::move(a);
  EXPECT_EQ(shared.stats().used_blocks, 0u);
  EXPECT_EQ(on_shared.layer_size(0), 10u);

  {
    const SequenceKvState moved(std::move(on_shared));
    EXPECT_EQ(moved.layer_size(1), 10u);
  }  // `moved` frees its caches, then its private pool
}

TEST(KvCache, ClearResetsEverything) {
  auto pool = make_pool(2, 2);
  KvCache c(pool);
  c.append(row_of(4, 1.0F), row_of(4, 1.0F), 0);
  c.add_score(0, 0, 1.0);
  c.append_noise(1, 0.5);
  c.clear();
  EXPECT_TRUE(c.empty());
  EXPECT_EQ(c.scores(0).size(), 0u);
  EXPECT_EQ(c.noise(1).size(), 0u);
  // Usable again from position 0.
  c.append(row_of(4, 1.0F), row_of(4, 1.0F), 0);
  EXPECT_EQ(c.size(), 1u);
}

}  // namespace
}  // namespace kf::kv
