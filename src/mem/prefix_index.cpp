#include "mem/prefix_index.h"

#include <algorithm>
#include <stdexcept>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace kf::mem {

PrefixIndex::PrefixIndex(BlockPool& pool, PrefixIndexConfig cfg)
    : pool_(pool), cfg_(cfg) {
  if (cfg_.n_layers == 0) {
    throw std::invalid_argument("PrefixIndex requires n_layers > 0");
  }
  if (cfg_.min_tokens < pool_.block_tokens()) {
    cfg_.min_tokens = pool_.block_tokens();
  }
  if (cfg_.metrics != nullptr) {
    ctr_hits_ = &cfg_.metrics->counter("prefix.hits");
    ctr_misses_ = &cfg_.metrics->counter("prefix.misses");
    ctr_insertions_ = &cfg_.metrics->counter("prefix.insertions");
    ctr_trims_ = &cfg_.metrics->counter("prefix.trims");
  }
}

PrefixIndex::~PrefixIndex() {
  const LockGuard lock(mu_);
  for (EntryRec& rec : entries_) release_chains_locked(rec);
}

namespace {

constexpr std::uint64_t kFnvBasis = 1469598103934665603ULL;

/// One FNV-1a step folding a token's 4 bytes into the running hash. The
/// single definition keeps hash_run() and lookup()'s rolling hashes
/// bit-identical — a divergence would present as a silent 0% hit rate.
std::uint64_t fnv_step(std::uint64_t h, PrefixToken t) {
  auto v = static_cast<std::uint32_t>(t);
  for (int b = 0; b < 4; ++b) {
    h ^= (v >> (8 * b)) & 0xFFU;
    h *= 1099511628211ULL;
  }
  return h;
}

}  // namespace

std::uint64_t PrefixIndex::hash_run(std::span<const PrefixToken> run) {
  // FNV-1a over the token bytes; entries verify the full run on match, so
  // a collision costs a memcmp, never a wrong chain.
  std::uint64_t h = kFnvBasis;
  for (const PrefixToken t : run) h = fnv_step(h, t);
  return h;
}

PrefixIndexStats PrefixIndex::stats() const {
  const LockGuard lock(mu_);
  return PrefixIndexStats{entries_.size(), blocks_held_};
}

std::size_t PrefixIndex::blocks_held() const {
  const LockGuard lock(mu_);
  return blocks_held_;
}

std::uint64_t PrefixIndex::revision() const {
  const LockGuard lock(mu_);
  return revision_;
}

const PrefixEntry* PrefixIndex::lookup(std::span<const PrefixToken> prompt,
                                       std::size_t max_tokens) {
  const LockGuard lock(mu_);
  std::size_t longest = 0;
  for (const EntryRec& rec : entries_) {
    longest = std::max(longest, rec.entry->tokens());
  }
  const std::size_t probe_len =
      std::min({longest, max_tokens, prompt.size()});

  // Rolling FNV prefix hashes of the prompt, computed once; candidate
  // entries match on (length, hash) in O(1) and only then pay the full
  // token verification (hash collisions are possible, wrong chains are
  // not).
  std::vector<std::uint64_t> hash_at(probe_len + 1);
  std::uint64_t h = kFnvBasis;
  hash_at[0] = h;
  for (std::size_t i = 0; i < probe_len; ++i) {
    h = fnv_step(h, prompt[i]);
    hash_at[i + 1] = h;
  }

  EntryRec* best = nullptr;
  for (EntryRec& rec : entries_) {
    const PrefixEntry& e = *rec.entry;
    const std::size_t m = e.tokens();
    if (m > probe_len || e.run_hash_ != hash_at[m]) continue;
    if (best != nullptr && m <= best->entry->tokens()) continue;
    if (std::equal(e.run_.begin(), e.run_.end(), prompt.begin())) {
      best = &rec;
    }
  }
  if (best != nullptr) {
    best->last_use = ++tick_;
    if (ctr_hits_ != nullptr) ctr_hits_->add();
    return best->entry.get();
  }
  if (ctr_misses_ != nullptr) ctr_misses_->add();
  return nullptr;
}

PrefixIndex::EntryRec& PrefixIndex::find_rec_locked(const PrefixEntry* entry) {
  for (EntryRec& rec : entries_) {
    if (rec.entry.get() == entry) return rec;
  }
  throw std::invalid_argument("PrefixIndex: unknown entry");
}

const PrefixIndex::EntryRec& PrefixIndex::find_rec_locked(
    const PrefixEntry* entry) const {
  for (const EntryRec& rec : entries_) {
    if (rec.entry.get() == entry) return rec;
  }
  throw std::invalid_argument("PrefixIndex: unknown entry");
}

void PrefixIndex::pin(const PrefixEntry* entry) {
  const LockGuard lock(mu_);
  ++find_rec_locked(entry).pins;
}

void PrefixIndex::unpin(const PrefixEntry* entry) {
  const LockGuard lock(mu_);
  EntryRec& rec = find_rec_locked(entry);
  if (rec.pins == 0) {
    throw std::logic_error("PrefixIndex::unpin without a matching pin");
  }
  --rec.pins;
}

const PrefixIndex::EntryRec* PrefixIndex::lru_candidate_locked(
    bool include_pinned) const {
  const EntryRec* best = nullptr;
  for (const EntryRec& rec : entries_) {
    if (!include_pinned && rec.pins > 0) continue;
    if (best == nullptr || rec.last_use < best->last_use) {
      best = &rec;
    }
  }
  return best;
}

const PrefixEntry* PrefixIndex::lru_candidate(bool include_pinned) const {
  const LockGuard lock(mu_);
  const EntryRec* rec = lru_candidate_locked(include_pinned);
  return rec != nullptr ? rec->entry.get() : nullptr;
}

bool PrefixIndex::make_room_locked(std::size_t blocks) {
  if (cfg_.max_blocks == 0) return true;
  if (blocks > cfg_.max_blocks) return false;
  while (blocks_held_ + blocks > cfg_.max_blocks) {
    const EntryRec* victim = lru_candidate_locked(/*include_pinned=*/false);
    if (victim == nullptr) return false;
    drop_locked(victim->entry.get());
  }
  return true;
}

void PrefixIndex::release_chains_locked(EntryRec& rec) {
  std::size_t released = 0;
  for (const auto& layer : rec.chains) {
    for (const BlockRef ref : layer) {
      pool_.release(ref);
      ++released;
    }
  }
  pool_.unreserve(released);
  blocks_held_ -= released;
  rec.chains.clear();
}

void PrefixIndex::drop_locked(const PrefixEntry* entry) {
  KF_TRACE_SCOPE("prefix.trim", "prefix");
  EntryRec& rec = find_rec_locked(entry);
  if (rec.pins > 0) {
    throw std::logic_error("PrefixIndex::drop of a pinned entry");
  }
  release_chains_locked(rec);
  const auto it =
      std::find_if(entries_.begin(), entries_.end(),
                   [&](const EntryRec& r) { return &r == &rec; });
  entries_.erase(it);
  if (ctr_trims_ != nullptr) ctr_trims_->add();
  ++revision_;
}

void PrefixIndex::drop(const PrefixEntry* entry) {
  const LockGuard lock(mu_);
  drop_locked(entry);
}

bool PrefixIndex::try_drop(const PrefixEntry* entry) {
  const LockGuard lock(mu_);
  if (find_rec_locked(entry).pins > 0) return false;
  drop_locked(entry);
  return true;
}

void PrefixIndex::clear() {
  const LockGuard lock(mu_);
  std::vector<const PrefixEntry*> victims;
  for (const EntryRec& rec : entries_) {
    if (rec.pins == 0) victims.push_back(rec.entry.get());
  }
  for (const PrefixEntry* v : victims) drop_locked(v);
}

const PrefixEntry* PrefixIndex::insert(std::span<const PrefixToken> run,
                                       kv::SequenceKvState& state) {
  const std::size_t bt = pool_.block_tokens();
  const std::size_t m = run.size();
  if (m < cfg_.min_tokens || m % bt != 0) return nullptr;
  if (state.n_layers() != cfg_.n_layers) {
    throw std::invalid_argument(
        "PrefixIndex::insert: state layer count does not match the index");
  }

  const LockGuard lock(mu_);
  KF_TRACE_SCOPE("prefix.insert", "prefix");
  // Already indexed? The chain is immutable and content-addressed, so the
  // existing entry is exactly what this insert would produce.
  const std::uint64_t run_hash = hash_run(run);
  for (EntryRec& rec : entries_) {
    const PrefixEntry& e = *rec.entry;
    if (e.tokens() == m && e.run_hash_ == run_hash &&
        std::equal(e.run_.begin(), e.run_.end(), run.begin())) {
      rec.last_use = ++tick_;
      return rec.entry.get();
    }
  }

  const std::size_t bpl = m / bt;
  // Validate every layer before touching refcounts or reservations:
  // caches on this index's pool whose leading rows are exactly tokens
  // 0..m-1.
  for (std::size_t l = 0; l < cfg_.n_layers; ++l) {
    const kv::KvCache& cache = state.layer(l);
    // Another pool's block ids name other memory here.
    if (&cache.pool() != &pool_ || cache.size() < m) return nullptr;
    // A donor that fell back to emergency heap blocks holds refs the pool
    // does not own; indexing such a chain would retain unretainable
    // blocks. Treat it as uncacheable.
    if (cache.alloc_failed()) return nullptr;
    const auto positions = cache.original_positions();
    for (std::size_t i = 0; i < m; ++i) {
      if (positions[i] != i) return nullptr;
    }
  }

  const std::size_t needed = cfg_.n_layers * bpl;
  if (!make_room_locked(needed)) return nullptr;
  // The index is a memory tenant like any admitted sequence: its blocks
  // are reserved so admission sees the truth. Under reservation pressure,
  // trim LRU entries until the claim fits.
  while (!pool_.try_reserve(needed)) {
    const EntryRec* victim = lru_candidate_locked(/*include_pinned=*/false);
    if (victim == nullptr) return nullptr;
    drop_locked(victim->entry.get());
  }

  auto entry = std::make_unique<PrefixEntry>();
  entry->run_.assign(run.begin(), run.end());
  entry->run_hash_ = run_hash;
  entry->blocks_per_layer_ = bpl;
  entry->scores_.resize(cfg_.n_layers);
  entry->noise_.resize(cfg_.n_layers);

  EntryRec rec;
  rec.last_use = ++tick_;
  rec.chains.resize(cfg_.n_layers);
  for (std::size_t l = 0; l < cfg_.n_layers; ++l) {
    kv::KvCache& cache = state.layer(l);
    const auto blocks = cache.blocks();
    rec.chains[l].assign(blocks.begin(),
                         blocks.begin() + static_cast<long>(bpl));
    for (const BlockRef ref : rec.chains[l]) pool_.retain(ref);
    // Flip the donor to copy-on-write over the now-shared chain: its own
    // eviction must never write through into the indexed blocks.
    cache.mark_shared_prefix(bpl);
    entry->scores_[l].reserve(cache.n_heads());
    entry->noise_[l].reserve(cache.n_heads());
    for (std::size_t h = 0; h < cache.n_heads(); ++h) {
      const auto scores = cache.scores(h).first(m);
      entry->scores_[l].emplace_back(scores.begin(), scores.end());
      const auto noise = cache.noise(h);
      const auto covered = noise.first(std::min(noise.size(), m));
      entry->noise_[l].emplace_back(covered.begin(), covered.end());
    }
  }
  blocks_held_ += needed;
  if (ctr_insertions_ != nullptr) ctr_insertions_->add();
  ++revision_;
  rec.entry = std::move(entry);
  entries_.push_back(std::move(rec));
  return entries_.back().entry.get();
}

void PrefixIndex::adopt(const PrefixEntry* entry, kv::SequenceKvState& state) {
  const LockGuard lock(mu_);
  KF_TRACE_SCOPE("prefix.adopt", "prefix");
  EntryRec& rec = find_rec_locked(entry);
  if (state.n_layers() != cfg_.n_layers || !state.empty()) {
    throw std::invalid_argument(
        "PrefixIndex::adopt requires an empty state with matching layers");
  }
  for (std::size_t l = 0; l < cfg_.n_layers; ++l) {
    if (&state.layer(l).pool() != &pool_) {
      throw std::invalid_argument(
          "PrefixIndex::adopt requires caches on the index's pool");
    }
  }
  for (std::size_t l = 0; l < cfg_.n_layers; ++l) {
    state.layer(l).adopt_prefix(rec.chains[l], rec.entry->tokens(),
                                rec.entry->scores_[l], rec.entry->noise_[l]);
  }
  rec.last_use = ++tick_;
}

}  // namespace kf::mem
