// Prefix cache: shared, immutable KV block chains for repeated prompt
// prefixes (system prompts, few-shot contexts), keyed by the prefix's
// token run.
//
// Why it exists: Keyformer's serving win comes from fitting more sequences
// into a fixed KV budget, but a few-shot workload wastes that budget by
// re-prefilling and re-storing one identical context per request. The
// index turns the PR 4 block pool into a multi-tenant cache: the first
// request to prefill a prefix *shares* its freshly written block chain
// (per layer) with the index — no copy, just a refcount — and every later
// request whose prompt starts with the same token run adopts the chain
// copy-on-write instead of recomputing it.
//
// What an entry holds, per prefix run of M tokens (always a whole number
// of pool blocks, so adopters' appends start on a fresh block):
//   - per layer: the block chain — the K/V rows of tokens 0..M-1, exactly
//     as a prefill of those M tokens writes them;
//   - per layer, per head: the accumulated score-function values and
//     Keyformer's frozen noise row at the prefix boundary (what the
//     policy had added and drawn after observing the prefix queries), so
//     an adopting sequence's eviction ranking is bit-exact with having
//     prefilled the prefix itself. An entry carries only what the caches
//     hold: policy state kept outside them cannot be shared.
//
// Memory accounting: every block the index holds is *reserved* against
// the pool, exactly like a scheduler admission, so admission sees true
// remaining capacity; `max_blocks` caps the index's total footprint and
// LRU entries are trimmed to fit (pinned entries — ones a waiting
// sequence's reduced admission charge depends on — are exempt until
// their pins drop).
//
// Thread safety: internally synchronized. One index mutex guards the
// entry set, each entry's chains, the LRU stamps, pin counts, and the
// revision counter — all annotated for clang's -Wthread-safety. A
// PrefixEntry itself is immutable after insert(), so the pointer
// lookup()/insert() return can be read (tokens, run, boundary scores)
// without the lock; only its index bookkeeping — chains, pins, recency —
// lives behind the mutex, reachable through the index's own accessors.
// Lock ordering: the index mutex is acquired BEFORE the BlockPool mutex
// (insert/adopt/drop call into the pool while holding it); the pool
// never calls back into the index.
// Concurrent readers of *adopted* chains are safe because chains are
// immutable and refcounted.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "core/annotations.h"
#include "core/mutex.h"
#include "kvcache/kv_state.h"
#include "mem/block_pool.h"

namespace kf::mem {

/// Token id type (mirrors model::Token without depending on model/).
using PrefixToken = std::int32_t;

struct PrefixIndexConfig {
  /// Decoder layers per entry (one chain per layer).
  std::size_t n_layers = 0;
  /// Cap on blocks the index may hold across all entries; 0 = bounded
  /// only by pool capacity (reservations still apply).
  std::size_t max_blocks = 0;
  /// Shortest prefix worth indexing, in tokens; rounded up to at least
  /// one pool block.
  std::size_t min_tokens = 0;
  /// Observability registry for hit/miss/insert/trim counters
  /// (prefix.*); null disables them. Must outlive the index.
  obs::MetricsRegistry* metrics = nullptr;
};

/// The index's occupancy; its events are the registry's prefix.* counters.
struct PrefixIndexStats {
  std::size_t entries = 0;
  std::size_t blocks_held = 0;  ///< across entries
};

/// One indexed prefix: the immutable payload only. Everything mutable
/// about an entry — its chains, its LRU stamp, its pin count — is
/// bookkeeping the PrefixIndex keeps under its own mutex; keeping it out
/// of this class is what lets entry pointers be read lock-free after
/// lookup()/insert().
class PrefixEntry {
 public:
  /// Prefix length in tokens (a whole number of pool blocks).
  std::size_t tokens() const noexcept { return run_.size(); }
  std::size_t blocks_per_layer() const noexcept { return blocks_per_layer_; }
  /// The exact token run this entry caches.
  std::span<const PrefixToken> run() const noexcept { return run_; }

 private:
  friend class PrefixIndex;
  std::vector<PrefixToken> run_;
  std::uint64_t run_hash_ = 0;
  std::size_t blocks_per_layer_ = 0;
  /// scores_[layer][head][token]: accumulated score-function values at the
  /// prefix boundary.
  std::vector<std::vector<std::vector<double>>> scores_;
  /// noise_[layer][head]: the covered prefix of the boundary noise row, at
  /// most tokens() long.
  std::vector<std::vector<std::vector<double>>> noise_;
};

class PrefixIndex {
 public:
  PrefixIndex(BlockPool& pool, PrefixIndexConfig cfg);
  ~PrefixIndex();

  PrefixIndex(const PrefixIndex&) = delete;
  PrefixIndex& operator=(const PrefixIndex&) = delete;

  const PrefixIndexConfig& config() const noexcept { return cfg_; }
  PrefixIndexStats stats() const KF_EXCLUDES(mu_);
  std::size_t blocks_held() const KF_EXCLUDES(mu_);

  /// Bumped whenever the entry set changes (insert or drop). A negative
  /// lookup stays negative until this moves, so pollers can skip the
  /// longest-prefix probe entirely between changes.
  std::uint64_t revision() const KF_EXCLUDES(mu_);

  /// Longest indexed prefix of `prompt` no longer than `max_tokens`, or
  /// null. Bumps the entry's LRU stamp.
  const PrefixEntry* lookup(std::span<const PrefixToken> prompt,
                            std::size_t max_tokens) KF_EXCLUDES(mu_);

  /// Pins an entry against trimming (a waiting sequence's reduced
  /// admission charge depends on the chain staying resident). Balanced by
  /// unpin().
  void pin(const PrefixEntry* entry) KF_EXCLUDES(mu_);
  void unpin(const PrefixEntry* entry) KF_EXCLUDES(mu_);

  /// Indexes the first `run.size()` tokens of `state`'s layer caches as a
  /// new entry, *sharing* (retaining) the underlying block chain — the
  /// donor caches keep using the same blocks, now flipped to
  /// copy-on-write so the donor's own eviction can never corrupt the
  /// indexed chain. Requirements: run length is a whole number of blocks
  /// and >= min_tokens; every layer cache draws from this index's pool,
  /// holds at least run.size() rows, and its leading positions are
  /// 0..run-1. The first run.size() scores and noise values of every head
  /// are copied into the entry.
  /// Returns the entry (the pre-existing one for an already-indexed run),
  /// or null when the run is ineligible or memory cannot be found even
  /// after trimming.
  const PrefixEntry* insert(std::span<const PrefixToken> run,
                            kv::SequenceKvState& state) KF_EXCLUDES(mu_);

  /// Adopts `entry` into `state`'s empty layer caches: retains each
  /// layer's chain into its cache with positions, boundary scores and
  /// noise rows seeded. Throws std::invalid_argument, leaving the state
  /// empty, for an unknown entry or a state that is not empty, shaped like
  /// the index and drawing from its pool.
  void adopt(const PrefixEntry* entry, kv::SequenceKvState& state)
      KF_EXCLUDES(mu_);

  /// Least-recently-used entry, optionally considering pinned ones; null
  /// when none qualifies.
  const PrefixEntry* lru_candidate(bool include_pinned) const
      KF_EXCLUDES(mu_);

  /// Releases an entry's chains and removes it. The entry must be
  /// unpinned.
  void drop(const PrefixEntry* entry) KF_EXCLUDES(mu_);

  /// drop() iff the entry is unpinned, with the pin check and the drop
  /// under ONE mutex acquisition — no window for a concurrent pin to land
  /// between them. True when the entry was dropped.
  bool try_drop(const PrefixEntry* entry) KF_EXCLUDES(mu_);

  /// Drops every unpinned entry (tests and servers rotating workloads).
  void clear() KF_EXCLUDES(mu_);

 private:
  /// Index bookkeeping of one entry — the mutable half of the split: the
  /// PrefixEntry payload is immutable and lock-free readable, the record
  /// is guarded by mu_ like the list holding it.
  struct EntryRec {
    std::unique_ptr<PrefixEntry> entry;
    /// chains[layer]: the entry's block chain for that layer.
    std::vector<std::vector<BlockRef>> chains;
    std::uint64_t last_use = 0;
    std::size_t pins = 0;
  };

  EntryRec& find_rec_locked(const PrefixEntry* entry) KF_REQUIRES(mu_);
  const EntryRec& find_rec_locked(const PrefixEntry* entry) const
      KF_REQUIRES(mu_);
  const EntryRec* lru_candidate_locked(bool include_pinned) const
      KF_REQUIRES(mu_);
  /// Frees enough unpinned LRU entries that `blocks` more fit under
  /// max_blocks; true on success (always true when max_blocks == 0).
  bool make_room_locked(std::size_t blocks) KF_REQUIRES(mu_);
  /// Releases `rec`'s chains and their reservation.
  void release_chains_locked(EntryRec& rec) KF_REQUIRES(mu_);
  void drop_locked(const PrefixEntry* entry) KF_REQUIRES(mu_);
  static std::uint64_t hash_run(std::span<const PrefixToken> run);

  BlockPool& pool_;
  PrefixIndexConfig cfg_;
  /// Guards every mutable member below; acquired before the BlockPool
  /// mutex, never the other way around.
  mutable Mutex mu_;
  /// In insertion order. A trim erases records and shifts the rest, so no
  /// EntryRec reference is held across one; callers name records by
  /// their heap-owned (address-stable) PrefixEntry instead.
  std::vector<EntryRec> entries_ KF_GUARDED_BY(mu_);
  std::size_t blocks_held_ KF_GUARDED_BY(mu_) = 0;
  std::uint64_t tick_ KF_GUARDED_BY(mu_) = 0;
  std::uint64_t revision_ KF_GUARDED_BY(mu_) = 0;
  /// Registry-owned event counters; null when cfg_.metrics is null.
  obs::Counter* ctr_hits_ = nullptr;
  obs::Counter* ctr_misses_ = nullptr;
  obs::Counter* ctr_insertions_ = nullptr;
  obs::Counter* ctr_trims_ = nullptr;
};

}  // namespace kf::mem
