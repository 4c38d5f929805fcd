// Per-sequence KV state: one KvCache per decoder layer, owned as a unit.
//
// The transformer holds only weights; a sequence is a SequenceKvState the
// *caller* owns plus its EvictionPolicy instance (score state), so N
// sequences share one model's weights while each keeps its own caches —
// the structure continuous batching schedules over.
//
// Every layer cache draws its blocks from a mem::BlockPool. A serving
// engine hands each sequence its shared pool, the memory the scheduler's
// admission reserved; a state built without one owns a private, unbounded
// pool (Transformer::make_kv_state(), generate(), standalone callers).
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "kvcache/kv_cache.h"
#include "mem/block_pool.h"

namespace kf::kv {

/// All per-layer KV caches of one sequence.
class SequenceKvState {
 public:
  /// Tokens per block of a state's private pool. Large blocks keep a
  /// single sequence's attend and compaction on few segments.
  static constexpr std::size_t kPrivateBlockTokens = 64;

  SequenceKvState() = default;

  /// One cache per layer, each laid out for n_heads x d_head rows, over a
  /// private unbounded pool of kPrivateBlockTokens-token blocks.
  SequenceKvState(std::size_t n_layers, std::size_t n_heads,
                  std::size_t d_head);

  /// One cache per layer, all drawing blocks from `pool` (geometry comes
  /// from the pool config), which must outlive the state.
  SequenceKvState(mem::BlockPool& pool, std::size_t n_layers);

  SequenceKvState(SequenceKvState&&) = default;
  /// Destroys this state's caches before the pool they release into.
  SequenceKvState& operator=(SequenceKvState&& other) noexcept;

  std::size_t n_layers() const noexcept { return caches_.size(); }

  KvCache& layer(std::size_t l) { return *caches_.at(l); }
  const KvCache& layer(std::size_t l) const { return *caches_.at(l); }

  /// Cache length of one layer.
  std::size_t layer_size(std::size_t l) const { return caches_.at(l)->size(); }

  /// Longest per-layer cache (the per-sequence memory high-water mark is
  /// tracked in these units).
  std::size_t max_layer_tokens() const noexcept;

  /// True when every layer cache is empty.
  bool empty() const noexcept;

  /// True when the state has exactly `n_layers` caches, every one laid
  /// out for `n_heads` x `d_head` rows — the geometry check model entry
  /// points run on caller-supplied states (row widths can coincide across
  /// different head splits, so layer count alone is not enough).
  bool matches(std::size_t n_layers, std::size_t n_heads,
               std::size_t d_head) const noexcept;

  /// Clears every layer cache, returning its blocks to the pool.
  void clear();

 private:
  /// The private pool, when the state was built without one. Declared
  /// before the caches so they are destroyed first.
  std::unique_ptr<mem::BlockPool> own_pool_;
  std::vector<std::unique_ptr<KvCache>> caches_;
};

}  // namespace kf::kv
