#include "kvcache/kv_state.h"

namespace kf::kv {

namespace {

std::vector<std::unique_ptr<KvCache>> layer_caches(mem::BlockPool& pool,
                                                   std::size_t n_layers) {
  std::vector<std::unique_ptr<KvCache>> caches;
  caches.reserve(n_layers);
  for (std::size_t l = 0; l < n_layers; ++l) {
    caches.push_back(std::make_unique<KvCache>(pool));
  }
  return caches;
}

}  // namespace

SequenceKvState::SequenceKvState(std::size_t n_layers, std::size_t n_heads,
                                 std::size_t d_head)
    : own_pool_(std::make_unique<mem::BlockPool>(
          mem::BlockPoolConfig{.block_tokens = kPrivateBlockTokens,
                               .n_heads = n_heads,
                               .d_head = d_head})),
      caches_(layer_caches(*own_pool_, n_layers)) {}

SequenceKvState::SequenceKvState(mem::BlockPool& pool, std::size_t n_layers)
    : caches_(layer_caches(pool, n_layers)) {}

SequenceKvState& SequenceKvState::operator=(SequenceKvState&& other) noexcept {
  if (this != &other) {
    caches_.clear();  // release into the old pool while it still exists
    own_pool_ = std::move(other.own_pool_);
    caches_ = std::move(other.caches_);
  }
  return *this;
}

std::size_t SequenceKvState::max_layer_tokens() const noexcept {
  std::size_t peak = 0;
  for (const auto& c : caches_) peak = c->size() > peak ? c->size() : peak;
  return peak;
}

bool SequenceKvState::matches(std::size_t n_layers, std::size_t n_heads,
                              std::size_t d_head) const noexcept {
  if (caches_.size() != n_layers) return false;
  for (const auto& c : caches_) {
    if (c->n_heads() != n_heads || c->d_head() != d_head) return false;
  }
  return true;
}

bool SequenceKvState::empty() const noexcept {
  for (const auto& c : caches_) {
    if (!c->empty()) return false;
  }
  return true;
}

void SequenceKvState::clear() {
  for (auto& c : caches_) c->clear();
}

}  // namespace kf::kv
