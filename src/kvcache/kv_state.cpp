#include "kvcache/kv_state.h"

#include "mem/paged_kv_cache.h"

namespace kf::kv {

SequenceKvState::SequenceKvState(std::size_t n_layers, std::size_t n_heads,
                                 std::size_t d_head,
                                 std::size_t capacity_hint) {
  caches_.reserve(n_layers);
  for (std::size_t l = 0; l < n_layers; ++l) {
    caches_.push_back(
        std::make_unique<ContiguousKvCache>(n_heads, d_head, capacity_hint));
  }
}

SequenceKvState::SequenceKvState(mem::BlockPool& pool, std::size_t n_layers) {
  caches_.reserve(n_layers);
  for (std::size_t l = 0; l < n_layers; ++l) {
    caches_.push_back(std::make_unique<mem::PagedKvCache>(pool));
  }
}

std::size_t SequenceKvState::total_tokens() const noexcept {
  std::size_t total = 0;
  for (const auto& c : caches_) total += c->size();
  return total;
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
