#include "model/positional.h"

#include <cassert>
#include <cmath>

namespace kf::model {

namespace {

/// One (even, odd) pair rotated by an angle of cosine c and sine s, in
/// double: the arithmetic rope_rotate and RopeTable::rotate share.
void rotate_pair(float* v, double c, double s) {
  const double x0 = v[0];
  const double x1 = v[1];
  v[0] = static_cast<float>(x0 * c - x1 * s);
  v[1] = static_cast<float>(x0 * s + x1 * c);
}

bool is_power_of_two(std::size_t n) { return n != 0 && (n & (n - 1)) == 0; }

double slope_for_power_of_two(std::size_t head, std::size_t n_heads) {
  // 2^(-8 (head+1) / n_heads)
  const double exponent =
      -8.0 * static_cast<double>(head + 1) / static_cast<double>(n_heads);
  return std::pow(2.0, exponent);
}

}  // namespace

void rope_rotate(std::span<float> vec, std::size_t pos, double base) {
  assert(vec.size() % 2 == 0);
  const std::size_t d = vec.size();
  const double p = static_cast<double>(pos);
  for (std::size_t i = 0; i < d; i += 2) {
    const double freq =
        std::pow(base, -static_cast<double>(i) / static_cast<double>(d));
    const double theta = p * freq;
    rotate_pair(&vec[i], std::cos(theta), std::sin(theta));
  }
}

RopeTable::RopeTable(std::size_t d_head, std::size_t n_positions,
                     double base)
    : d_head_(d_head),
      positions_(n_positions),
      base_(base),
      cos_sin_(n_positions * d_head) {
  assert(d_head % 2 == 0);
  for (std::size_t i = 0; i < d_head; i += 2) {
    const double freq =
        std::pow(base, -static_cast<double>(i) / static_cast<double>(d_head));
    for (std::size_t p = 0; p < n_positions; ++p) {
      const double theta = static_cast<double>(p) * freq;
      cos_sin_[p * d_head + i] = std::cos(theta);
      cos_sin_[p * d_head + i + 1] = std::sin(theta);
    }
  }
}

void RopeTable::rotate(std::span<float> vec, std::size_t pos) const {
  if (pos >= positions_) {
    rope_rotate(vec, pos, base_);
    return;
  }
  assert(vec.size() == d_head_);
  const double* row = cos_sin_.data() + pos * d_head_;
  for (std::size_t i = 0; i < d_head_; i += 2) {
    rotate_pair(&vec[i], row[i], row[i + 1]);
  }
}

double alibi_slope(std::size_t head, std::size_t n_heads) {
  assert(head < n_heads);
  if (is_power_of_two(n_heads)) {
    return slope_for_power_of_two(head, n_heads);
  }
  // Standard ALiBi fallback: take the slopes for the next power of two
  // below n_heads, then interleave slopes of the doubled set.
  std::size_t lower = 1;
  while (lower * 2 <= n_heads) lower *= 2;
  if (head < lower) return slope_for_power_of_two(head, lower);
  const std::size_t j = head - lower;
  return slope_for_power_of_two(2 * j, 2 * lower);
}

double alibi_bias(std::size_t head, std::size_t n_heads, std::size_t q_pos,
                  std::size_t k_pos) {
  const double distance = q_pos >= k_pos
                              ? static_cast<double>(q_pos - k_pos)
                              : -static_cast<double>(k_pos - q_pos);
  return -alibi_slope(head, n_heads) * distance;
}

}  // namespace kf::model
