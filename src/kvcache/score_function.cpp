#include "kvcache/score_function.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "core/rng.h"
#include "cpu/kernels.h"

namespace kf::kv {

std::string to_string(LogitAdjustment a) {
  switch (a) {
    case LogitAdjustment::kNone: return "none";
    case LogitAdjustment::kConstant: return "constant";
    case LogitAdjustment::kGaussian: return "gaussian";
    case LogitAdjustment::kGumbel: return "gumbel";
  }
  return "unknown";
}

double TemperatureSchedule::at(std::size_t t, std::size_t total_steps) const {
  if (!dynamic || total_steps == 0) return tau_init;
  // Eq. 10 anneals tau from tau_init to tau_end over T steps; steps past T
  // (e.g. generation overrunning the planned length) hold at tau_end rather
  // than extrapolating.
  if (t >= total_steps) return tau_end;
  const double delta = (tau_end - tau_init) / static_cast<double>(total_steps);
  return tau_init + static_cast<double>(t) * delta;
}

ScoreFunction::ScoreFunction(ScoreFunctionConfig config)
    : config_(config) {
  if (config_.temperature.tau_init <= 0.0 ||
      config_.temperature.tau_end <= 0.0) {
    throw std::invalid_argument("temperature must be positive");
  }
  if (config_.damping <= 0.0 || config_.damping > 1.0) {
    throw std::invalid_argument("damping must be in (0, 1]");
  }
}

std::vector<double>& ScoreFunction::noise_table(
    std::size_t layer, std::size_t head, std::size_t min_positions) const {
  if (noise_tables_.size() <= layer) noise_tables_.resize(layer + 1);
  auto& heads = noise_tables_[layer];
  if (heads.size() <= head) heads.resize(head + 1);
  auto& table = heads[head];
  if (table.size() < min_positions) {
    table.resize(min_positions, std::numeric_limits<double>::quiet_NaN());
  }
  return table;
}

double ScoreFunction::noise(std::size_t layer, std::size_t head,
                            std::size_t original_pos) const {
  if (config_.adjustment == LogitAdjustment::kNone) return 0.0;
  if (config_.adjustment == LogitAdjustment::kConstant) {
    return config_.noise_scale * config_.constant;
  }
  if (layer >= kMaxTableLayers || head >= kMaxTableHeads ||
      original_pos >= kMaxTablePositions) {
    // Outside the memo bounds: recompute the stateless draw (identical
    // value every call, just uncached).
    return compute_noise(layer, head, original_pos);
  }
  auto& table = noise_table(layer, head, original_pos + 1);
  double& slot = table[original_pos];
  if (std::isnan(slot)) slot = compute_noise(layer, head, original_pos);
  return slot;
}

void ScoreFunction::reset_noise() { noise_tables_.clear(); }

double ScoreFunction::compute_noise(std::size_t layer, std::size_t head,
                                    std::size_t original_pos) const {
  switch (config_.adjustment) {
    case LogitAdjustment::kNone:
      return 0.0;
    case LogitAdjustment::kConstant:
      return config_.noise_scale * config_.constant;
    case LogitAdjustment::kGaussian:
      return config_.noise_scale *
             (config_.gaussian_mean +
              config_.gaussian_stddev *
                  stateless_normal({config_.seed, 0xA5A5ULL, layer, head,
                                    original_pos}));
    case LogitAdjustment::kGumbel:
      return config_.noise_scale *
             stateless_gumbel(
                 {config_.seed, 0x6B6BULL, layer, head, original_pos});
  }
  return 0.0;
}

bool ScoreFunction::noise_row(std::size_t layer, std::size_t head,
                              std::span<const std::size_t> positions,
                              std::span<double> out) const {
  assert(out.size() == positions.size());
  switch (config_.adjustment) {
    case LogitAdjustment::kNone:
      return false;
    case LogitAdjustment::kConstant:
      std::fill(out.begin(), out.end(),
                config_.noise_scale * config_.constant);
      return true;
    case LogitAdjustment::kGaussian:
    case LogitAdjustment::kGumbel:
      break;
  }
  // One table covering the largest position turns every per-slot read
  // into a flat array access. Cache positions ascend in practice, but the
  // table is sized from the actual maximum so an unsorted span can never
  // index past the end. Slots beyond the memo bound fall back to the
  // (identical) direct computation.
  std::size_t max_pos = 0;
  for (const std::size_t p : positions) max_pos = p > max_pos ? p : max_pos;
  if (layer >= kMaxTableLayers || head >= kMaxTableHeads ||
      max_pos >= kMaxTablePositions) {
    for (std::size_t i = 0; i < positions.size(); ++i) {
      out[i] = noise(layer, head, positions[i]);
    }
    return true;
  }
  std::vector<double>& table = noise_table(layer, head, max_pos + 1);
  for (std::size_t i = 0; i < positions.size(); ++i) {
    double& slot = table[positions[i]];
    if (std::isnan(slot)) slot = compute_noise(layer, head, positions[i]);
    out[i] = slot;
  }
  return true;
}

void ScoreFunction::increments(std::span<const float> logits,
                               std::span<const std::size_t> positions,
                               std::size_t layer, std::size_t head,
                               std::size_t t, std::size_t total_steps,
                               std::span<double> out) const {
  assert(logits.size() == positions.size() && out.size() == logits.size());
  const bool noisy = noise_row(layer, head, positions, out);
  cpu::score_increments_stub.get()(logits.data(), noisy ? out.data() : nullptr,
                                   out.data(), logits.size(),
                                   config_.temperature.at(t, total_steps));
}

}  // namespace kf::kv
