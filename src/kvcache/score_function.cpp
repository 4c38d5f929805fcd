#include "kvcache/score_function.h"

#include <stdexcept>

#include "core/rng.h"

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

double ScoreFunction::noise(std::size_t layer, std::size_t head,
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

}  // namespace kf::kv
