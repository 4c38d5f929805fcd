#include "eval/experiment.h"

#include <cassert>

namespace kf::eval {

namespace {

model::GenerationConfig to_generation_config(const EvalConfig& cfg) {
  model::GenerationConfig g;
  g.max_new_tokens = cfg.max_new_tokens;
  g.cache_ratio = cfg.cache_ratio;
  g.recent_ratio = cfg.recent_ratio;
  g.repetition_penalty = cfg.repetition_penalty;
  g.repetition_window = cfg.repetition_window;
  if (cfg.ban_special_tokens) {
    g.banned_tokens = {data::kBos, data::kEos, data::kSep, data::kPad};
  }
  return g;
}

}  // namespace

std::vector<std::vector<Token>> generate_outputs(
    const model::Transformer& model, std::span<const data::Sample> samples,
    kv::EvictionPolicy& policy, const EvalConfig& cfg) {
  const model::GenerationConfig g = to_generation_config(cfg);
  std::vector<std::vector<Token>> outputs;
  outputs.reserve(samples.size());
  for (const data::Sample& s : samples) {
    model::GenerationResult r = model::generate(model, s.prompt, policy, g);
    outputs.push_back(std::move(r.tokens));
  }
  return outputs;
}

PolicyTaskResult evaluate_policy_on_task(
    const model::Transformer& model, std::span<const data::Sample> samples,
    kv::EvictionPolicy& policy, const EvalConfig& cfg,
    const std::vector<std::vector<Token>>* full_outputs) {
  assert(full_outputs == nullptr || full_outputs->size() == samples.size());
  const model::GenerationConfig g = to_generation_config(cfg);

  PolicyTaskResult out;
  out.policy = policy.name();
  out.cache_ratio = cfg.cache_ratio;
  out.n_samples = samples.size();

  std::size_t decode_tokens = 0;
  double decode_seconds = 0.0;
  for (std::size_t i = 0; i < samples.size(); ++i) {
    const data::Sample& s = samples[i];
    model::GenerationResult r = model::generate(model, s.prompt, policy, g);
    out.mean_wall_seconds += r.wall_seconds();
    out.mean_prefill_seconds += r.prefill_seconds;
    out.mean_decode_seconds += r.decode_seconds;
    if (r.tokens.size() > 1) decode_tokens += r.tokens.size() - 1;
    decode_seconds += r.decode_seconds;

    const RougeSuite ref = rouge_all(r.tokens, s.reference);
    out.ref_rouge1 += ref.r1.f1;
    out.ref_rouge2 += ref.r2.f1;
    out.ref_rougeL += ref.rl.f1;

    if (full_outputs != nullptr) {
      const RougeSuite fid = rouge_all(r.tokens, (*full_outputs)[i]);
      out.fid_rouge1 += fid.r1.f1;
      out.fid_rouge2 += fid.r2.f1;
      out.fid_rougeL += fid.rl.f1;
    }
  }
  if (!samples.empty()) {
    const double inv = 1.0 / static_cast<double>(samples.size());
    out.ref_rouge1 *= inv;
    out.ref_rouge2 *= inv;
    out.ref_rougeL *= inv;
    out.fid_rouge1 *= inv;
    out.fid_rouge2 *= inv;
    out.fid_rougeL *= inv;
    out.mean_wall_seconds *= inv;
    out.mean_prefill_seconds *= inv;
    out.mean_decode_seconds *= inv;
  }
  if (decode_seconds > 0.0) {
    out.decode_tokens_per_s =
        static_cast<double>(decode_tokens) / decode_seconds;
  }
  return out;
}

double mcq_accuracy(const model::Transformer& model,
                    std::span<const data::McqSample> samples,
                    kv::EvictionPolicy& policy, const EvalConfig& cfg) {
  std::size_t correct = 0;
  for (const data::McqSample& s : samples) {
    policy.set_budget(
        kv::make_budget(s.prompt.size(), cfg.cache_ratio, cfg.recent_ratio));
    policy.begin_sequence({s.prompt.size(), /*total_steps=*/1});

    kv::SequenceKvState state = model.make_kv_state();
    (void)model.prefill(state, s.prompt, 0, policy);
    // Score the options at the answer cue against the *reduced* cache.
    const std::vector<float> logits =
        model.decode(state, data::kSep, s.prompt.size(), /*t=*/1, policy);

    std::size_t best = 0;
    for (std::size_t o = 1; o < s.options.size(); ++o) {
      if (logits[static_cast<std::size_t>(s.options[o])] >
          logits[static_cast<std::size_t>(s.options[best])]) {
        best = o;
      }
    }
    if (best == s.correct) ++correct;
  }
  return samples.empty()
             ? 0.0
             : static_cast<double>(correct) /
                   static_cast<double>(samples.size());
}

}  // namespace kf::eval
