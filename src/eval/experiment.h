// Experiment harness: runs (model x task x policy x budget) cells and
// aggregates the metrics every bench reports.
//
// Two ROUGE views are produced for generation tasks:
//   - reference ROUGE: against the sample's planted reference (the
//     synthetic analogue of the dataset gold summary);
//   - fidelity ROUGE: against the full-attention generation of the same
//     model (the iso-accuracy notion of Fig 9 — full attention scores 1.0
//     by construction, and the MLPerf-style 99%-of-baseline line is drawn
//     against it).
#pragma once

#include <span>
#include <string>
#include <vector>

#include "data/fewshot.h"
#include "data/synthetic.h"
#include "eval/rouge.h"
#include "kvcache/policy.h"
#include "model/generator.h"
#include "model/transformer.h"

namespace kf::eval {

struct EvalConfig {
  std::size_t max_new_tokens = 48;
  /// KV budget as a fraction of prompt length; >= 1.0 disables eviction.
  double cache_ratio = 1.0;
  double recent_ratio = 0.3;
  float repetition_penalty = 2.0F;
  std::size_t repetition_window = 0;  ///< 0 = penalize all generated tokens
  /// Never emit the special tokens (<bos>/<eos>/<sep>/<pad>).
  bool ban_special_tokens = true;
};

/// Aggregated result of one (policy, task, budget) cell.
struct PolicyTaskResult {
  std::string policy;
  double cache_ratio = 1.0;
  std::size_t n_samples = 0;
  /// Mean F1 against planted references.
  double ref_rouge1 = 0.0, ref_rouge2 = 0.0, ref_rougeL = 0.0;
  /// Mean F1 against the full-attention outputs (1.0 for full attention).
  double fid_rouge1 = 0.0, fid_rouge2 = 0.0, fid_rougeL = 0.0;
  double mean_wall_seconds = 0.0;
  /// Per-phase means (wall == prefill + decode); decode throughput is the
  /// serving-relevant number, unskewed by prompt length.
  double mean_prefill_seconds = 0.0;
  double mean_decode_seconds = 0.0;
  /// Aggregate decode tokens/s across the cell (total decode-produced
  /// tokens / total decode seconds).
  double decode_tokens_per_s = 0.0;
};

/// Generates outputs for every sample under `policy`.
std::vector<std::vector<Token>> generate_outputs(
    const model::Transformer& model, std::span<const data::Sample> samples,
    kv::EvictionPolicy& policy, const EvalConfig& cfg);

/// Full pipeline for one cell. `full_outputs` (optional) supplies the
/// fidelity references; pass the result of generate_outputs with a
/// FullAttentionPolicy and cache_ratio 1.0.
PolicyTaskResult evaluate_policy_on_task(
    const model::Transformer& model, std::span<const data::Sample> samples,
    kv::EvictionPolicy& policy, const EvalConfig& cfg,
    const std::vector<std::vector<Token>>* full_outputs = nullptr);

/// Multiple-choice accuracy (Table 2 protocol): prefill the prompt under
/// the policy (cache reduced to budget), then decode one step on the <sep>
/// answer cue and compare option log-probabilities. Returns accuracy in
/// [0, 1].
double mcq_accuracy(const model::Transformer& model,
                    std::span<const data::McqSample> samples,
                    kv::EvictionPolicy& policy, const EvalConfig& cfg);

}  // namespace kf::eval
