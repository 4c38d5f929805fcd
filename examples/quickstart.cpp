// Quickstart: generate with full attention vs Keyformer at a 50% KV-cache
// budget and compare outputs, cache sizes, and the projected speedup on an
// A100. Uses the word-level tokenizer so the flow reads like a real text
// pipeline.
//
//   ./examples/quickstart
#include <iostream>

#include "keyformer/keyformer.h"

using namespace kf;

int main() {
  // 1. A small document (the synthetic corpus generators in kf::data make
  //    larger, controlled ones; here we tokenize real words).
  const std::string document =
      "the spacecraft juno entered orbit around jupiter in july "
      "after a five year cruise from earth . juno carries nine "
      "instruments to study the planet magnetic field and deep "
      "atmosphere . the mission team said juno will skim the cloud "
      "tops every fifty three days . scientists expect juno to reveal "
      "how jupiter formed and how its storms persist . the probe is "
      "solar powered , a first at this distance from the sun . "
      "summarize :";

  data::WordVocab vocab;
  const std::vector<data::Token> prompt = tokenize_words(vocab, document);

  // 2. A model. The vocabulary must cover the tokenizer ids we just made.
  model::ModelConfig cfg = model::ModelConfig::gptj_like();
  cfg.vocab_size = 256;
  model::Transformer model(cfg);
  std::cout << "model: " << cfg.name << ", "
            << model.weights().parameter_count() << " parameters, "
            << to_string(cfg.positional) << " positions\n";
  std::cout << "prompt: " << prompt.size() << " tokens\n\n";

  // 3. Generate with full attention.
  model::GenerationConfig gen;
  gen.max_new_tokens = 24;
  gen.banned_tokens = {data::kBos, data::kEos, data::kSep, data::kPad};
  // Restrict generation to words the tokenizer has seen, so the output
  // detokenizes to real text.
  for (std::size_t id = vocab.size(); id < cfg.vocab_size; ++id) {
    gen.banned_tokens.push_back(static_cast<data::Token>(id));
  }
  auto full_policy = kv::make_policy(kv::PolicyKind::kFull);
  const auto full = model::generate(model, prompt, *full_policy, gen);
  std::cout << "[full attention]  cache=" << full.state.layer_size(0)
            << " tokens/layer\n  " << detokenize(vocab, full.tokens)
            << "\n\n";

  // 4. Generate with Keyformer at half the cache.
  gen.cache_ratio = 0.5;
  auto keyformer = kv::make_policy(kv::PolicyKind::kKeyformer);
  const auto reduced = model::generate(model, prompt, *keyformer, gen);
  std::cout << "[keyformer @50%]  cache=" << reduced.state.layer_size(0)
            << " tokens/layer (budget k=" << reduced.budget.max_tokens
            << ", recent w=" << reduced.budget.recent_window << ")\n  "
            << detokenize(vocab, reduced.tokens) << "\n\n";

  // 5. How close did the reduced cache stay to the baseline?
  const eval::RougeSuite fidelity = eval::rouge_all(reduced.tokens,
                                                    full.tokens);
  std::cout << "fidelity to full attention: ROUGE-1 "
            << Table::num(fidelity.r1.f1, 3) << ", ROUGE-2 "
            << Table::num(fidelity.r2.f1, 3) << ", ROUGE-L "
            << Table::num(fidelity.rl.f1, 3) << "\n";

  // 6. And what would that buy on real hardware?
  const perf::CostModel cm(perf::DeviceSpec::a100_80gb(),
                           perf::ModelSpec::mpt_7b());
  perf::WorkloadSpec w;
  w.prompt_len = 2048;
  w.gen_len = 2048;
  const double t_full = cm.run(w).total_seconds;
  w.cache_mode = perf::CacheMode::kStaticPrompt;
  w.cache_ratio = 0.5;
  w.policy_cost = perf::PolicyCost::kGumbelTopK;
  const double t_kf = cm.run(w).total_seconds;
  std::cout << "projected on MPT-7B/A100 at 2048+2048: "
            << Table::num(t_full, 1) << "s -> " << Table::num(t_kf, 1)
            << "s (" << Table::num(t_full / t_kf, 2) << "x speedup)\n";
  return 0;
}
