// Decode throughput bench: tokens/s and a per-step latency breakdown
// (project / attend / score / evict / mlp / lm_head / other) for the RoPE +
// Keyformer configuration on a long-context preset.
//
// One row per kernel ISA the host can run (the ambient ISA first), each
// decoding the *same* token stream through Transformer::decode. The
// scalar row is the reference (src/cpu/kernels.h names scalar as the
// semantics reference): every row reports its speedup over scalar and the
// max |LM-logit delta| against it, which must stay within float rounding.
//
//   ./bench/bench_decode_throughput [--quick] [--gen N] [--seed S]
//                                   [--csv DIR]
//
// --csv DIR additionally writes decode_throughput.csv and
// decode_throughput.json into DIR (the CI perf-trajectory artifact).
#include <cmath>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/timing.h"
#include "obs/trace.h"

using namespace kf;

namespace {

struct IsaResult {
  std::string isa;  ///< kernel ISA the run dispatched to
  double tokens_per_s = 0.0;
  double ms_per_token = 0.0;
  double project_ms = 0.0;  // per token
  double attend_ms = 0.0;
  double score_ms = 0.0;
  double evict_ms = 0.0;
  double mlp_ms = 0.0;
  double lm_head_ms = 0.0;
  double other_ms = 0.0;
  double prefill_seconds = 0.0;
  double max_logit_delta = 0.0;  // vs the scalar row
  std::vector<std::vector<float>> step_logits;
};

struct BenchSetup {
  std::size_t prompt_len = 0;
  std::size_t gen_tokens = 0;
  std::uint64_t seed = 0;
};

IsaResult run_isa(cpu::CpuIsa isa, const BenchSetup& s) {
  cpu::set_isa_override(isa);
  model::ModelConfig cfg = model::ModelConfig::gptj_like();
  cfg.max_seq_len = 8192;
  model::Transformer m(cfg);

  // Deterministic prompt and decode token stream shared by every row so
  // outputs are comparable step for step.
  Rng rng(s.seed);
  std::vector<model::Token> prompt(s.prompt_len);
  for (auto& t : prompt) {
    t = static_cast<model::Token>(rng.uniform_u64(cfg.vocab_size));
  }
  std::vector<model::Token> feed(s.gen_tokens);
  for (auto& t : feed) {
    t = static_cast<model::Token>(rng.uniform_u64(cfg.vocab_size));
  }

  auto policy = bench::make_policy(kv::PolicyKind::kKeyformer, s.seed);
  policy->set_budget(kv::make_budget(s.prompt_len, /*cache_ratio=*/0.5));
  kv::SequenceInfo info;
  info.prompt_len = s.prompt_len;
  info.total_steps = s.gen_tokens;
  policy->begin_sequence(info);

  kv::SequenceKvState state = m.make_kv_state();
  IsaResult r;
  r.isa = cpu::isa_name(cpu::active_isa());
  double t0 = now_seconds();
  m.prefill(state, prompt, 0, *policy);
  r.prefill_seconds = now_seconds() - t0;

  // The breakdown comes from the model's own trace spans over the decode
  // loop (prefill is untraced).
  obs::trace_reset();
  obs::set_trace_enabled(true);
  t0 = now_seconds();
  for (std::size_t t = 1; t <= s.gen_tokens; ++t) {
    const std::size_t position = s.prompt_len + t - 1;
    r.step_logits.push_back(m.decode(state, feed[t - 1], position, t, *policy));
  }
  const double decode_seconds = now_seconds() - t0;
  obs::set_trace_enabled(false);
  const auto spans = obs::trace_totals();
  const auto span_ms = [&](const char* name) {
    const auto it = spans.find(name);
    return it == spans.end() ? 0.0 : 1e3 * it->second.seconds;
  };

  const double n = static_cast<double>(s.gen_tokens);
  r.tokens_per_s = n / decode_seconds;
  r.ms_per_token = 1e3 * decode_seconds / n;
  r.project_ms = span_ms("attn.project") / n;
  r.attend_ms = span_ms("attn.attend") / n;
  r.score_ms = span_ms("policy.score") / n;
  r.evict_ms = span_ms("policy.evict") / n;
  r.mlp_ms = span_ms("mlp") / n;
  r.lm_head_ms = span_ms("lm_head") / n;
  r.other_ms = r.ms_per_token - r.project_ms - r.attend_ms - r.score_ms -
               r.evict_ms - r.mlp_ms - r.lm_head_ms;
  cpu::clear_isa_override();
  return r;
}

double max_delta(const IsaResult& a, const IsaResult& b) {
  double d = 0.0;
  for (std::size_t t = 0; t < a.step_logits.size(); ++t) {
    for (std::size_t i = 0; i < a.step_logits[t].size(); ++i) {
      d = std::max(d, static_cast<double>(std::abs(a.step_logits[t][i] -
                                                   b.step_logits[t][i])));
    }
  }
  return d;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::Options opt = bench::parse_options(argc, argv);
  BenchSetup s;
  s.seed = opt.seed;
  // Long-context preset; --quick shrinks it to smoke-test size. An
  // explicit --gen is honored verbatim (post parse_options, which halves
  // it under --quick like every other bench).
  s.prompt_len = opt.quick ? 256 : 1024;
  s.gen_tokens = opt.gen_given ? opt.gen_tokens : (opt.quick ? 32 : 128);
  if (s.gen_tokens == 0) {
    std::cerr << "error: --gen must be positive\n";
    return 1;
  }

  std::cout << "decode throughput (gptj-like RoPE, keyformer @ 50% cache, "
            << "prompt " << s.prompt_len << ", gen " << s.gen_tokens
            << ")\n";

  // Ambient ISA first, then every other ISA the host can run.
  const cpu::CpuIsa ambient = cpu::active_isa();
  std::vector<IsaResult> results;
  results.push_back(run_isa(ambient, s));
  std::size_t scalar_row = 0;
  for (int i = 0; i < cpu::kIsaCount; ++i) {
    const auto isa = static_cast<cpu::CpuIsa>(i);
    if (isa == ambient || !cpu::isa_available(isa)) continue;
    if (isa == cpu::CpuIsa::kScalar) scalar_row = results.size();
    results.push_back(run_isa(isa, s));
  }
  const IsaResult& scalar = results[scalar_row];
  for (auto& r : results) r.max_logit_delta = max_delta(scalar, r);

  Table t("decode kernel per ISA: tokens/s and per-step latency breakdown");
  t.header({"isa", "tok_per_s", "speedup_vs_scalar", "ms_per_tok",
            "project_ms", "attend_ms", "score_ms", "evict_ms", "mlp_ms",
            "lm_head_ms", "other_ms", "max_logit_delta"});
  for (const auto& r : results) {
    t.row({r.isa, Table::num(r.tokens_per_s, 1),
           Table::num(r.tokens_per_s / scalar.tokens_per_s, 2) + "x",
           Table::num(r.ms_per_token, 3), Table::num(r.project_ms, 3),
           Table::num(r.attend_ms, 3), Table::num(r.score_ms, 3),
           Table::num(r.evict_ms, 3), Table::num(r.mlp_ms, 3),
           Table::num(r.lm_head_ms, 3), Table::num(r.other_ms, 3),
           Table::num(r.max_logit_delta, 7)});
  }
  t.print(std::cout);
  bench::maybe_write_csv(opt, t, "decode_throughput");

  if (!opt.csv_dir.empty()) {
    const std::string path = opt.csv_dir + "/decode_throughput.json";
    std::ofstream out(path);
    if (out) {
      out << "{\n  \"prompt_len\": " << s.prompt_len
          << ",\n  \"gen_tokens\": " << s.gen_tokens << ",\n  \"rows\": [";
      for (std::size_t i = 0; i < results.size(); ++i) {
        const auto& r = results[i];
        out << (i > 0 ? "," : "") << "\n    {\"isa\": \"" << r.isa
            << "\", \"tokens_per_s\": " << r.tokens_per_s
            << ", \"speedup_vs_scalar\": "
            << r.tokens_per_s / scalar.tokens_per_s
            << ", \"ms_per_token\": " << r.ms_per_token
            << ", \"project_ms\": " << r.project_ms
            << ", \"attend_ms\": " << r.attend_ms
            << ", \"score_ms\": " << r.score_ms
            << ", \"evict_ms\": " << r.evict_ms
            << ", \"mlp_ms\": " << r.mlp_ms
            << ", \"lm_head_ms\": " << r.lm_head_ms
            << ", \"other_ms\": " << r.other_ms
            << ", \"max_logit_delta\": " << r.max_logit_delta << "}";
      }
      out << "\n  ]\n}\n";
      std::cout << "(json written to " << path << ")\n";
    } else {
      std::cerr << "warning: could not write " << path << '\n';
    }
  }

  const IsaResult& native = results.front();
  std::cout << "decode speedup vs scalar: "
            << Table::num(native.tokens_per_s / scalar.tokens_per_s, 2)
            << "x (isa " << native.isa << "); max logit delta "
            << Table::num(native.max_logit_delta, 7) << '\n';
  return 0;
}
