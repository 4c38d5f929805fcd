// Table 2 — few-shot accuracy on the lm-eval-harness-like synthetic tasks
// (COPA / OpenBookQA / Winogrande / PIQA), 0-shot and 5-shot, for
// Cerebras-like and MPT-like models: Full vs H2O vs Keyformer at 50% KV
// cache.
//
// Second sweep: the *serving* cost of few-shot contexts. Every request in
// a few-shot batch re-prefills the identical shot context; the paged
// engine's prefix cache replays it from one shared block chain instead.
// The sweep serves a burst of requests sharing one 8-shot context with
// the cache off and on, reporting prefill tokens actually computed,
// the measured savings, hit/miss counts, aggregate decode tok/s, and the
// peak pool blocks held with the cache off and on plus the shared blocks
// copied, side by side (CSV: table2_prefix_serving).
#include "bench_common.h"

using namespace kf;

namespace {

/// One row of the prefix-serving sweep: a burst of `n_requests` requests
/// sharing an 8-shot context, measured with the prefix cache off and on.
void prefix_serving_row(Table& table, const model::ModelConfig& cfg,
                        std::size_t n_requests, const bench::Options& opt) {
  model::Transformer m(cfg);

  data::McqConfig mc;
  mc.n_shots = 8;
  mc.seed = opt.seed;
  mc.vocab_size = std::min<std::size_t>(mc.vocab_size, cfg.vocab_size);
  // Shared context: a full 8-shot sample. Per-request question: another
  // sample's passage (0-shot prompt minus its leading <bos>).
  const std::vector<data::Token> ctx = data::make_mcq_sample(mc, 0).prompt;
  data::McqConfig qc = mc;
  qc.n_shots = 0;
  std::vector<serve::Request> requests;
  for (std::size_t i = 0; i < n_requests; ++i) {
    serve::Request req;
    req.id = i;
    req.prompt = ctx;
    const auto question = data::make_mcq_sample(qc, i + 1).prompt;
    req.prompt.insert(req.prompt.end(), question.begin() + 1, question.end());
    req.gen.max_new_tokens = opt.quick ? 8 : 16;
    req.gen.cache_ratio = 0.5;
    req.shared_prefix_hint = ctx.size();
    requests.push_back(std::move(req));
  }
  std::size_t total_prompt = 0;
  for (const auto& r : requests) total_prompt += r.prompt.size();

  serve::EngineConfig ec;
  ec.policy.kind = kv::PolicyKind::kKeyformer;
  ec.policy.keyformer.score.seed = opt.seed;
  ec.scheduler.max_batch_size = n_requests;
  ec.paged.block_tokens = 16;

  serve::Engine off(m, ec);
  off.run(requests);
  const double tok_s_off = off.stats().decode_tokens_per_s();
  const std::size_t prefill_off = off.stats().prefilled_tokens;
  const std::size_t peak_off = off.stats().pool_peak_used_blocks;

  ec.prefix.enabled = true;
  serve::Engine on(m, ec);
  on.run(requests);
  const auto& st = on.stats();
  const double saved =
      total_prompt > 0 ? 100.0 * static_cast<double>(st.prefix_tokens_reused) /
                             static_cast<double>(total_prompt)
                       : 0.0;

  table.row({cfg.name, Table::num(static_cast<long long>(n_requests)),
             Table::num(static_cast<long long>(ctx.size())),
             Table::num(static_cast<long long>(prefill_off)),
             Table::num(static_cast<long long>(st.prefilled_tokens)),
             Table::num(saved, 1),
             Table::num(static_cast<long long>(st.prefix_hits)),
             Table::num(static_cast<long long>(st.prefix_misses)),
             Table::num(tok_s_off, 1),
             Table::num(st.decode_tokens_per_s(), 1),
             Table::num(static_cast<long long>(peak_off)),
             Table::num(static_cast<long long>(st.pool_peak_used_blocks)),
             Table::num(static_cast<long long>(st.prefix_cow_copies))});
}

}  // namespace

int main(int argc, char** argv) {
  const bench::Options opt = bench::parse_options(argc, argv);
  const std::size_t n_questions = opt.quick ? 16 : 40;

  Table t("Table 2: few-shot accuracy (%) — H2O and Keyformer at 50% cache");
  t.header({"task", "model", "shots", "full", "h2o", "keyformer"});

  const std::vector<model::ModelConfig> models = {
      model::ModelConfig::cerebras_like(), model::ModelConfig::mpt_like()};
  const std::vector<data::McqTaskKind> tasks = {
      data::McqTaskKind::kCopa, data::McqTaskKind::kOpenBookQa,
      data::McqTaskKind::kWinogrande, data::McqTaskKind::kPiqa};

  for (const auto task : tasks) {
    for (const model::ModelConfig& cfg : models) {
      model::Transformer m(cfg);
      for (const std::size_t shots : {0u, 5u}) {
        data::McqConfig mc;
        mc.kind = task;
        mc.n_shots = shots;
        mc.seed = opt.seed;
        const auto samples = data::make_mcq_set(mc, n_questions);

        std::vector<std::string> row{to_string(task), cfg.name,
                                     std::to_string(shots) + "-shot"};
        for (const auto kind :
             {kv::PolicyKind::kFull, kv::PolicyKind::kH2O,
              kv::PolicyKind::kKeyformer}) {
          auto policy = bench::make_policy(kind, opt.seed);
          eval::EvalConfig ec;
          ec.cache_ratio = kind == kv::PolicyKind::kFull ? 1.0 : 0.5;
          const double acc = eval::mcq_accuracy(m, samples, *policy, ec);
          row.push_back(Table::num(100.0 * acc, 1));
        }
        t.row(row);
      }
    }
  }
  t.print(std::cout);
  bench::maybe_write_csv(opt, t, "table2_fewshot");

  Table ps("Few-shot serving: shared 8-shot context, prefix cache off vs on "
           "(keyformer @50% cache, paged KV)");
  ps.header({"model", "reqs", "ctx_tok", "prefill_tok_off", "prefill_tok_on",
             "saved_%", "hits", "misses", "tok/s_off", "tok/s_on",
             "peak_blk_off", "peak_blk_on", "cow_copies"});
  const std::size_t n_requests = opt.quick ? 4 : 8;
  for (const model::ModelConfig& cfg : models) {
    prefix_serving_row(ps, cfg, n_requests, opt);
  }
  std::cout << '\n';
  ps.print(std::cout);
  bench::maybe_write_csv(opt, ps, "table2_prefix_serving");
  std::cout << "Shared-context serving: every request past the first "
               "replays the cached shot context (hits), so prefill computes "
               "only the per-request question; decode output is "
               "token-for-token identical either way (pinned by "
               "test_prefix_sharing). Eviction drops shared rows without "
               "copying their blocks, so the cache-on pool peak holds the "
               "context once.\n\n";

  std::cout << "Paper shape check: at 50% cache both eviction methods "
               "track full attention within a few points, and Keyformer "
               "ties or beats H2O on most cells. (Divergence from the "
               "paper: our synthetic shots lengthen the prompt without "
               "adding model knowledge, so 5-shot does not reliably lift "
               "accuracy the way it does for pretrained 7B models — see "
               "EXPERIMENTS.md.)\n";
  return 0;
}
