// Bit-exactness fingerprint: FNV-1a hashes of what the dispatched kernels
// and the model compute, one hash per line. Two builds print the same
// lines exactly when every hashed value has the same bits, so a change
// that must keep the numbers runs this at its parent and at the change and
// compares the output:
//
//   ./build/bench/bench_fingerprint [--quick]
//
// "kernel <isa> <table> <hash>" lines cover each table in cpu/kernels.h,
// per ISA this host runs, over seeded random inputs whose lengths straddle
// the 8- and 16-lane vector widths: every gemm_rows epilogue, bias and
// noise rows null and set, tau 1 and another, -inf entries, multi-segment
// attends and keys_override, and attend head widths that fill, cross or
// stop short of decode_attend's register-held context chunks. The
// attend_rows line hashes calls of 2 to 4 consecutive rows over the same
// shapes, so a change that keeps each row equal to its one-row call keeps
// both lines.
//
// "model <isa> <hash>" lines run the model under each ISA: 3 families x
// prompts of 37 and 300 tokens x both position modes, under full
// attention, H2O, and Keyformer with each logit adjustment in both score
// scopes, at cache ratios 0.2 and 0.5. Each run hashes its prefill logits,
// 24 greedy decode steps' logits, and every layer's kept positions,
// per-head scores and noise rows. One more gptj_like run has a 256-position
// RoPE table, so its 300-token prompt and decode steps cross the table's
// end: full attention and Gumbel Keyformer at 0.5, both position modes.
// --quick runs one family, the 37-token prompt, and only full attention
// and Gumbel Keyformer.
//
// "engine <isa> <hash>" lines make one Engine::run per policy of the model
// lines on gptj_like: 8 requests of 40-96 prompt tokens and 20 new tokens
// (cache ratio 0.5, full attention 1.0) arrive two steps apart at a
// 16-token-block pool of 256 tokens per layer, with preemption after 2
// starved steps, so every request parks and resumes by replay, up to six
// times and several tokens each. Each run hashes every response's tokens,
// finish reason, preemptions, final cache sizes and eviction digest
// (decisions, evicted and kept tokens, position buckets, score extremes
// and sketch percentiles), then the run's steps, preemptions, replayed
// tokens and peak pool blocks. It leaves out the digest's score_mean:
// the telemetry sums evicted scores in decision order, and a replay takes
// its layers' decisions in another order than decode steps do, so the
// mean may move in its last bits while every decision stays the same.
//
// No hash is committed to compare against: libm and compiler differences
// between hosts change the bits legitimately.

#include <algorithm>
#include <cstdint>
#include <iomanip>
#include <iostream>
#include <iterator>
#include <limits>
#include <string>
#include <vector>

#include "cpu/kernels.h"
#include "keyformer/keyformer.h"

namespace {

using namespace kf;

constexpr float kInf = std::numeric_limits<float>::infinity();

/// 64-bit FNV-1a over the raw bytes of everything fed to it.
class Fnv {
 public:
  template <typename Range>
  void add(const Range& values) {
    const auto* p = reinterpret_cast<const unsigned char*>(std::data(values));
    const std::size_t n = std::size(values) * sizeof(*std::data(values));
    for (std::size_t i = 0; i < n; ++i) h_ = (h_ ^ p[i]) * 0x100000001b3ULL;
  }
  std::uint64_t digest() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

/// Lengths below, at and just past multiples of 8 and 16 lanes.
const std::size_t kLengths[] = {1,  7,  8,  9,  15, 16, 17,
                                31, 32, 33, 63, 64, 65, 100};

std::vector<float> random_floats(Rng& rng, std::size_t n, float scale) {
  std::vector<float> v(n);
  for (float& x : v) x = static_cast<float>(rng.normal()) * scale;
  return v;
}

std::uint64_t hash_matvec_rows(cpu::CpuIsa isa) {
  const cpu::MatvecRowsFn fn = cpu::matvec_rows_stub.get(isa);
  Rng rng(1);
  Fnv h;
  for (const std::size_t k : kLengths) {
    constexpr std::size_t kRows = 5;
    const auto a = random_floats(rng, kRows * k, 1.0F);
    const auto x = random_floats(rng, k, 1.0F);
    std::vector<float> y(kRows);
    fn(a.data(), x.data(), y.data(), 0, kRows, k);
    h.add(y);
  }
  return h.digest();
}

std::uint64_t hash_gemm_rows(cpu::CpuIsa isa) {
  const cpu::GemmRowsFn fn = cpu::gemm_rows_stub.get(isa);
  Rng rng(2);
  Fnv h;
  for (const std::size_t m : {1, 4, 5, 9}) {
    for (const std::size_t k : {1, 7, 16, 33}) {
      for (const std::size_t n : kLengths) {
        for (const cpu::Epilogue form :
             {cpu::Epilogue::kStore, cpu::Epilogue::kBiasGelu,
              cpu::Epilogue::kBiasAccumulate}) {
          const auto a = random_floats(rng, m * k, 1.0F);
          const auto b = random_floats(rng, k * n, 1.0F);
          const auto bias = random_floats(rng, n, 1.0F);
          auto c = random_floats(rng, m * n, 1.0F);
          const float* bias_ptr =
              form == cpu::Epilogue::kStore ? nullptr : bias.data();
          fn(a.data(), b.data(), c.data(), 0, m, k, n, form, bias_ptr);
          h.add(c);
        }
      }
    }
  }
  return h.digest();
}

std::uint64_t hash_softmax(cpu::CpuIsa isa) {
  const cpu::SoftmaxFn fn = cpu::softmax_stub.get(isa);
  Rng rng(3);
  Fnv h;
  for (const std::size_t n : kLengths) {
    for (const double tau : {1.0, 0.7}) {
      for (const bool masked : {false, true}) {
        auto x = random_floats(rng, n, 3.0F);
        if (masked) {
          x[n / 2] = -kInf;
          x[n - 1] = -kInf;
        }
        std::vector<float> out(n);
        fn(x.data(), out.data(), n, tau);
        h.add(out);
      }
    }
    const std::vector<float> all_masked(n, -kInf);
    std::vector<float> out(n);
    fn(all_masked.data(), out.data(), n, 1.0);
    h.add(out);
  }
  return h.digest();
}

std::uint64_t hash_decode_attend(cpu::CpuIsa isa) {
  const cpu::DecodeAttendFn fn = cpu::decode_attend_stub.get(isa);
  Rng rng(4);
  Fnv h;
  for (const std::size_t dh :
       {2, 6, 8, 16, 24, 32, 40, 64, 96, 112, 128, 136, 264}) {
    for (const std::size_t key_len : {1, 7, 8, 9, 15, 16, 17, 33, 100}) {
      for (const std::size_t seg_rows : {key_len, std::size_t{3},
                                         std::size_t{16}}) {
        for (int c = 0; c < 4; ++c) {
          const bool with_bias = (c & 1) != 0;
          const bool with_override = (c & 2) != 0;
          const auto keys = random_floats(rng, key_len * dh, 1.0F);
          const auto values = random_floats(rng, key_len * dh, 1.0F);
          const auto q = random_floats(rng, dh, 1.0F);
          const auto bias = random_floats(rng, key_len, 1.0F);
          const auto rotated = random_floats(rng, key_len * dh, 1.0F);
          std::vector<cpu::KvSegmentView> segs;
          for (std::size_t first = 0; first < key_len; first += seg_rows) {
            const std::size_t count = std::min(seg_rows, key_len - first);
            segs.push_back({keys.data() + first * dh,
                            values.data() + first * dh, first, count});
          }
          std::vector<float> lrow(key_len), prow(key_len), ctx(dh);
          fn(segs.data(), segs.size(), q.data(), dh, 0.35F,
             with_bias ? bias.data() : nullptr,
             with_override ? rotated.data() : nullptr, lrow.data(),
             prow.data(), ctx.data(), key_len);
          h.add(lrow);
          h.add(prow);
          h.add(ctx);
        }
      }
    }
  }
  return h.digest();
}

/// attend_rows over hash_decode_attend's shapes, in calls of 2 to 4 rows:
/// row r sees key_len + r keys, with its own query, bias, logit,
/// probability and context rows.
std::uint64_t hash_attend_rows(cpu::CpuIsa isa) {
  const cpu::AttendRowsFn fn = cpu::attend_rows_stub.get(isa);
  Rng rng(6);
  Fnv h;
  for (const std::size_t dh :
       {2, 6, 8, 16, 24, 32, 40, 64, 96, 112, 128, 136, 264}) {
    for (const std::size_t key_len : {1, 7, 8, 9, 15, 16, 17, 33, 100}) {
      for (const std::size_t seg_rows : {key_len, std::size_t{3},
                                         std::size_t{16}}) {
        for (int c = 0; c < 12; ++c) {
          const std::size_t n_rows = 2 + static_cast<std::size_t>(c / 4);
          const bool with_bias = (c & 1) != 0;
          const bool with_override = (c & 2) != 0;
          const std::size_t total = key_len + n_rows - 1;
          const auto keys = random_floats(rng, total * dh, 1.0F);
          const auto values = random_floats(rng, total * dh, 1.0F);
          const auto q = random_floats(rng, n_rows * dh, 1.0F);
          const auto bias = random_floats(rng, n_rows * total, 1.0F);
          const auto rotated = random_floats(rng, total * dh, 1.0F);
          std::vector<cpu::KvSegmentView> segs;
          for (std::size_t first = 0; first < total; first += seg_rows) {
            const std::size_t count = std::min(seg_rows, total - first);
            segs.push_back({keys.data() + first * dh,
                            values.data() + first * dh, first, count});
          }
          // Each row's entries past its keys stay 0 and hash as such.
          std::vector<float> lrow(n_rows * total), prow(n_rows * total),
              ctx(n_rows * dh);
          fn(segs.data(), segs.size(), q.data(), dh, 0.35F,
             with_bias ? bias.data() : nullptr,
             with_override ? rotated.data() : nullptr, lrow.data(),
             prow.data(), total, ctx.data(), dh, key_len, n_rows);
          h.add(lrow);
          h.add(prow);
          h.add(ctx);
        }
      }
    }
  }
  return h.digest();
}

std::uint64_t hash_score_increments(cpu::CpuIsa isa) {
  const cpu::ScoreIncrementsFn fn = cpu::score_increments_stub.get(isa);
  Rng rng(5);
  Fnv h;
  for (const std::size_t n : kLengths) {
    for (int c = 0; c < 8; ++c) {
      const double tau = (c & 1) != 0 ? 1.37 : 1.0;
      const bool with_noise = (c & 2) != 0;
      const bool masked = (c & 4) != 0;
      auto logits = random_floats(rng, n, 3.0F);
      if (masked) {
        logits[n / 2] = -kInf;
        logits[n - 1] = -kInf;
      }
      std::vector<double> noise(n);
      for (double& z : noise) z = 0.5 * rng.gumbel();
      std::vector<double> out(n);
      fn(logits.data(), with_noise ? noise.data() : nullptr, out.data(), n,
         tau);
      h.add(out);
    }
    const std::vector<float> all_masked(n, -kInf);
    std::vector<double> out(n);
    fn(all_masked.data(), nullptr, out.data(), n, 1.0);
    h.add(out);
  }
  return h.digest();
}

constexpr std::size_t kDecodeSteps = 24;
// The engine line's workload: requests and the KV budget, in per-layer
// tokens summed over the active set.
constexpr std::size_t kEngineRequests = 8;
constexpr std::size_t kEngineTokens = 256;

/// One generation: prefill, then kDecodeSteps greedy steps, hashing every
/// logit row and the caches the policy leaves behind.
void hash_generation(model::Transformer& model,
                     const std::vector<model::Token>& prompt,
                     const kv::PolicyConfig& pc, double cache_ratio, Fnv& h) {
  const model::ModelConfig& cfg = model.config();
  auto policy = kv::make_policy(pc);
  policy->set_budget(kv::make_budget(prompt.size(), cache_ratio));
  policy->begin_sequence({prompt.size(), kDecodeSteps});
  kv::SequenceKvState state = model.make_kv_state();
  const Tensor prompt_logits = model.prefill(state, prompt, 0, *policy);
  h.add(prompt_logits.span());
  std::vector<model::Token> generated;
  model::Token next = model::select_greedy(prompt_logits.row(0), {}, 2.0F);
  for (std::size_t t = 1; t <= kDecodeSteps; ++t) {
    generated.push_back(next);
    const std::vector<float> logits =
        model.decode(state, next, prompt.size() + t - 1, t, *policy);
    h.add(logits);
    next = model::select_greedy(logits, generated, 2.0F);
  }
  for (std::size_t l = 0; l < cfg.n_layers; ++l) {
    const kv::KvCache& cache = state.layer(l);
    h.add(cache.original_positions());
    for (std::size_t head = 0; head < cfg.n_heads; ++head) {
      h.add(cache.scores(head));
      h.add(cache.noise(head));
    }
  }
  if (const auto* keyformer =
          dynamic_cast<const kv::KeyformerPolicy*>(policy.get())) {
    h.add(keyformer->shared_scores());
  }
}

/// The n-token prompt of every model run with an n-token prompt.
std::vector<model::Token> seeded_prompt(std::size_t n, std::size_t vocab) {
  Rng rng(n);
  std::vector<model::Token> prompt(n);
  for (model::Token& tok : prompt) {
    tok = static_cast<model::Token>(rng.uniform_u64(vocab));
  }
  return prompt;
}

/// The evicting policies of the model and engine lines: H2O, and
/// Keyformer with each logit adjustment in both score scopes; --quick
/// keeps Gumbel Keyformer per layer only.
std::vector<kv::PolicyConfig> evicting_policies(bool quick) {
  std::vector<kv::PolicyConfig> evicting;
  if (!quick) {
    kv::PolicyConfig h2o;
    h2o.kind = kv::PolicyKind::kH2O;
    evicting.push_back(h2o);
  }
  for (const auto adjustment :
       {kv::LogitAdjustment::kGumbel, kv::LogitAdjustment::kGaussian,
        kv::LogitAdjustment::kConstant, kv::LogitAdjustment::kNone}) {
    for (const auto scope :
         {kv::ScoreScope::kPerLayer, kv::ScoreScope::kShared}) {
      if (quick && (adjustment != kv::LogitAdjustment::kGumbel ||
                    scope != kv::ScoreScope::kPerLayer)) {
        continue;
      }
      kv::PolicyConfig keyformer;
      keyformer.kind = kv::PolicyKind::kKeyformer;
      keyformer.keyformer.score.adjustment = adjustment;
      keyformer.keyformer.scope = scope;
      evicting.push_back(keyformer);
    }
  }
  return evicting;
}

std::uint64_t hash_model(cpu::CpuIsa isa, bool quick) {
  cpu::set_isa_override(isa);
  std::vector<model::ModelConfig> families = {
      model::ModelConfig::gptj_like(), model::ModelConfig::cerebras_like(),
      model::ModelConfig::mpt_like()};
  std::vector<std::size_t> prompt_lens = {37, 300};
  if (quick) {
    families.resize(1);
    prompt_lens.resize(1);
  }
  // Full attention runs once per prompt and mode; every other policy at
  // each cache ratio.
  kv::PolicyConfig full;
  full.kind = kv::PolicyKind::kFull;
  const std::vector<kv::PolicyConfig> evicting = evicting_policies(quick);

  Fnv h;
  if (!quick) {
    model::ModelConfig short_table = model::ModelConfig::gptj_like();
    short_table.max_seq_len = 256;
    model::Transformer model(short_table);
    const auto prompt = seeded_prompt(300, short_table.vocab_size);
    kv::PolicyConfig gumbel;  // Keyformer's defaults: Gumbel, per layer
    gumbel.kind = kv::PolicyKind::kKeyformer;
    for (const auto mode :
         {model::PositionMode::kOriginal, model::PositionMode::kNew}) {
      model.set_position_mode(mode);
      hash_generation(model, prompt, full, 1.0, h);
      hash_generation(model, prompt, gumbel, 0.5, h);
    }
  }
  for (const model::ModelConfig& family : families) {
    model::Transformer model(family);
    for (const std::size_t prompt_len : prompt_lens) {
      const auto prompt = seeded_prompt(prompt_len, family.vocab_size);
      for (const auto mode :
           {model::PositionMode::kOriginal, model::PositionMode::kNew}) {
        model.set_position_mode(mode);
        hash_generation(model, prompt, full, 1.0, h);
        for (const kv::PolicyConfig& pc : evicting) {
          for (const double ratio : {0.2, 0.5}) {
            hash_generation(model, prompt, pc, ratio, h);
          }
        }
      }
    }
  }
  cpu::clear_isa_override();
  return h.digest();
}

/// One pressured serving run per policy of the model lines (full
/// attention first), through the public Engine API only.
std::uint64_t hash_engine(cpu::CpuIsa isa, bool quick) {
  cpu::set_isa_override(isa);
  const model::ModelConfig family = model::ModelConfig::gptj_like();
  const model::Transformer model(family);
  std::vector<kv::PolicyConfig> policies(1);
  policies[0].kind = kv::PolicyKind::kFull;
  for (const kv::PolicyConfig& pc : evicting_policies(quick)) {
    policies.push_back(pc);
  }
  Fnv h;
  for (const kv::PolicyConfig& pc : policies) {
    const bool full = pc.kind == kv::PolicyKind::kFull;
    std::vector<serve::Request> requests(kEngineRequests);
    for (std::size_t i = 0; i < requests.size(); ++i) {
      requests[i].id = i;
      requests[i].prompt = seeded_prompt(40 + 8 * i, family.vocab_size);
      requests[i].gen.max_new_tokens = 20;
      requests[i].gen.cache_ratio = full ? 1.0 : 0.5;
      requests[i].arrival_step = 2 * i;
    }
    serve::EngineConfig ec;
    ec.policy = pc;
    ec.paged.block_tokens = 16;
    ec.scheduler.max_concurrent_tokens = kEngineTokens;
    ec.preempt.queue_pressure_steps = 2;
    ec.preempt.min_victim_age_steps = 3;
    serve::Engine engine(model, ec);
    for (const serve::Response& r : engine.run(requests)) {
      h.add(r.tokens);
      h.add(r.final_cache_sizes);
      const kv::EvictionSummary& e = r.eviction;
      h.add(e.position_counts);
      const std::uint64_t counts[] = {static_cast<std::uint64_t>(r.finish),
                                      r.preemptions,    e.decisions,
                                      e.tokens_evicted, e.tokens_kept};
      h.add(counts);
      const double scores[] = {e.score_min, e.score_max, e.score_p10,
                               e.score_p50, e.score_p90};
      h.add(scores);
    }
    const serve::EngineStats st = engine.stats();
    const std::uint64_t stats[] = {st.steps, st.preemptions,
                                   st.resume_replayed_tokens,
                                   st.pool_peak_used_blocks,
                                   st.max_blocks_in_use};
    h.add(stats);
  }
  cpu::clear_isa_override();
  return h.digest();
}

void print_line(const std::string& label, std::uint64_t hash) {
  std::cout << label << ' ' << std::hex << std::setw(16) << std::setfill('0')
            << hash << std::dec << '\n';
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--quick") {
      quick = true;
    } else {
      std::cerr << "usage: bench_fingerprint [--quick]\n";
      return 2;
    }
  }
  const cpu::CpuIsa isas[] = {cpu::CpuIsa::kScalar, cpu::CpuIsa::kAvx2,
                              cpu::CpuIsa::kAvx512};
  for (const cpu::CpuIsa isa : isas) {
    if (!cpu::isa_available(isa)) continue;
    const std::string prefix = std::string("kernel ") + cpu::isa_name(isa);
    print_line(prefix + " matvec_rows", hash_matvec_rows(isa));
    print_line(prefix + " gemm_rows", hash_gemm_rows(isa));
    print_line(prefix + " softmax", hash_softmax(isa));
    print_line(prefix + " decode_attend", hash_decode_attend(isa));
    print_line(prefix + " attend_rows", hash_attend_rows(isa));
    print_line(prefix + " score_increments", hash_score_increments(isa));
  }
  for (const cpu::CpuIsa isa : isas) {
    if (!cpu::isa_available(isa)) continue;
    print_line(std::string("model ") + cpu::isa_name(isa),
               hash_model(isa, quick));
  }
  for (const cpu::CpuIsa isa : isas) {
    if (!cpu::isa_available(isa)) continue;
    print_line(std::string("engine ") + cpu::isa_name(isa),
               hash_engine(isa, quick));
  }
  return 0;
}
