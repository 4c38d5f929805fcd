// Per-ISA parity suite for the runtime-dispatched SIMD kernels
// (src/cpu): every variant the host/build provides must reproduce the
// scalar reference — element-wise at 1e-5-scale tolerances for the
// arithmetic kernels, exactly for max_value and the softmax masking
// contract, and end to end through attention and the full transformer
// (contiguous and paged caches, all eviction policies, all positional
// families). The suite is parameterized over CpuIsa; variants the host
// cannot run are GTEST_SKIPped, never silently passed.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "keyformer/keyformer.h"

namespace kf {
namespace {

constexpr float kInf = std::numeric_limits<float>::infinity();

/// Scoped dispatch override; restores the env/detected default on exit.
class IsaOverride {
 public:
  explicit IsaOverride(cpu::CpuIsa isa) { cpu::set_isa_override(isa); }
  ~IsaOverride() { cpu::clear_isa_override(); }
  IsaOverride(const IsaOverride&) = delete;
  IsaOverride& operator=(const IsaOverride&) = delete;
};

template <typename F>
auto under_isa(cpu::CpuIsa isa, F&& f) {
  const IsaOverride scoped(isa);
  return f();
}

std::vector<float> random_vec(Rng& rng, std::size_t n, float scale = 2.0F) {
  std::vector<float> v(n);
  for (auto& x : v) x = static_cast<float>(rng.normal()) * scale;
  return v;
}

/// Lengths straddling the vector widths: below one AVX2 lane-set, exact
/// multiples of 8 and 16, off-by-one tails on both sides, and long runs.
const std::size_t kLengths[] = {1,  2,  3,  5,  7,  8,   9,   15,  16, 17,
                                31, 32, 33, 63, 64, 65, 100, 257, 1000};

class SimdParity : public ::testing::TestWithParam<cpu::CpuIsa> {
 protected:
  void SetUp() override {
    if (!cpu::isa_available(GetParam())) {
      GTEST_SKIP() << cpu::isa_name(GetParam())
                   << " variants not available on this host/build";
    }
  }
};

TEST_P(SimdParity, DotMatchesScalar) {
  Rng rng(11);
  for (const std::size_t n : kLengths) {
    const auto a = random_vec(rng, n);
    const auto b = random_vec(rng, n);
    const float ref =
        under_isa(cpu::CpuIsa::kScalar, [&] { return dot(a, b); });
    const float got = under_isa(GetParam(), [&] { return dot(a, b); });
    // Error scales with the magnitude of the summed products, not the
    // result (cancellation can make the result tiny).
    double mag = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      mag += std::abs(static_cast<double>(a[i]) * b[i]);
    }
    EXPECT_NEAR(got, ref, 1e-5 * (1.0 + mag)) << "n=" << n;
  }
}

TEST_P(SimdParity, MatvecMatchesScalar) {
  Rng rng(12);
  const std::pair<std::size_t, std::size_t> shapes[] = {
      {1, 1}, {3, 5}, {7, 8}, {9, 17}, {33, 32}, {64, 33}, {128, 100}};
  for (const auto& [n, k] : shapes) {
    const auto a = random_vec(rng, n * k);
    const auto x = random_vec(rng, k);
    std::vector<float> ref(n), got(n);
    under_isa(cpu::CpuIsa::kScalar, [&] { matvec(a, x, ref, n, k); return 0; });
    under_isa(GetParam(), [&] { matvec(a, x, got, n, k); return 0; });
    for (std::size_t r = 0; r < n; ++r) {
      double mag = 0.0;
      for (std::size_t j = 0; j < k; ++j) {
        mag += std::abs(static_cast<double>(a[r * k + j]) * x[j]);
      }
      EXPECT_NEAR(got[r], ref[r], 1e-5 * (1.0 + mag))
          << n << "x" << k << " row " << r;
    }
  }
}

TEST_P(SimdParity, VecmatMatchesScalar) {
  Rng rng(13);
  const std::pair<std::size_t, std::size_t> shapes[] = {
      {1, 1}, {5, 3}, {8, 7}, {17, 9}, {32, 33}, {33, 64}, {100, 128}};
  for (const auto& [n, k] : shapes) {
    const auto a = random_vec(rng, n * k);
    const auto x = random_vec(rng, n);
    std::vector<float> ref(k), got(k);
    under_isa(cpu::CpuIsa::kScalar, [&] { vecmat(x, a, ref, n, k); return 0; });
    under_isa(GetParam(), [&] { vecmat(x, a, got, n, k); return 0; });
    for (std::size_t j = 0; j < k; ++j) {
      double mag = 0.0;
      for (std::size_t i = 0; i < n; ++i) {
        mag += std::abs(static_cast<double>(x[i]) * a[i * k + j]);
      }
      EXPECT_NEAR(got[j], ref[j], 1e-5 * (1.0 + mag))
          << n << "x" << k << " col " << j;
    }
  }
}

TEST_P(SimdParity, AxpyMatchesScalar) {
  Rng rng(14);
  for (const std::size_t n : kLengths) {
    const auto x = random_vec(rng, n);
    const auto y0 = random_vec(rng, n);
    std::vector<float> ref = y0, got = y0;
    under_isa(cpu::CpuIsa::kScalar, [&] { axpy(0.37F, x, ref); return 0; });
    under_isa(GetParam(), [&] { axpy(0.37F, x, got); return 0; });
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_NEAR(got[i], ref[i], 1e-5F * (1.0F + std::abs(ref[i])))
          << "n=" << n << " i=" << i;
    }
  }
}

TEST_P(SimdParity, MaxValueMatchesScalarExactly) {
  Rng rng(15);
  for (const std::size_t n : kLengths) {
    auto x = random_vec(rng, n);
    const float ref =
        under_isa(cpu::CpuIsa::kScalar, [&] { return max_value(x); });
    const float got = under_isa(GetParam(), [&] { return max_value(x); });
    EXPECT_EQ(got, ref) << "n=" << n;
    // Masked logits are the common caller: -inf entries must not perturb
    // the maximum (and an all--inf row must return exactly -inf).
    if (n >= 3) {
      x[0] = -kInf;
      x[n / 2] = -kInf;
      EXPECT_EQ(under_isa(GetParam(), [&] { return max_value(x); }),
                under_isa(cpu::CpuIsa::kScalar, [&] { return max_value(x); }))
          << "n=" << n << " with -inf entries";
    }
  }
  const std::vector<float> all_masked(9, -kInf);
  EXPECT_EQ(under_isa(GetParam(), [&] { return max_value(all_masked); }),
            -kInf);
}

TEST_P(SimdParity, LogsumexpMatchesScalar) {
  Rng rng(16);
  for (const std::size_t n : kLengths) {
    const auto x = random_vec(rng, n, 3.0F);
    const double ref =
        under_isa(cpu::CpuIsa::kScalar, [&] { return logsumexp(x); });
    const double got = under_isa(GetParam(), [&] { return logsumexp(x); });
    EXPECT_NEAR(got, ref, 1e-5 * (1.0 + std::abs(ref))) << "n=" << n;
  }
  // All--inf rows have no finite logsumexp; whatever non-finite value the
  // scalar reference produces, the variants must reproduce its class.
  const std::vector<float> all_masked(11, -kInf);
  const double ref =
      under_isa(cpu::CpuIsa::kScalar, [&] { return logsumexp(all_masked); });
  const double got =
      under_isa(GetParam(), [&] { return logsumexp(all_masked); });
  EXPECT_EQ(std::isnan(got), std::isnan(ref));
  if (!std::isnan(ref)) {
    EXPECT_EQ(got, ref);
  }
}

TEST_P(SimdParity, SoftmaxMatchesScalar) {
  Rng rng(17);
  for (const std::size_t n : kLengths) {
    const auto x = random_vec(rng, n, 3.0F);
    std::vector<float> ref(n), got(n);
    for (const double tau : {1.0, 0.5, 2.3}) {
      under_isa(cpu::CpuIsa::kScalar,
                [&] { softmax_temperature(x, ref, tau); return 0; });
      under_isa(GetParam(),
                [&] { softmax_temperature(x, got, tau); return 0; });
      double sum = 0.0;
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_NEAR(got[i], ref[i], 1e-5F)
            << "n=" << n << " tau=" << tau << " i=" << i;
        sum += got[i];
      }
      EXPECT_NEAR(sum, 1.0, 1e-4) << "n=" << n << " tau=" << tau;
    }
    // Plain softmax is the tau == 1 case of the same kernel; spot-check
    // the public entry point too.
    under_isa(cpu::CpuIsa::kScalar, [&] { softmax(x, ref); return 0; });
    under_isa(GetParam(), [&] { softmax(x, got); return 0; });
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_NEAR(got[i], ref[i], 1e-5F) << "n=" << n << " i=" << i;
    }
  }
}

TEST_P(SimdParity, SoftmaxMaskedEntriesAreExactZeros) {
  // The eviction policies test probs == 0.0F to recognize masked slots, so
  // -inf logits must map to exact zeros in every variant — including -inf
  // lanes inside a full vector and in the scalar tail.
  Rng rng(18);
  for (const std::size_t n : kLengths) {
    if (n < 5) continue;  // three masked slots must leave live entries
    auto x = random_vec(rng, n, 3.0F);
    x[0] = -kInf;
    x[n / 2] = -kInf;
    x[n - 1] = -kInf;
    std::vector<float> out(n, 7.0F);
    under_isa(GetParam(), [&] { softmax(x, out); return 0; });
    EXPECT_EQ(out[0], 0.0F) << "n=" << n;
    EXPECT_EQ(out[n / 2], 0.0F) << "n=" << n;
    EXPECT_EQ(out[n - 1], 0.0F) << "n=" << n;
    double sum = 0.0;
    for (const float v : out) sum += v;
    EXPECT_NEAR(sum, 1.0, 1e-4) << "n=" << n;
  }
}

TEST_P(SimdParity, SoftmaxAllMaskedRowIsAllZeros) {
  for (const std::size_t n : {1U, 7U, 8U, 9U, 33U}) {
    const std::vector<float> x(n, -kInf);
    std::vector<float> out(n, 7.0F);
    under_isa(GetParam(), [&] { softmax(x, out); return 0; });
    for (const float v : out) EXPECT_EQ(v, 0.0F) << "n=" << n;
    under_isa(GetParam(),
              [&] { softmax_temperature(x, out, 1.7); return 0; });
    for (const float v : out) EXPECT_EQ(v, 0.0F) << "n=" << n;
  }
}

TEST_P(SimdParity, SoftmaxSupportsAliasedInputOutput) {
  // softmax(x, x) — the in-place form some callers use. The variants read
  // the whole input before the first store per pass, so aliasing must
  // give the same answer as the out-of-place call.
  Rng rng(19);
  for (const std::size_t n : kLengths) {
    const auto x = random_vec(rng, n, 3.0F);
    std::vector<float> ref(n);
    under_isa(cpu::CpuIsa::kScalar, [&] { softmax(x, ref); return 0; });
    std::vector<float> inplace = x;
    under_isa(GetParam(), [&] { softmax(inplace, inplace); return 0; });
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_NEAR(inplace[i], ref[i], 1e-5F) << "n=" << n << " i=" << i;
    }
    std::vector<float> inplace_t = x;
    under_isa(cpu::CpuIsa::kScalar,
              [&] { softmax_temperature(x, ref, 0.8); return 0; });
    under_isa(GetParam(), [&] {
      softmax_temperature(inplace_t, inplace_t, 0.8);
      return 0;
    });
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_NEAR(inplace_t[i], ref[i], 1e-5F) << "n=" << n << " i=" << i;
    }
  }
}

model::ModelConfig tiny_config(model::PositionalKind pos) {
  model::ModelConfig cfg;
  cfg.vocab_size = 64;
  cfg.d_model = 16;
  cfg.n_layers = 2;
  cfg.n_heads = 2;
  cfg.d_ff = 32;
  cfg.positional = pos;
  cfg.max_seq_len = 128;
  return cfg;
}

std::vector<model::Token> make_prompt(std::size_t n) {
  std::vector<model::Token> p(n);
  for (std::size_t i = 0; i < n; ++i) {
    p[i] = static_cast<model::Token>((i * 7 + 5) % 64);
  }
  return p;
}

/// One fused decode attention step over a deterministically filled cache.
model::AttentionResult attend_once(const model::ModelConfig& cfg,
                                   kv::KvCache& cache, std::size_t ctx) {
  const model::ModelWeights w = model::build_weights(cfg);
  Rng rng(21);
  std::vector<float> row(cache.row_width());
  for (std::size_t i = 0; i < ctx; ++i) {
    for (float& v : row) v = static_cast<float>(rng.normal());
    cache.append(row, row, i);
  }
  Tensor x({1, cfg.d_model});
  for (float& v : x.span()) v = static_cast<float>(rng.normal());
  const model::DecodeBatchSlot slot{ctx, &cache};
  return std::move(
      model::attention_decode_batch(cfg, w.layers[0], x, {&slot, 1}).front());
}

void expect_attention_parity(const model::AttentionResult& got,
                             const model::AttentionResult& ref) {
  ASSERT_EQ(got.context.size(), ref.context.size());
  for (std::size_t i = 0; i < ref.context.size(); ++i) {
    EXPECT_NEAR(got.context.span()[i], ref.context.span()[i],
                1e-5F * (1.0F + std::abs(ref.context.span()[i])))
        << "context " << i;
  }
  ASSERT_EQ(got.probs.size(), ref.probs.size());
  for (std::size_t i = 0; i < ref.probs.size(); ++i) {
    EXPECT_NEAR(got.probs.span()[i], ref.probs.span()[i], 1e-5F)
        << "prob " << i;
  }
}

TEST_P(SimdParity, FusedDecodeAttendMatchesScalarContiguous) {
  for (const auto pos : {model::PositionalKind::kRoPE,
                         model::PositionalKind::kALiBi,
                         model::PositionalKind::kLearned}) {
    const model::ModelConfig cfg = tiny_config(pos);
    // 37 rows: two full 16-token segments plus an odd tail under the
    // paged geometry below, and an odd key_len here.
    const std::size_t ctx = 37;
    const auto ref = under_isa(cpu::CpuIsa::kScalar, [&] {
      kv::ContiguousKvCache cache(cfg.n_heads, cfg.d_head(), ctx + 1);
      return attend_once(cfg, cache, ctx);
    });
    const auto got = under_isa(GetParam(), [&] {
      kv::ContiguousKvCache cache(cfg.n_heads, cfg.d_head(), ctx + 1);
      return attend_once(cfg, cache, ctx);
    });
    SCOPED_TRACE(model::to_string(pos));
    expect_attention_parity(got, ref);
  }
}

TEST_P(SimdParity, FusedDecodeAttendMatchesScalarPaged) {
  const model::ModelConfig cfg = tiny_config(model::PositionalKind::kRoPE);
  mem::BlockPoolConfig pc;
  pc.n_shards = 1;
  pc.block_tokens = 16;
  pc.n_heads = cfg.n_heads;
  pc.d_head = cfg.d_head();
  const std::size_t ctx = 37;  // 2 full blocks + a 5-row tail
  mem::BlockPool pool_ref(pc), pool_got(pc);
  const auto ref = under_isa(cpu::CpuIsa::kScalar, [&] {
    mem::PagedKvCache cache(pool_ref, 0);
    return attend_once(cfg, cache, ctx);
  });
  const auto got = under_isa(GetParam(), [&] {
    mem::PagedKvCache cache(pool_got, 0);
    return attend_once(cfg, cache, ctx);
  });
  expect_attention_parity(got, ref);
}

TEST_P(SimdParity, TransformerEndToEndMatchesScalar) {
  // Full-stack parity: prefill + 4 decode steps with live eviction, over
  // every policy x positional family, run once under the scalar dispatch
  // and once under the parameter ISA. Policies are re-seeded per run, so
  // score noise is identical and only kernel arithmetic differs.
  const kv::PolicyKind policies[] = {
      kv::PolicyKind::kFull,         kv::PolicyKind::kWindow,
      kv::PolicyKind::kRandom,       kv::PolicyKind::kStreamingLLM,
      kv::PolicyKind::kH2O,          kv::PolicyKind::kKeyformer};
  const model::PositionalKind positions[] = {model::PositionalKind::kRoPE,
                                             model::PositionalKind::kALiBi,
                                             model::PositionalKind::kLearned};
  const auto prompt = make_prompt(16);
  for (const auto pos : positions) {
    for (const auto kind : policies) {
      const auto run = [&](cpu::CpuIsa isa) {
        return under_isa(isa, [&] {
          model::Transformer m(tiny_config(pos));
          kv::PolicyConfig pc;
          pc.kind = kind;
          pc.seed = 99;
          pc.keyformer.score.seed = 99;
          const auto policy = kv::make_policy(pc);
          policy->set_budget(kv::make_budget(prompt.size(), 0.5));
          kv::SequenceInfo info;
          info.prompt_len = prompt.size();
          info.total_steps = 4;
          info.n_layers = 2;
          info.n_heads = 2;
          policy->begin_sequence(info);
          m.prefill(prompt, *policy, 4);
          std::vector<std::vector<float>> steps;
          for (std::size_t t = 1; t <= 4; ++t) {
            steps.push_back(m.decode(static_cast<model::Token>(t),
                                     prompt.size() + t - 1, t, 4, *policy));
          }
          return steps;
        });
      };
      const auto ref = run(cpu::CpuIsa::kScalar);
      const auto got = run(GetParam());
      ASSERT_EQ(got.size(), ref.size());
      for (std::size_t t = 0; t < ref.size(); ++t) {
        ASSERT_EQ(got[t].size(), ref[t].size());
        for (std::size_t i = 0; i < ref[t].size(); ++i) {
          EXPECT_NEAR(got[t][i], ref[t][i], 1e-4F)
              << to_string(kind) << "/" << model::to_string(pos) << " step "
              << t << " logit " << i;
        }
      }
    }
  }
}

TEST_P(SimdParity, TransformerPagedStateMatchesScalar) {
  // Same end-to-end check through a caller-owned paged state: the fused
  // attend streams multi-segment block chains instead of one arena.
  const model::ModelConfig cfg = tiny_config(model::PositionalKind::kRoPE);
  const auto prompt = make_prompt(16);
  const auto run = [&](cpu::CpuIsa isa) {
    return under_isa(isa, [&] {
      mem::BlockPoolConfig pc;
      pc.n_shards = 1;
      pc.block_tokens = 4;  // multi-block chains from a 16-token prompt
      pc.n_heads = cfg.n_heads;
      pc.d_head = cfg.d_head();
      mem::BlockPool pool(pc);
      model::Transformer m(cfg);
      kv::SequenceKvState state(pool, 0, cfg.n_layers);
      kv::KeyformerPolicy policy;
      policy.set_budget(kv::make_budget(prompt.size(), 0.5));
      kv::SequenceInfo info;
      info.prompt_len = prompt.size();
      info.total_steps = 4;
      info.n_layers = cfg.n_layers;
      info.n_heads = cfg.n_heads;
      policy.begin_sequence(info);
      m.prefill(state, prompt, policy, 4);
      std::vector<std::vector<float>> steps;
      for (std::size_t t = 1; t <= 4; ++t) {
        steps.push_back(m.decode(state, static_cast<model::Token>(t),
                                 prompt.size() + t - 1, t, 4, policy));
      }
      return steps;
    });
  };
  const auto ref = run(cpu::CpuIsa::kScalar);
  const auto got = run(GetParam());
  ASSERT_EQ(got.size(), ref.size());
  for (std::size_t t = 0; t < ref.size(); ++t) {
    for (std::size_t i = 0; i < ref[t].size(); ++i) {
      EXPECT_NEAR(got[t][i], ref[t][i], 1e-4F)
          << "step " << t << " logit " << i;
    }
  }
}

TEST_P(SimdParity, StepBatchRowMatchesSoloDecodeBitwise) {
  // Batch invariance under the parameter ISA: sequence S's row of a
  // step_batch must equal its solo decode() logits bit for bit, whatever
  // companions share the batch and whichever slot S occupies. Keyformer
  // eviction is live, so the check also covers compacted caches.
  const IsaOverride scoped(GetParam());
  constexpr std::size_t kSteps = 3;
  for (const auto pos : {model::PositionalKind::kRoPE,
                         model::PositionalKind::kALiBi,
                         model::PositionalKind::kLearned}) {
    const model::ModelConfig cfg = tiny_config(pos);
    model::Transformer m(cfg);

    struct Seq {
      std::vector<model::Token> prompt;
      kv::SequenceKvState state;
      kv::KeyformerPolicy policy;
    };
    // Sequence `id` has its own prompt (length and tokens), prefilled.
    const auto start = [&](std::size_t id) {
      auto seq = std::make_unique<Seq>();
      seq->prompt = make_prompt(12 + 3 * (id % 5));
      for (auto& tok : seq->prompt) {
        tok = static_cast<model::Token>((tok + 11 * id) % cfg.vocab_size);
      }
      seq->state = m.make_kv_state();
      seq->policy.set_budget(kv::make_budget(seq->prompt.size(), 0.5));
      kv::SequenceInfo info;
      info.prompt_len = seq->prompt.size();
      info.total_steps = kSteps;
      info.n_layers = cfg.n_layers;
      info.n_heads = cfg.n_heads;
      seq->policy.begin_sequence(info);
      m.prefill(seq->state, seq->prompt, seq->policy, kSteps);
      return seq;
    };
    const auto token_at = [&](std::size_t id, std::size_t t) {
      return static_cast<model::Token>((5 * t + 3 * id + 1) % cfg.vocab_size);
    };

    // Solo reference for sequence 0.
    std::vector<std::vector<float>> solo;
    {
      const auto s = start(0);
      for (std::size_t t = 1; t <= kSteps; ++t) {
        solo.push_back(m.decode(s->state, token_at(0, t),
                                s->prompt.size() + t - 1, t, kSteps,
                                s->policy));
      }
    }

    // Sequence 0 in batches of 1, 2 and 5, at a different slot each time,
    // with companions that differ between batches.
    for (const std::size_t batch : {1, 2, 5}) {
      const std::size_t s_slot = batch / 2;
      std::vector<std::unique_ptr<Seq>> seqs;
      std::vector<std::size_t> ids;
      for (std::size_t b = 0; b < batch; ++b) {
        ids.push_back(b == s_slot ? 0 : 10 * batch + b);
        seqs.push_back(start(ids.back()));
      }
      for (std::size_t t = 1; t <= kSteps; ++t) {
        std::vector<model::DecodeSlot> slots(batch);
        for (std::size_t b = 0; b < batch; ++b) {
          slots[b] = {token_at(ids[b], t), seqs[b]->prompt.size() + t - 1, t,
                      kSteps, &seqs[b]->state, &seqs[b]->policy};
        }
        const Tensor logits = m.step_batch(slots);
        const auto row = logits.row(s_slot);
        ASSERT_EQ(row.size(), solo[t - 1].size());
        for (std::size_t i = 0; i < row.size(); ++i) {
          EXPECT_EQ(row[i], solo[t - 1][i])
              << model::to_string(pos) << " batch " << batch << " step " << t
              << " logit " << i;
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllIsas, SimdParity,
    ::testing::Values(cpu::CpuIsa::kScalar, cpu::CpuIsa::kAvx2,
                      cpu::CpuIsa::kAvx512),
    [](const ::testing::TestParamInfo<cpu::CpuIsa>& info) {
      return std::string(cpu::isa_name(info.param));
    });

}  // namespace
}  // namespace kf
