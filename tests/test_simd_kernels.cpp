// Per-ISA parity suite for the runtime-dispatched SIMD kernels
// (src/cpu): every variant the host/build provides must reproduce the
// scalar reference — element-wise at 1e-5-scale tolerances for the
// arithmetic kernels, exactly for the softmax masking contract, bit for
// bit between a GEMM row and the same row computed alone and between the
// scalar score kernel and its historical loop, and end to end through
// attention and the full transformer (one-segment and multi-block
// caches, all eviction policies, all positional families). The suite is
// parameterized over CpuIsa; variants the host cannot run are
// GTEST_SKIPped, never silently passed.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "cpu/kernels.h"
#include "gemm_reference.h"
#include "keyformer/keyformer.h"
#include "score_reference.h"

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

/// Every gemm_rows epilogue form.
const cpu::Epilogue kEpilogues[] = {cpu::Epilogue::kStore,
                                    cpu::Epilogue::kBiasGelu,
                                    cpu::Epilogue::kBiasAccumulate};

const char* epilogue_name(cpu::Epilogue form) {
  switch (form) {
    case cpu::Epilogue::kStore: return "store";
    case cpu::Epilogue::kBiasGelu: return "bias_gelu";
    case cpu::Epilogue::kBiasAccumulate: return "bias_accumulate";
  }
  return "?";
}

class SimdParity : public ::testing::TestWithParam<cpu::CpuIsa> {
 protected:
  void SetUp() override {
    if (!cpu::isa_available(GetParam())) {
      GTEST_SKIP() << cpu::isa_name(GetParam())
                   << " variants not available on this host/build";
    }
  }
};

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

TEST_P(SimdParity, GemmRowsMatchesScalar) {
  // Every tail path of the blocked kernels: m below, at and past the
  // 4-row register block; n below one vector, at the AVX2 and AVX-512
  // widths, and past the 16/32-column blocks with vector and scalar
  // tails; k = 1 up to the model's widths.
  Rng rng(13);
  for (const std::size_t m : {1, 2, 3, 4, 5, 9}) {
    for (const std::size_t n : {1, 7, 8, 16, 33, 40, 128, 256}) {
      for (const std::size_t k : {1, 3, 128, 256}) {
        const auto a = random_vec(rng, m * k);
        const auto b = random_vec(rng, k * n);
        std::vector<float> ref(m * n), got(m * n);
        under_isa(cpu::CpuIsa::kScalar,
                  [&] { matmul(a, b, ref, m, k, n); return 0; });
        under_isa(GetParam(), [&] { matmul(a, b, got, m, k, n); return 0; });
        for (std::size_t i = 0; i < m; ++i) {
          for (std::size_t j = 0; j < n; ++j) {
            double mag = 0.0;
            for (std::size_t kk = 0; kk < k; ++kk) {
              mag += std::abs(static_cast<double>(a[i * k + kk]) *
                              b[kk * n + j]);
            }
            EXPECT_NEAR(got[i * n + j], ref[i * n + j], 1e-5 * (1.0 + mag))
                << m << "x" << k << "x" << n << " at " << i << "," << j;
          }
        }
      }
    }
  }
}

TEST_P(SimdParity, GemmEpilogueMatchesScalar) {
  // Every epilogue form at m = 1..9 on {k, n} shapes that hit the row and
  // column tails (n = 7 and 257 leave scalar column tails on every wide
  // variant) and the model's MLP and LM-head widths. The scalar variant
  // equals the unfused loops (gemm_reference.h) bit for bit. A wide
  // variant stays within the GEMM's 1e-5 budget of them; its store and
  // residual forms equal the loops over its own product bit for bit, and
  // its GELU stays within 1e-6 * (1 + |ref|) of the loops' GELU of its
  // own product. Inputs are scaled so pre-activations spread over GELU's
  // curved range (standard deviation about 3).
  constexpr std::size_t kMaxRows = 9;
  Rng rng(22);
  const std::pair<std::size_t, std::size_t> shapes[] = {  // {k, n}
      {3, 7}, {33, 257}, {128, 256}, {256, 128}, {128, 512}};
  for (const auto& [k, n] : shapes) {
    const auto scale =
        static_cast<float>(std::pow(9.0 / static_cast<double>(k), 0.25));
    const auto a = random_vec(rng, kMaxRows * k, scale);
    const auto b = random_vec(rng, k * n, scale);
    const auto bias = random_vec(rng, n, 1.0F);
    const auto x = random_vec(rng, kMaxRows * n, 1.0F);  // C's prior values
    std::vector<double> mag(kMaxRows * n, 0.0);  // sum over k of |a * b|
    for (std::size_t i = 0; i < kMaxRows; ++i) {
      for (std::size_t kk = 0; kk < k; ++kk) {
        for (std::size_t j = 0; j < n; ++j) {
          mag[i * n + j] +=
              std::abs(static_cast<double>(a[i * k + kk]) * b[kk * n + j]);
        }
      }
    }
    for (std::size_t m = 1; m <= kMaxRows; ++m) {
      const std::span<const float> am(a.data(), m * k);
      std::vector<float> prod_ref(m * n), prod_got(m * n);
      under_isa(cpu::CpuIsa::kScalar,
                [&] { matmul(am, b, prod_ref, m, k, n); return 0; });
      under_isa(GetParam(),
                [&] { matmul(am, b, prod_got, m, k, n); return 0; });
      for (const cpu::Epilogue form : kEpilogues) {
        SCOPED_TRACE("k=" + std::to_string(k) + " n=" + std::to_string(n) +
                     " m=" + std::to_string(m) + " " + epilogue_name(form));
        std::vector<float> oracle(x.begin(), x.begin() + m * n);
        std::vector<float> own = oracle;
        std::vector<float> ref = oracle;
        std::vector<float> got = oracle;
        reference::epilogue(form, prod_ref, bias, oracle, m, n);
        reference::epilogue(form, prod_got, bias, own, m, n);
        under_isa(cpu::CpuIsa::kScalar,
                  [&] { matmul(am, b, ref, m, k, n, form, bias); return 0; });
        under_isa(GetParam(),
                  [&] { matmul(am, b, got, m, k, n, form, bias); return 0; });
        for (std::size_t e = 0; e < m * n; ++e) {
          const std::size_t j = e % n;
          ASSERT_EQ(ref[e], oracle[e]) << "row " << e / n << " col " << j;
          double budget = 1.0 + mag[e];
          if (form != cpu::Epilogue::kStore) budget += std::abs(bias[j]);
          if (form == cpu::Epilogue::kBiasAccumulate) budget += std::abs(x[e]);
          ASSERT_NEAR(got[e], oracle[e], 1e-5 * budget)
              << "row " << e / n << " col " << j;
          if (form == cpu::Epilogue::kBiasGelu) {
            ASSERT_NEAR(got[e], own[e], 1e-6 * (1.0 + std::abs(own[e])))
                << "row " << e / n << " col " << j;
          } else {
            ASSERT_EQ(got[e], own[e]) << "row " << e / n << " col " << j;
          }
        }
      }
    }
  }
}

TEST_P(SimdParity, GemmRowBitsIndependentOfRowCount) {
  // The batching contract, for every epilogue form: under one ISA a row's
  // bits never depend on the rows sharing its product — not on m, not on
  // how rows fall into register blocks, and not on the [m0, m1) ranges a
  // thread split hands the kernel (m = 9 at k = 256, n = 128 crosses
  // matmul's threshold). Rows outside [m0, m1) stay untouched, the
  // residual form's included.
  const IsaOverride scoped(GetParam());
  const cpu::GemmRowsFn rows = cpu::gemm_rows_stub.get();
  constexpr std::size_t kMaxRows = 9;
  constexpr float kUntouched = 7.0F;
  Rng rng(20);
  const std::pair<std::size_t, std::size_t> shapes[] = {  // {k, n}
      {3, 7}, {128, 40}, {128, 128}, {256, 128}, {128, 256}, {33, 257}};
  for (const auto& [k, n] : shapes) {
    const auto a = random_vec(rng, kMaxRows * k);
    const auto b = random_vec(rng, k * n);
    const auto bias = random_vec(rng, n);
    const auto x = random_vec(rng, kMaxRows * n);  // C's prior values
    for (const cpu::Epilogue form : kEpilogues) {
      SCOPED_TRACE(epilogue_name(form));
      std::vector<float> solo = x;
      for (std::size_t i = 0; i < kMaxRows; ++i) {
        matmul({a.data() + i * k, k}, b, {solo.data() + i * n, n}, 1, k, n,
               form, bias);
      }
      for (std::size_t m = 1; m <= kMaxRows; ++m) {
        std::vector<float> c(x.begin(), x.begin() + m * n);
        matmul(a, b, c, m, k, n, form, bias);
        for (std::size_t e = 0; e < m * n; ++e) {
          EXPECT_EQ(c[e], solo[e]) << "k=" << k << " n=" << n << " m=" << m
                                   << " row " << e / n << " col " << e % n;
        }
      }
      const std::pair<std::size_t, std::size_t> ranges[] = {
          {1, 6}, {3, 8}, {5, 9}, {7, 8}, {1, 2}, {0, 9}};
      for (const auto& [m0, m1] : ranges) {
        std::vector<float> c(kMaxRows * n, kUntouched);
        std::copy(x.begin() + m0 * n, x.begin() + m1 * n, c.begin() + m0 * n);
        rows(a.data(), b.data(), c.data(), m0, m1, k, n, form, bias.data());
        for (std::size_t e = 0; e < kMaxRows * n; ++e) {
          const std::size_t i = e / n;
          const float want = i >= m0 && i < m1 ? solo[e] : kUntouched;
          EXPECT_EQ(c[e], want) << "k=" << k << " n=" << n << " rows [" << m0
                                << ", " << m1 << ") row " << i << " col "
                                << e % n;
        }
      }
    }
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

TEST_P(SimdParity, ScoreIncrementsMatchesScalar) {
  // Keyformer's score kernel. The scalar variant is the historical loop
  // bit for bit (score_reference.h). A wide variant evaluates exp in
  // float, so each element is held to a relative budget of 1e-5 against
  // scalar, plus an absolute 1e-37 for entries below float exp's
  // underflow cutoff, which are exactly 0 there and under 1.2e-38 in
  // scalar. Masked (-inf) entries are exactly 0 in every variant.
  const cpu::ScoreIncrementsFn scalar =
      cpu::score_increments_stub.get(cpu::CpuIsa::kScalar);
  const cpu::ScoreIncrementsFn variant =
      cpu::score_increments_stub.get(GetParam());
  Rng rng(21);
  for (const std::size_t n : {1, 7, 8, 15, 16, 17, 33, 398, 1023}) {
    // Cases: tau 1.0 or 1.37, with or without a noise row, with or
    // without masked entries.
    for (int c = 0; c < 8; ++c) {
      SCOPED_TRACE("n=" + std::to_string(n) + " case=" + std::to_string(c));
      const double tau = (c & 1) != 0 ? 1.37 : 1.0;
      const bool with_noise = (c & 2) != 0;
      const bool masked = (c & 4) != 0 && n >= 3;
      auto logits = random_vec(rng, n, 3.0F);
      std::vector<double> noise;
      for (std::size_t i = 0; with_noise && i < n; ++i) {
        noise.push_back(0.5 * rng.gumbel());
      }
      std::vector<std::size_t> masked_at;
      if (masked) masked_at = {0, n / 2, n - 1};
      for (const std::size_t i : masked_at) logits[i] = -kInf;
      const double* noise_ptr = with_noise ? noise.data() : nullptr;

      std::vector<double> oracle(n), ref(n), got(n);
      kv::reference::score_increments(logits, noise, tau, oracle);
      scalar(logits.data(), noise_ptr, ref.data(), n, tau);
      variant(logits.data(), noise_ptr, got.data(), n, tau);
      double sum = 0.0;
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(ref[i], oracle[i]) << "i=" << i;
        EXPECT_NEAR(got[i], ref[i], 1e-5 * ref[i] + 1e-37) << "i=" << i;
        sum += got[i];
      }
      EXPECT_NEAR(sum, 1.0, 1e-12);
      for (const std::size_t i : masked_at) EXPECT_EQ(got[i], 0.0) << i;
      if (with_noise) {  // noise == out aliasing, which the contract allows
        std::vector<double> aliased = noise;
        variant(logits.data(), aliased.data(), aliased.data(), n, tau);
        EXPECT_EQ(aliased, got);
      }
    }
  }
  for (const std::size_t n : {1, 7, 8, 17, 398}) {
    const std::vector<float> all_masked(n, -kInf);
    const std::vector<double> noise(n, 0.25);
    std::vector<double> out(n, 7.0);
    variant(all_masked.data(), noise.data(), out.data(), n, 1.37);
    EXPECT_EQ(out, std::vector<double>(n, 0.0)) << "n=" << n;
    std::fill(out.begin(), out.end(), 7.0);
    variant(all_masked.data(), nullptr, out.data(), n, 1.0);
    EXPECT_EQ(out, std::vector<double>(n, 0.0)) << "n=" << n;
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
  const model::AttentionRun run{{&ctx, 1}, &cache};
  auto results =
      model::self_attention(cfg, w.layers[0], w.rope, x, {&run, 1},
                            model::Phase::kDecode, model::Internals::kKeep);
  return std::move(results.front());
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
    // 37 rows: one segment per head in a private pool's 64-token blocks,
    // two full 16-token segments plus an odd tail in the paged case below.
    const std::size_t ctx = 37;
    const auto ref = under_isa(cpu::CpuIsa::kScalar, [&] {
      kv::SequenceKvState state(1, cfg.n_heads, cfg.d_head());
      return attend_once(cfg, state.layer(0), ctx);
    });
    const auto got = under_isa(GetParam(), [&] {
      kv::SequenceKvState state(1, cfg.n_heads, cfg.d_head());
      return attend_once(cfg, state.layer(0), ctx);
    });
    SCOPED_TRACE(model::to_string(pos));
    expect_attention_parity(got, ref);
  }
}

TEST_P(SimdParity, FusedDecodeAttendMatchesScalarPaged) {
  const model::ModelConfig cfg = tiny_config(model::PositionalKind::kRoPE);
  mem::BlockPoolConfig pc;
  pc.block_tokens = 16;
  pc.n_heads = cfg.n_heads;
  pc.d_head = cfg.d_head();
  const std::size_t ctx = 37;  // 2 full blocks + a 5-row tail
  mem::BlockPool pool_ref(pc), pool_got(pc);
  const auto ref = under_isa(cpu::CpuIsa::kScalar, [&] {
    kv::KvCache cache(pool_ref);
    return attend_once(cfg, cache, ctx);
  });
  const auto got = under_isa(GetParam(), [&] {
    kv::KvCache cache(pool_got);
    return attend_once(cfg, cache, ctx);
  });
  expect_attention_parity(got, ref);
}

TEST_P(SimdParity, DecodeAttendMatchesScalarAtServedHeadWidths) {
  // The attend and transformer cases here run tiny_config's d_head 8,
  // under one AVX-512 vector. This calls each variant's decode_attend
  // directly at the served head widths (mpt_like's 16, gptj_like's 32) and
  // around them, so the key dots and the register-held context run their
  // full-vector loops, through segment streams and keys_override (the
  // RoPE + kNew path) alike, against the scalar variant. The widths after
  // 64 fill, cross or stop short of a context chunk and leave scalar
  // tails on both vector widths. Each segment has its own buffer, as
  // paged blocks do.
  const cpu::DecodeAttendFn scalar =
      cpu::decode_attend_stub.get(cpu::CpuIsa::kScalar);
  const cpu::DecodeAttendFn variant = cpu::decode_attend_stub.get(GetParam());
  Rng rng(33);
  for (const std::size_t dh : {8, 16, 24, 32, 64, 2, 6, 40, 96, 128, 264}) {
    // The variants sum each key's dot in different orders, and a float
    // dot's rounding grows with its length, so past 64 the 1e-5 budget
    // grows as sqrt(dh / 64) (the worst context error measured over 40
    // seeds stays near half the budget at every width up to 512).
    const float budget =
        1e-5F * std::max(1.0F, std::sqrt(static_cast<float>(dh) / 64.0F));
    for (const std::size_t key_len :
         {1, 7, 8, 9, 15, 16, 17, 33, 100, 257}) {
      for (const std::size_t seg_rows :
           {key_len, std::size_t{3}, std::size_t{16}}) {
        for (int c = 0; c < 4; ++c) {
          const bool with_bias = (c & 1) != 0;
          const bool with_override = (c & 2) != 0;
          SCOPED_TRACE("dh=" + std::to_string(dh) +
                       " key_len=" + std::to_string(key_len) +
                       " seg_rows=" + std::to_string(seg_rows) +
                       " bias=" + std::to_string(with_bias) +
                       " keys_override=" + std::to_string(with_override));
          std::vector<std::vector<float>> keys, values;
          std::vector<cpu::KvSegmentView> segs;
          for (std::size_t first = 0; first < key_len; first += seg_rows) {
            const std::size_t count = std::min(seg_rows, key_len - first);
            keys.push_back(random_vec(rng, count * dh));
            values.push_back(random_vec(rng, count * dh));
            segs.push_back(
                {keys.back().data(), values.back().data(), first, count});
          }
          const auto q = random_vec(rng, dh);
          const auto bias = random_vec(rng, key_len);
          const auto rotated = random_vec(rng, key_len * dh);
          const float scale = 1.0F / std::sqrt(static_cast<float>(dh));
          const auto run = [&](cpu::DecodeAttendFn fn, std::vector<float>& l,
                               std::vector<float>& p, std::vector<float>& x) {
            l.assign(key_len, 0.0F);
            p.assign(key_len, 0.0F);
            x.assign(dh, 0.0F);
            fn(segs.data(), segs.size(), q.data(), dh, scale,
               with_bias ? bias.data() : nullptr,
               with_override ? rotated.data() : nullptr, l.data(), p.data(),
               x.data(), key_len);
          };
          std::vector<float> l_ref, p_ref, ctx_ref, l_got, p_got, ctx_got;
          run(scalar, l_ref, p_ref, ctx_ref);
          run(variant, l_got, p_got, ctx_got);
          for (std::size_t i = 0; i < key_len; ++i) {
            EXPECT_NEAR(l_got[i], l_ref[i],
                        budget * (1.0F + std::abs(l_ref[i])))
                << "logit " << i;
            EXPECT_NEAR(p_got[i], p_ref[i], budget) << "prob " << i;
          }
          for (std::size_t j = 0; j < dh; ++j) {
            EXPECT_NEAR(ctx_got[j], ctx_ref[j],
                        budget * (1.0F + std::abs(ctx_ref[j])))
                << "context " << j;
          }
        }
      }
    }
  }
}

TEST_P(SimdParity, AttendRowsMatchOneRowCalls) {
  // attend_rows takes up to four consecutive query rows of one head, row r
  // seeing key_len + r keys; each row's logits, probabilities and context
  // must equal that row's own decode_attend call bit for bit, under every
  // ISA. Groups of key rows cross the 7- and 3-row segments, and the last
  // row's view ends mid-segment whenever its key count is not a multiple
  // of the segment rows. Entries past a row's keys stay untouched.
  const cpu::DecodeAttendFn one = cpu::decode_attend_stub.get(GetParam());
  const cpu::AttendRowsFn rows_fn = cpu::attend_rows_stub.get(GetParam());
  constexpr float kUntouched = 12345.0F;
  Rng rng(47);
  for (const std::size_t dh : {8, 16, 24, 32, 40, 64}) {
    for (const std::size_t key_len : {1, 7, 15, 16, 17, 31, 33, 100, 257}) {
      for (const std::size_t seg_rows : {16, 7, 3}) {
        for (std::size_t n_rows = 1; n_rows <= cpu::kAttendRows; ++n_rows) {
          for (int c = 0; c < 4; ++c) {
            const bool with_bias = (c & 1) != 0;
            const bool with_override = (c & 2) != 0;
            SCOPED_TRACE("dh=" + std::to_string(dh) +
                         " key_len=" + std::to_string(key_len) +
                         " seg_rows=" + std::to_string(seg_rows) +
                         " n_rows=" + std::to_string(n_rows) +
                         " bias=" + std::to_string(with_bias) +
                         " keys_override=" + std::to_string(with_override));
            const std::size_t total = key_len + n_rows - 1;
            // Whole segments of seg_rows rows, each in its own buffer; the
            // views cover [0, total), so the last may stop short of its
            // segment's end.
            std::vector<std::vector<float>> keys, values;
            std::vector<cpu::KvSegmentView> segs;
            for (std::size_t first = 0; first < total; first += seg_rows) {
              keys.push_back(random_vec(rng, seg_rows * dh));
              values.push_back(random_vec(rng, seg_rows * dh));
              segs.push_back({keys.back().data(), values.back().data(),
                              first, std::min(seg_rows, total - first)});
            }
            const std::size_t stride = total + 5;
            const std::size_t ctx_stride = dh + 3;
            const auto q = random_vec(rng, n_rows * dh);
            const auto bias = random_vec(rng, n_rows * stride);
            const auto rotated = random_vec(rng, total * dh);
            const float scale = 1.0F / std::sqrt(static_cast<float>(dh));
            std::vector<float> l(n_rows * stride, kUntouched);
            std::vector<float> p(n_rows * stride, kUntouched);
            std::vector<float> x(n_rows * ctx_stride, kUntouched);
            rows_fn(segs.data(), segs.size(), q.data(), dh, scale,
                    with_bias ? bias.data() : nullptr,
                    with_override ? rotated.data() : nullptr, l.data(),
                    p.data(), stride, x.data(), ctx_stride, key_len, n_rows);
            for (std::size_t r = 0; r < n_rows; ++r) {
              const std::size_t vis = key_len + r;
              std::vector<cpu::KvSegmentView> view;
              for (const cpu::KvSegmentView& seg : segs) {
                if (seg.first >= vis) break;
                view.push_back(seg);
                view.back().count = std::min(seg.count, vis - seg.first);
              }
              std::vector<float> l_ref(vis), p_ref(vis), x_ref(dh);
              one(view.data(), view.size(), q.data() + r * dh, dh, scale,
                  with_bias ? bias.data() + r * stride : nullptr,
                  with_override ? rotated.data() : nullptr, l_ref.data(),
                  p_ref.data(), x_ref.data(), vis);
              for (std::size_t i = 0; i < stride; ++i) {
                const float* lr = l.data() + r * stride;
                const float* pr = p.data() + r * stride;
                EXPECT_EQ(lr[i], i < vis ? l_ref[i] : kUntouched)
                    << "row " << r << " logit " << i;
                EXPECT_EQ(pr[i], i < vis ? p_ref[i] : kUntouched)
                    << "row " << r << " prob " << i;
              }
              for (std::size_t j = 0; j < ctx_stride; ++j) {
                EXPECT_EQ(x[r * ctx_stride + j], j < dh ? x_ref[j] : kUntouched)
                    << "row " << r << " context " << j;
              }
            }
          }
        }
      }
    }
  }
}

TEST_P(SimdParity, AttendLogitsEqualOneKeyDots) {
  // The fused attend reduces the dots of each group of kLanes keys
  // together; every logit must still have the bits of its key's own dot,
  // which a one-key call computes alone, through segment streams and
  // keys_override alike, at head widths with and without a scalar tail.
  // Scale 1 and no bias leave the logits as the raw dots.
  const cpu::DecodeAttendFn attend = cpu::decode_attend_stub.get(GetParam());
  Rng rng(53);
  for (const std::size_t dh : {1, 4, 8, 12, 16, 20, 24, 32, 40, 64, 72}) {
    for (const std::size_t key_len : {5, 16, 23, 48, 130}) {
      for (const std::size_t seg_rows : {key_len, std::size_t{7}}) {
        for (const bool with_override : {false, true}) {
          SCOPED_TRACE("dh=" + std::to_string(dh) +
                       " key_len=" + std::to_string(key_len) +
                       " seg_rows=" + std::to_string(seg_rows) +
                       " keys_override=" + std::to_string(with_override));
          const auto k = random_vec(rng, key_len * dh);
          const auto v = random_vec(rng, key_len * dh);
          const auto q = random_vec(rng, dh);
          std::vector<cpu::KvSegmentView> segs;
          for (std::size_t first = 0; first < key_len; first += seg_rows) {
            segs.push_back({k.data() + first * dh, v.data() + first * dh,
                            first, std::min(seg_rows, key_len - first)});
          }
          // keys_override holds the same key rows here, so both paths
          // must reproduce the same dots.
          std::vector<float> l(key_len), p(key_len), x(dh);
          attend(segs.data(), segs.size(), q.data(), dh, 1.0F, nullptr,
                 with_override ? k.data() : nullptr, l.data(), p.data(),
                 x.data(), key_len);
          for (std::size_t i = 0; i < key_len; ++i) {
            const cpu::KvSegmentView one{k.data() + i * dh, v.data() + i * dh,
                                         0, 1};
            float dot = 0.0F;
            float prob = 0.0F;
            attend(&one, 1, q.data(), dh, 1.0F, nullptr, nullptr, &dot,
                   &prob, x.data(), 1);
            EXPECT_EQ(l[i], dot) << "key " << i;
          }
        }
      }
    }
  }
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
          policy->begin_sequence(info);
          kv::SequenceKvState state = m.make_kv_state();
          m.prefill(state, prompt, 0, *policy);
          std::vector<std::vector<float>> steps;
          for (std::size_t t = 1; t <= 4; ++t) {
            steps.push_back(m.decode(state, static_cast<model::Token>(t),
                                     prompt.size() + t - 1, t, *policy));
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
      pc.block_tokens = 4;  // multi-block chains from a 16-token prompt
      pc.n_heads = cfg.n_heads;
      pc.d_head = cfg.d_head();
      mem::BlockPool pool(pc);
      model::Transformer m(cfg);
      kv::SequenceKvState state(pool, cfg.n_layers);
      kv::KeyformerPolicy policy;
      policy.set_budget(kv::make_budget(prompt.size(), 0.5));
      kv::SequenceInfo info;
      info.prompt_len = prompt.size();
      info.total_steps = 4;
      policy.begin_sequence(info);
      m.prefill(state, prompt, 0, policy);
      std::vector<std::vector<float>> steps;
      for (std::size_t t = 1; t <= 4; ++t) {
        steps.push_back(m.decode(state, static_cast<model::Token>(t),
                                 prompt.size() + t - 1, t, policy));
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
      seq->policy.begin_sequence(info);
      m.prefill(seq->state, seq->prompt, 0, seq->policy);
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
                                s->prompt.size() + t - 1, t, s->policy));
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
                      &seqs[b]->state, &seqs[b]->policy};
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
