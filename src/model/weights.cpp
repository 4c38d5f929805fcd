#include "model/weights.h"

#include <algorithm>
#include <cmath>

#include "core/rng.h"

namespace kf::model {

std::size_t ModelWeights::parameter_count() const {
  std::size_t n = embedding.size() + lm_head.size() + pos_embedding.size() +
                  final_gamma.size() + final_beta.size();
  for (const LayerWeights& l : layers) {
    n += l.wq.size() + l.wk.size() + l.wv.size() + l.wo.size() +
         l.ln1_gamma.size() + l.ln1_beta.size() + l.ln2_gamma.size() +
         l.ln2_beta.size() + l.w_ff1.size() + l.b_ff1.size() +
         l.w_ff2.size() + l.b_ff2.size();
  }
  return n;
}

HeadRole head_role(std::size_t layer, std::size_t head) {
  // Cycle content -> positional -> mixing, rotated by layer so that no
  // fixed head index is special across the whole stack.
  switch ((head + layer) % 3) {
    case 0: return HeadRole::kContent;
    case 1: return HeadRole::kPositional;
    default: return HeadRole::kMixing;
  }
}

HeadRole head_role_for(const ModelConfig& cfg, std::size_t layer,
                       std::size_t head) {
  if (cfg.positional == PositionalKind::kALiBi) {
    // ALiBi slopes fall with head index, so group by thirds: the steep
    // low-index heads become positional (local), the flat high-index heads
    // become content (long-range), the middle mixes.
    (void)layer;
    const std::size_t group = std::max<std::size_t>(1, cfg.n_heads / 3);
    if (head >= cfg.n_heads - group) return HeadRole::kContent;
    if (head < group) return HeadRole::kPositional;
    return HeadRole::kMixing;
  }
  return head_role(layer, head);
}

namespace {

void fill_normal(Tensor& t, Rng& rng, double stddev) {
  for (float& v : t.span()) v = static_cast<float>(rng.normal(0.0, stddev));
}

void unit_norm_rows(Tensor& t) {
  const std::size_t rows = t.dim(0);
  for (std::size_t r = 0; r < rows; ++r) {
    auto row = t.row(r);
    double norm2 = 0.0;
    for (const float v : row) norm2 += static_cast<double>(v) * v;
    const float inv = static_cast<float>(1.0 / std::sqrt(norm2 + 1e-12));
    for (float& v : row) v *= inv;
  }
}

/// Adds gain * I restricted to the columns of head `h`.
void add_head_identity(Tensor& w, std::size_t h, std::size_t d_head,
                       double gain) {
  const std::size_t d = w.dim(0);
  for (std::size_t j = h * d_head; j < (h + 1) * d_head && j < d; ++j) {
    w.at(j, j) += static_cast<float>(gain);
  }
}

/// y = x^T W for a [rows, cols] weight (x length rows, y length cols).
/// Deliberately a fixed scalar loop, not the dispatched matmul: the
/// b_ff2 calibration below runs through it, and the weights must not
/// depend on the host's ISA.
void matvec_like(const Tensor& w, std::span<const float> x,
                 std::span<float> y, std::size_t rows, std::size_t cols) {
  for (std::size_t j = 0; j < cols; ++j) y[j] = 0.0F;
  for (std::size_t i = 0; i < rows; ++i) {
    const float xi = x[i];
    for (std::size_t j = 0; j < cols; ++j) {
      y[j] += xi * w.at(i, j);
    }
  }
}

/// Tanh-approximation GELU in place, for the b_ff2 calibration below: a
/// fixed scalar loop beside matvec_like, for the same reason.
void gelu_inplace(std::span<float> y) {
  constexpr float kSqrt2OverPi = 0.7978845608028654F;
  for (float& v : y) {
    const float c = v + 0.044715F * v * v * v;
    v = 0.5F * v * (1.0F + std::tanh(kSqrt2OverPi * c));
  }
}

/// Adds i.i.d. noise to the columns of head `h`.
void add_head_noise(Tensor& w, std::size_t h, std::size_t d_head, Rng& rng,
                    double stddev) {
  const std::size_t d = w.dim(0);
  for (std::size_t i = 0; i < d; ++i) {
    for (std::size_t j = h * d_head; j < (h + 1) * d_head; ++j) {
      w.at(i, j) += static_cast<float>(rng.normal(0.0, stddev));
    }
  }
}

LayerWeights build_layer(const ModelConfig& cfg, std::size_t layer, Rng& rng,
                         const std::vector<float>& salience_dir) {
  const std::size_t d = cfg.d_model;
  const std::size_t dh = cfg.d_head();
  LayerWeights l;
  l.wq = Tensor({d, d});
  l.wk = Tensor({d, d});
  l.wv = Tensor({d, d});
  l.wo = Tensor({d, d});
  l.ln1_gamma = Tensor({d});
  l.ln1_beta = Tensor({d});
  l.ln2_gamma = Tensor({d});
  l.ln2_beta = Tensor({d});
  l.w_ff1 = Tensor({d, cfg.d_ff});
  l.b_ff1 = Tensor({cfg.d_ff});
  l.w_ff2 = Tensor({cfg.d_ff, d});
  l.b_ff2 = Tensor({d});

  l.ln1_gamma.fill(1.0F);
  l.ln2_gamma.fill(1.0F);

  if (cfg.weight_style == WeightStyle::kRandom) {
    const double s = 1.0 / std::sqrt(static_cast<double>(d));
    fill_normal(l.wq, rng, s);
    fill_normal(l.wk, rng, s);
    fill_normal(l.wv, rng, s);
    fill_normal(l.wo, rng, s);
    fill_normal(l.w_ff1, rng, s);
    fill_normal(l.w_ff2, rng, 1.0 / std::sqrt(static_cast<double>(cfg.d_ff)));
    return l;
  }

  // Structured generation. LN'd inputs have ~unit per-feature variance, so
  // a head slice has squared norm ~ d_head; a gain g on both W_q and W_k
  // yields same-token logits ~ g^2 * sqrt(d_head) after the 1/sqrt(d_head)
  // attention scaling.
  const double content_gain =
      std::sqrt(cfg.content_logit_scale / std::sqrt(static_cast<double>(dh)));
  const double positional_gain =
      std::sqrt(1.2 / std::sqrt(static_cast<double>(dh)));
  const double mix_stddev = 0.3 / std::sqrt(static_cast<double>(d));

  // Rank-1 key-side salience amplifier for content heads: k gains
  // amp * gain * u_j * (x . u), so salient tokens' keys stand out to every
  // query while the filler-filler background stays flat.
  const auto add_key_salience = [&](Tensor& wk, std::size_t h, double gain) {
    const double amp = cfg.salience_key_amp * gain;
    for (std::size_t i = 0; i < d; ++i) {
      for (std::size_t j = h * dh; j < (h + 1) * dh; ++j) {
        wk.at(i, j) += static_cast<float>(
            amp * static_cast<double>(salience_dir[i]) *
            static_cast<double>(salience_dir[j]));
      }
    }
  };

  for (std::size_t h = 0; h < cfg.n_heads; ++h) {
    switch (head_role_for(cfg, layer, h)) {
      case HeadRole::kContent:
        add_head_identity(l.wq, h, dh, content_gain);
        add_head_identity(l.wk, h, dh, content_gain);
        add_key_salience(l.wk, h, content_gain);
        add_head_noise(l.wq, h, dh, rng, 0.01);
        add_head_noise(l.wk, h, dh, rng, 0.01);
        break;
      case HeadRole::kPositional:
        add_head_identity(l.wq, h, dh, positional_gain);
        add_head_identity(l.wk, h, dh, positional_gain);
        add_head_noise(l.wq, h, dh, rng, 0.02);
        add_head_noise(l.wk, h, dh, rng, 0.02);
        break;
      case HeadRole::kMixing:
        add_head_noise(l.wq, h, dh, rng, mix_stddev);
        add_head_noise(l.wk, h, dh, rng, mix_stddev);
        break;
    }
  }

  // Value/output: identity-dominated so attended embeddings reach the
  // residual stream (copy path), with mild mixing noise. W_o projects the
  // shared salience direction *out*: salience selects what gets attended,
  // but only the raw token content flows into the residual — otherwise the
  // coherent salience component swamps the LM head's copy signal.
  const double wo_gain = cfg.attn_output_gain * 0.6 /
                         std::sqrt(static_cast<double>(cfg.n_layers));
  for (std::size_t j = 0; j < d; ++j) {
    l.wv.at(j, j) = 0.8F;
    for (std::size_t i = 0; i < d; ++i) {
      const double proj = (i == j ? 1.0 : 0.0) -
                          static_cast<double>(salience_dir[i]) *
                              static_cast<double>(salience_dir[j]);
      l.wo.at(i, j) = static_cast<float>(wo_gain * proj);
    }
  }
  const double small = 0.05 / std::sqrt(static_cast<double>(d));
  for (float& v : l.wv.span()) v += static_cast<float>(rng.normal(0.0, small));
  for (float& v : l.wo.span()) v += static_cast<float>(rng.normal(0.0, small));

  fill_normal(l.w_ff1, rng, 0.3 / std::sqrt(static_cast<double>(d)));
  fill_normal(l.w_ff2, rng, 0.3 / std::sqrt(static_cast<double>(cfg.d_ff)));

  // Center the MLP: GELU's positive mean over random weights would inject
  // a *constant* direction into the residual stream every layer, which
  // systematically biases the LM head toward arbitrary tokens. Calibrate
  // b_ff2 = -E[mlp(x)] over LayerNorm-like inputs so the block is
  // zero-mean.
  {
    Rng calib = rng.fork(0xCA11B);
    constexpr std::size_t kCalibSamples = 64;
    std::vector<double> mean_out(d, 0.0);
    std::vector<float> x(d);
    std::vector<float> hidden(cfg.d_ff);
    for (std::size_t s = 0; s < kCalibSamples; ++s) {
      for (float& v : x) v = static_cast<float>(calib.normal());
      matvec_like(l.w_ff1, x, hidden, d, cfg.d_ff);
      gelu_inplace(hidden);
      for (std::size_t j = 0; j < d; ++j) {
        double acc = 0.0;
        for (std::size_t k = 0; k < cfg.d_ff; ++k) {
          acc += static_cast<double>(hidden[k]) * l.w_ff2.at(k, j);
        }
        mean_out[j] += acc;
      }
    }
    for (std::size_t j = 0; j < d; ++j) {
      l.b_ff2.span()[j] =
          static_cast<float>(-mean_out[j] / kCalibSamples);
    }
  }
  return l;
}

}  // namespace

ModelWeights build_weights(const ModelConfig& cfg) {
  cfg.validate();
  Rng rng(cfg.weight_seed);
  ModelWeights w;

  w.embedding = Tensor({cfg.vocab_size, cfg.d_model});
  fill_normal(w.embedding, rng, 1.0);
  unit_norm_rows(w.embedding);
  // The raw directions, before salience mixing, one column per token.
  w.lm_head = Tensor({cfg.d_model, cfg.vocab_size});
  for (std::size_t t = 0; t < cfg.vocab_size; ++t) {
    for (std::size_t j = 0; j < cfg.d_model; ++j) {
      w.lm_head.at(j, t) = w.embedding.at(t, j);
    }
  }

  // Shared salience direction u: every embedding mixes in a little of it
  // (so any query's content head probes it); salient ("fact") tokens mix
  // in a lot, which is what concentrates attention mass on them.
  Rng u_rng = rng.fork(0x5A11);
  std::vector<float> u(cfg.d_model);
  double u_norm2 = 0.0;
  for (float& v : u) {
    v = static_cast<float>(u_rng.normal());
    u_norm2 += static_cast<double>(v) * v;
  }
  const float u_inv = static_cast<float>(1.0 / std::sqrt(u_norm2));
  for (float& v : u) v *= u_inv;
  for (std::size_t t = 0; t < cfg.vocab_size; ++t) {
    const bool salient = t >= cfg.salient_begin() && t < cfg.salient_end();
    const double mix = salient ? cfg.fact_salience : cfg.base_salience;
    auto row = w.embedding.row(t);
    for (std::size_t j = 0; j < cfg.d_model; ++j) {
      row[j] += static_cast<float>(mix) * u[j];
    }
  }
  unit_norm_rows(w.embedding);

  if (cfg.positional == PositionalKind::kLearned) {
    // Smooth sinusoidal-plus-noise table: nearby positions get similar
    // embeddings, which is what trained absolute embeddings look like.
    w.pos_embedding = Tensor({cfg.max_seq_len, cfg.d_model});
    Rng pos_rng = rng.fork(0x9090);
    std::vector<double> phase(cfg.d_model);
    std::vector<double> period(cfg.d_model);
    for (std::size_t j = 0; j < cfg.d_model; ++j) {
      phase[j] = pos_rng.uniform() * 6.283185307;
      period[j] = 24.0 + 200.0 * pos_rng.uniform();
    }
    for (std::size_t p = 0; p < cfg.max_seq_len; ++p) {
      for (std::size_t j = 0; j < cfg.d_model; ++j) {
        const double v =
            0.25 * std::sin(static_cast<double>(p) / period[j] + phase[j]);
        w.pos_embedding.at(p, j) = static_cast<float>(v);
      }
    }
  }

  if (cfg.positional == PositionalKind::kRoPE) {
    w.rope = RopeTable(cfg.d_head(), cfg.max_seq_len, cfg.rope_base);
  }

  w.final_gamma = Tensor({cfg.d_model});
  w.final_beta = Tensor({cfg.d_model});
  w.final_gamma.fill(1.0F);

  w.layers.reserve(cfg.n_layers);
  for (std::size_t layer = 0; layer < cfg.n_layers; ++layer) {
    Rng layer_rng = rng.fork(0x1000 + layer);
    w.layers.push_back(build_layer(cfg, layer, layer_rng, u));
  }
  return w;
}

}  // namespace kf::model
