// Umbrella header: the full public API of the Keyformer reproduction.
//
// Quick tour:
//   kf::model::Transformer     — from-scratch decoder-only transformer
//   kf::model::generate        — generation loop with eviction policies
//   kf::serve::Engine          — continuous-batching serving engine
//   kf::kv::KeyformerPolicy    — the paper's contribution (Algorithm 1)
//   kf::kv::make_policy        — all baselines (H2O, window, sinks, ...)
//   kf::perf::CostModel        — A100-calibrated latency/throughput model
//   kf::data::*                — synthetic corpora and few-shot tasks
//   kf::eval::*                — ROUGE, attention metrics, harness
#pragma once

#include "core/csv.h"
#include "core/numerics.h"
#include "core/rng.h"
#include "core/table.h"
#include "core/tensor.h"
#include "core/threadpool.h"
#include "core/timing.h"
#include "cpu/cpu_isa.h"
#include "data/fewshot.h"
#include "data/synthetic.h"
#include "data/vocab.h"
#include "eval/experiment.h"
#include "eval/heatmap.h"
#include "eval/metrics.h"
#include "eval/rouge.h"
#include "kvcache/kv_cache.h"
#include "kvcache/kv_state.h"
#include "kvcache/policies/full.h"
#include "kvcache/policies/h2o.h"
#include "kvcache/policies/key_attention.h"
#include "kvcache/policies/keyformer.h"
#include "kvcache/policies/random_evict.h"
#include "kvcache/policies/streaming_llm.h"
#include "kvcache/policies/window.h"
#include "kvcache/policy.h"
#include "kvcache/policy_factory.h"
#include "kvcache/score_function.h"
#include "mem/block_pool.h"
#include "model/attention.h"
#include "model/config.h"
#include "model/generator.h"
#include "model/positional.h"
#include "model/transformer.h"
#include "model/weights.h"
#include "perf/cost_model.h"
#include "perf/device.h"
#include "serve/engine.h"
#include "serve/scheduler.h"
#include "serve/sequence.h"
