// serve_bench: drives the real serve::Engine over one seeded workload and
// prints the raw per-pass record run.py turns into benchmark metrics.
//
//   serve_bench --workload NAME --seed N --seconds S [--trace-dir DIR]
//
// One process serves one workload (its warm-up and peak RSS belong to it):
//   1. set-up, timed and repeated kSetupRepeats times: construct
//      Transformer and Engine, then a warm-up run over the workload's first
//      requests (starts the thread pool, faults in pool slabs); the last
//      engine is kept;
//   2. timed passes: Engine::run() over the whole workload, prefix cache
//      cleared before each so every pass does identical work, repeated
//      until S seconds have elapsed. Arrivals use the engine's decode-step
//      clock, so the schedule is deterministic and only compute speed
//      varies between passes. Times are read on the serving thread's CPU
//      clock, and each set-up and pass is bracketed by a host-speed probe
//      (probe_host_speed) that run.py scales the times by;
//   3. correctness: every request must finish kLength with the same tokens
//      in every pass, and a seeded sample re-run alone on a fresh Engine
//      must reproduce its tokens exactly.
// With --trace-dir, passes alternate untraced/traced; each traced pass
// writes DIR/pass<i>.json (Chrome trace) and the layer micro-probes run
// after the passes.
//
// Output: one JSON object on stdout; times in seconds, raw per request.
#include <pthread.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <iostream>
#include <memory>
#include <numeric>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/parse.h"
#include "core/rng.h"
#include "core/threadpool.h"
#include "core/timing.h"
#include "cpu/cpu_isa.h"
#include "cpu/kernels.h"
#include "data/fewshot.h"
#include "obs/trace.h"
#include "serve/engine.h"

using namespace kf;

namespace {

constexpr std::size_t kSetupRepeats = 9;
constexpr std::size_t kMinPasses = 3;
constexpr std::size_t kOracleSample = 4;
constexpr std::size_t kWarmupRequests = 16;
constexpr std::size_t kWarmupTokens = 8;
constexpr std::chrono::milliseconds kClockSamplePeriod{1};
/// Clock samples kept in memory touched up front, so that peak RSS does not
/// depend on how long the longest pass ran (65 s at kClockSamplePeriod).
constexpr std::size_t kClockSampleCapacity = std::size_t{1} << 16;
constexpr std::size_t kProbeRepeats = 7;

struct Workload {
  serve::EngineConfig config;
  std::vector<serve::Request> requests;
};

/// Length of request i: every run of `block` consecutive requests holds
/// `block` values spread evenly over [lo, hi], interleaved (stride 5, which
/// is coprime with every block size used) so neighbours differ. Lengths
/// and arrivals do not depend on the seed, only token contents do: under
/// the step clock with a binding KV budget, preemption cascades made the
/// work of a pass vary several-fold between seeds when the seed also
/// shuffled lengths.
std::size_t length_at(std::size_t i, std::size_t lo, std::size_t hi,
                      std::size_t block) {
  const std::size_t j = (5 * i) % block;
  return lo + ((hi - lo) * (2 * j + 1)) / (2 * block);
}

serve::Request make_request(std::uint64_t id, std::size_t prompt_len,
                            std::size_t new_tokens, std::size_t arrival,
                            std::size_t vocab, Rng& rng) {
  serve::Request req;
  req.id = id;
  req.arrival_step = arrival;
  req.prompt.resize(prompt_len);
  for (auto& t : req.prompt) {
    t = static_cast<model::Token>(rng.uniform_u64(vocab));
  }
  req.gen.max_new_tokens = new_tokens;
  req.gen.cache_ratio = 0.5;
  return req;
}

serve::EngineConfig base_config() {
  serve::EngineConfig ec;
  ec.policy.kind = kv::PolicyKind::kKeyformer;
  ec.scheduler.max_batch_size = 8;
  ec.paged.enabled = true;
  ec.prefix.enabled = true;
  return ec;
}

// Why each workload exists (which layers it loads) is recorded in
// BENCHMARK.json; the comments here give the shape.
Workload make_workload(const std::string& name, std::uint64_t seed,
                       std::size_t vocab) {
  Rng rng(seed);
  Workload w;
  w.config = base_config();
  if (name == "offline_decode") {
    // Everything queued at step 0, no memory cap: a full batch every step.
    constexpr std::size_t kN = 104;
    for (std::size_t i = 0; i < kN; ++i) {
      w.requests.push_back(make_request(i, length_at(i, 32, 64, 8),
                                        length_at(i + 1, 8, 16, 8), 0, vocab,
                                        rng));
    }
  } else if (name == "online_mixed") {
    // Bursts of 8 (6 chat turns, 2 long documents) every kBurstGap steps,
    // under a KV token budget that binds when bursts overlap.
    constexpr std::size_t kBursts = 13;
    constexpr std::size_t kBurst = 8;
    constexpr std::size_t kBurstGap = 24;
    w.config.scheduler.max_concurrent_tokens = 768;
    std::size_t chats = 0;
    std::size_t docs = 0;
    for (std::size_t i = 0; i < kBursts * kBurst; ++i) {
      const std::size_t burst = i / kBurst;
      const std::size_t slot = i % kBurst;
      const std::size_t arrival = burst * kBurstGap;
      // Documents take slots 3b and 3b+4 (mod 8) of burst b.
      if (slot == (3 * burst) % kBurst || slot == (3 * burst + 4) % kBurst) {
        w.requests.push_back(make_request(i, length_at(docs++, 128, 192, 2),
                                          16, arrival, vocab, rng));
      } else {
        w.requests.push_back(make_request(i, length_at(chats, 24, 64, 6),
                                          length_at(chats + 1, 12, 24, 6),
                                          arrival, vocab, rng));
        ++chats;
      }
    }
  } else if (name == "shared_prefix") {
    // One few-shot context (~768 tokens) opening every prompt, a short
    // unique tail, staggered arrivals: prefix adoption and CoW territory.
    constexpr std::size_t kN = 104;
    constexpr std::size_t kContext = 768;
    constexpr std::size_t kArrivalGap = 2;
    data::McqConfig mc;
    mc.vocab_size = vocab;
    mc.seed = seed;
    mc.n_shots = kContext / (mc.passage_len / 3 + 3) + 1;
    std::vector<model::Token> ctx = data::make_mcq_sample(mc, 0).prompt;
    if (ctx.size() > kContext) ctx.resize(kContext);
    for (std::size_t i = 0; i < kN; ++i) {
      serve::Request req =
          make_request(i, length_at(i, 16, 32, 8), length_at(i + 1, 8, 16, 8),
                       i * kArrivalGap, vocab, rng);
      req.prompt.insert(req.prompt.begin(), ctx.begin(), ctx.end());
      req.shared_prefix_hint = ctx.size();
      w.requests.push_back(std::move(req));
    }
  } else {
    std::cerr << "error: unknown workload \"" << name << "\"\n";
    std::exit(2);
  }
  return w;
}

/// The warm-up: the workload's first requests, all at step 0, cut short.
std::vector<serve::Request> warmup_requests(const Workload& w) {
  std::vector<serve::Request> reqs(
      w.requests.begin(),
      w.requests.begin() + std::min(kWarmupRequests, w.requests.size()));
  for (serve::Request& r : reqs) {
    r.arrival_step = 0;
    r.gen.max_new_tokens = std::min(r.gen.max_new_tokens, kWarmupTokens);
  }
  return reqs;
}

class Json {
 public:
  Json& key(const char* k) {
    sep();
    out_ << '"' << k << "\":";
    fresh_ = true;
    return *this;
  }
  Json& open() {
    sep();
    out_ << '{';
    fresh_ = true;
    return *this;
  }
  Json& close() {
    out_ << '}';
    fresh_ = false;
    return *this;
  }
  Json& num(double v) {
    sep();
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.9g", v);
    out_ << buf;
    return *this;
  }
  Json& str(const std::string& s) {
    sep();
    out_ << '"';
    for (const char ch : s) {
      if (ch == '"' || ch == '\\') out_ << '\\';
      if (static_cast<unsigned char>(ch) >= 0x20) out_ << ch;
    }
    out_ << '"';
    return *this;
  }
  Json& arr(const std::vector<double>& v) {
    sep();
    out_ << '[';
    for (std::size_t i = 0; i < v.size(); ++i) {
      char buf[40];
      std::snprintf(buf, sizeof(buf), "%s%.9g", i == 0 ? "" : ",", v[i]);
      out_ << buf;
    }
    out_ << ']';
    return *this;
  }
  /// Appends already-serialized JSON as the next value.
  Json& raw(const std::string& text) {
    sep();
    out_ << text;
    return *this;
  }
  std::string text() const { return out_.str(); }

 private:
  void sep() {
    if (!fresh_) out_ << ',';
    fresh_ = false;
  }
  std::ostringstream out_;
  bool fresh_ = true;
};

/// CPU seconds the calling thread has run; stolen and descheduled time
/// excluded.
double thread_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * ts.tv_nsec;
}

volatile float g_probe_sink = 0.0F;

/// Host-speed probe: serving-thread CPU seconds of a short fixed loop,
/// median of kProbeRepeats tries. Its three parts take about the same time
/// and stand for the engine's kinds of work: scalar exp (softmax and
/// Keyformer's scoring), a scalar 384x128 matvec (projections) and a sort
/// of random keys (branchy scheduler and policy code). On a shared VM the
/// vCPU runs at full speed or, while another tenant loads the same
/// physical core, up to 1.7x slower, switching within seconds; the CPU
/// clock does not see that, but this loop slows down with the engine. It
/// is the benchmark's own code, so no change to the engine moves it.
double probe_host_speed() {
  static std::vector<float> buf(512);
  static std::vector<float> mat(384 * 128, 0.5F);
  static std::vector<float> x(128, 1.0F);
  static std::vector<float> y(384);
  static std::vector<std::uint32_t> keys(2048);
  std::vector<double> t;
  for (std::size_t attempt = 0; attempt < kProbeRepeats; ++attempt) {
    const double t0 = thread_cpu_seconds();
    float acc = 0.0F;
    for (int rep = 0; rep < 80; ++rep) {
      for (std::size_t i = 0; i < buf.size(); ++i) {
        buf[i] = std::exp(1e-3F * static_cast<float>(i + rep) - acc);
      }
      for (const float v : buf) acc += 1e-6F * v;
    }
    for (std::size_t rep = 0; rep < 10; ++rep) {
      for (std::size_t r = 0; r < y.size(); ++r) {
        float dot = 0.0F;
        for (std::size_t c = 0; c < x.size(); ++c) {
          dot += mat[r * x.size() + c] * x[c];
        }
        y[r] = dot;
      }
      x[rep] = 1e-6F * y[rep];
    }
    std::uint64_t h = 0x9e3779b97f4a7c15ULL;
    for (int rep = 0; rep < 2; ++rep) {
      for (std::uint32_t& k : keys) {
        h ^= h << 13;
        h ^= h >> 7;
        h ^= h << 17;
        k = static_cast<std::uint32_t>(h >> 32);
      }
      std::sort(keys.begin(), keys.end());
    }
    g_probe_sink = acc + y[0] + static_cast<float>(keys[1] & 1U);
    t.push_back(thread_cpu_seconds() - t0);
  }
  std::sort(t.begin(), t.end());
  return t[t.size() / 2];
}

/// Maps kf::now_seconds() stamps (the engine's timeline clock) onto the
/// serving thread's CPU clock. While a pass runs, a sampler thread reads
/// both clocks every kClockSamplePeriod; a stamp maps by linear
/// interpolation between the samples around it. The thread CPU clock does
/// not advance while the hypervisor has stolen the vCPU (paravirtual steal
/// accounting) or the thread is descheduled, so a difference on it is the
/// time the engine spent computing. With a one-thread pool every
/// parallel_for runs inline, so the serving thread does all the work.
class ServingClock {
 public:
  ServingClock() {
    pthread_getcpuclockid(pthread_self(), &clock_);
    samples_.resize(kClockSampleCapacity);
  }

  void start() {
    samples_.clear();
    stop_.store(false);
    sample();
    sampler_ = std::thread([this] {
      while (!stop_.load(std::memory_order_relaxed)) {
        std::this_thread::sleep_for(kClockSamplePeriod);
        sample();
      }
    });
  }

  void stop() {
    stop_.store(true);
    sampler_.join();
    sample();
  }

  /// Serving-thread CPU seconds between two wall stamps of the last pass.
  double between(double from, double to) const {
    return cpu_at(to) - cpu_at(from);
  }

 private:
  struct Sample {
    double wall;
    double cpu;
  };

  void sample() {
    const double wall = now_seconds();
    timespec ts{};
    clock_gettime(clock_, &ts);
    samples_.push_back(
        {wall, static_cast<double>(ts.tv_sec) + 1e-9 * ts.tv_nsec});
  }

  double cpu_at(double wall) const {
    const auto hi = std::lower_bound(
        samples_.begin(), samples_.end(), wall,
        [](const Sample& s, double w) { return s.wall < w; });
    if (hi == samples_.begin()) return hi->cpu;
    if (hi == samples_.end()) return samples_.back().cpu;
    const Sample& lo = *(hi - 1);
    const double f = (wall - lo.wall) / (hi->wall - lo.wall);
    return lo.cpu + f * (hi->cpu - lo.cpu);
  }

  clockid_t clock_{};
  std::vector<Sample> samples_;
  std::atomic<bool> stop_{false};
  std::thread sampler_;
};

/// What the correctness check needs from a pass: each request's tokens
/// and whether it finished kLength.
struct PassRecord {
  std::vector<std::vector<model::Token>> tokens;
  std::vector<bool> finished_length;
};

/// Runs one pass and writes its record (per-request latencies on the
/// serving thread's CPU clock, engine and pool counters) to `json`, an
/// object left open for the caller to complete.
PassRecord run_pass(serve::Engine& engine, const Workload& w, bool traced,
                    const std::string& trace_path, ServingClock& clock,
                    Json& json) {
  PassRecord rec;
  obs::Counter& allocs = engine.metrics().counter("pool.allocs");
  if (traced) {
    obs::trace_reset();
    obs::set_trace_enabled(true);
  }
  std::vector<serve::Response> responses;
  double cpu_s = 0.0;
  std::uint64_t pass_allocs = 0;
  {
    KF_TRACE_SCOPE("bench.pass", "bench");
    {
      KF_TRACE_SCOPE("bench.clear_prefix_cache", "bench");
      engine.clear_prefix_cache();
    }
    const std::uint64_t allocs0 = allocs.value();
    clock.start();
    const double t0 = now_seconds();
    responses = engine.run(w.requests);
    const double t1 = now_seconds();
    clock.stop();
    cpu_s = clock.between(t0, t1);
    pass_allocs = allocs.value() - allocs0;
  }
  std::size_t dropped = 0;
  if (traced) {
    obs::set_trace_enabled(false);
    dropped = obs::trace_dropped_count();
    if (!obs::write_chrome_trace(trace_path)) {
      std::cerr << "error: cannot write " << trace_path << '\n';
      std::exit(1);
    }
  }

  const serve::EngineStats st = engine.stats();
  const mem::PoolStats ps = engine.pool()->stats();
  std::vector<double> ttft, tpot, stall, queue_wait;
  std::size_t failed = 0;
  double ok_tokens = 0.0;
  double prompt_tokens = 0.0;
  double decisions = 0.0;
  double evicted = 0.0;
  for (const serve::Response& r : responses) {
    rec.tokens.push_back(r.tokens);
    rec.finished_length.push_back(r.finish == serve::FinishReason::kLength);
    prompt_tokens += static_cast<double>(r.prompt_len);
    decisions += static_cast<double>(r.eviction.decisions);
    evicted += static_cast<double>(r.eviction.tokens_evicted);
    if (r.finish != serve::FinishReason::kLength) {
      ++failed;
      continue;
    }
    ok_tokens += static_cast<double>(r.tokens.size());
    using Kind = obs::TimelineEventKind;
    const double queued = r.timeline.first(Kind::kQueued).value_or(0.0);
    const double first = r.timeline.first(Kind::kFirstToken).value_or(queued);
    const double admitted = r.timeline.first(Kind::kAdmitted).value_or(queued);
    const double done = r.timeline.last(Kind::kFinished).value_or(first);
    ttft.push_back(clock.between(queued, first));
    queue_wait.push_back(clock.between(queued, admitted));
    if (r.inter_token.count > 0) {
      // Inter-token gaps are only kept as mean and max, so they are scaled
      // by the CPU share of the request's decode interval.
      const double share =
          done > first ? clock.between(first, done) / (done - first) : 1.0;
      tpot.push_back(share * r.inter_token.mean());
      stall.push_back(share * r.inter_token.max);
    }
  }
  json.open();
  json.key("traced").num(traced ? 1 : 0);
  json.key("trace_file").str(traced ? trace_path : "");
  json.key("trace_dropped").num(static_cast<double>(dropped));
  json.key("cpu_s").num(cpu_s);
  json.key("requests").num(static_cast<double>(responses.size()));
  json.key("failed").num(static_cast<double>(failed));
  json.key("ok_tokens").num(ok_tokens);
  json.key("prompt_tokens").num(prompt_tokens);
  json.key("ttft_s").arr(ttft);
  json.key("tpot_s").arr(tpot);
  json.key("stall_s").arr(stall);
  json.key("queue_wait_s").arr(queue_wait);
  json.key("steps").num(static_cast<double>(st.steps));
  json.key("decoded_tokens").num(static_cast<double>(st.decoded_tokens));
  json.key("prefilled_tokens").num(static_cast<double>(st.prefilled_tokens));
  json.key("replayed_tokens")
      .num(static_cast<double>(st.resume_replayed_tokens));
  json.key("preemptions").num(static_cast<double>(st.preemptions));
  json.key("pool_peak_used_blocks")
      .num(static_cast<double>(st.pool_peak_used_blocks));
  json.key("pool_peak_reserved_blocks")
      .num(static_cast<double>(ps.peak_reserved_blocks));
  json.key("frag_max").num(st.max_fragmentation);
  json.key("pool_allocs").num(static_cast<double>(pass_allocs));
  json.key("prefix_hits").num(static_cast<double>(st.prefix_hits));
  json.key("prefix_misses").num(static_cast<double>(st.prefix_misses));
  json.key("prefix_reused_tokens")
      .num(static_cast<double>(st.prefix_tokens_reused));
  json.key("cow_copies").num(static_cast<double>(st.prefix_cow_copies));
  json.key("evict_decisions").num(decisions);
  json.key("evicted_tokens").num(evicted);
  return rec;
}

template <typename F>
double median_ns_per_call(std::size_t iters, F&& body) {
  std::vector<double> samples;
  for (int rep = 0; rep < 7; ++rep) {
    const double t0 = now_seconds();
    for (std::size_t i = 0; i < iters; ++i) body();
    samples.push_back((now_seconds() - t0) * 1e9 / static_cast<double>(iters));
  }
  std::sort(samples.begin(), samples.end());
  return samples[samples.size() / 2];
}

/// Layer micro-probes at the workload's shapes, outside the serving run:
/// one fork-join of a small pool, and the dispatched matvec (QKV
/// projection width), softmax and fused decode attend (one head) at the
/// workload's median cache budget k. Bytes per call are computed from the
/// operand sizes, not measured.
void run_probes(const model::ModelConfig& mc, const Workload& w, Json& json) {
  std::vector<std::size_t> budgets;
  for (const serve::Request& r : w.requests) {
    budgets.push_back(
        kv::make_budget(r.prompt.size(), r.gen.cache_ratio, r.gen.recent_ratio)
            .max_tokens);
  }
  std::sort(budgets.begin(), budgets.end());
  const std::size_t k = budgets[budgets.size() / 2];
  const std::size_t d = mc.d_model;
  const std::size_t rows = 3 * d;
  const std::size_t dh = mc.d_head();
  const double probe_before = probe_host_speed();

  // The serving pool has one thread, whose parallel_for is a plain call;
  // fork-join is timed on a pool of its own (two threads, at most nproc-1)
  // with a trivial body.
  const std::size_t hw = std::max(1U, std::thread::hardware_concurrency());
  ThreadPool pool(std::clamp<std::size_t>(hw - 1, 1, 2));
  std::vector<std::size_t> sink(2 * pool.size() + 1, 0);
  const double fork_join_ns = median_ns_per_call(2000, [&] {
    pool.parallel_for(
        sink.size(), [&](std::size_t b, std::size_t e) {
          for (std::size_t i = b; i < e; ++i) ++sink[i];
        });
  });

  Rng rng(7);
  const auto fill = [&rng](std::vector<float>& v) {
    for (float& x : v) x = static_cast<float>(rng.normal());
  };
  std::vector<float> a(rows * d), x(d), y(rows);
  fill(a);
  fill(x);
  const cpu::MatvecRowsFn matvec = cpu::matvec_rows_stub.get();
  const double matvec_ns = median_ns_per_call(4000, [&] {
    matvec(a.data(), x.data(), y.data(), 0, rows, d);
  });

  std::vector<float> logits(k), probs(k);
  fill(logits);
  const cpu::SoftmaxFn softmax = cpu::softmax_stub.get();
  const double softmax_ns = median_ns_per_call(20000, [&] {
    softmax(logits.data(), probs.data(), k, 1.0);
  });

  std::vector<float> keys(k * dh), values(k * dh), q(dh), ctx(dh);
  std::vector<float> lrow(k), prow(k);
  fill(keys);
  fill(values);
  fill(q);
  const cpu::KvSegmentView seg{keys.data(), values.data(), 0, k};
  const cpu::DecodeAttendFn attend = cpu::decode_attend_stub.get();
  const float scale = 1.0F / std::sqrt(static_cast<float>(dh));
  const double attend_ns = median_ns_per_call(10000, [&] {
    attend(&seg, 1, q.data(), dh, scale, nullptr, nullptr, lrow.data(),
           prow.data(), ctx.data(), k);
  });

  const double f = sizeof(float);
  json.key("probes").open();
  json.key("probe_s").num(0.5 * (probe_before + probe_host_speed()));
  json.key("cache_len_k").num(static_cast<double>(k));
  json.key("fork_join_threads").num(static_cast<double>(pool.size()));
  json.key("fork_join_us").num(fork_join_ns / 1e3);
  json.key("matvec_ns").num(matvec_ns);
  json.key("matvec_bytes").num(f * static_cast<double>(rows * d + d + rows));
  json.key("softmax_ns").num(softmax_ns);
  json.key("softmax_bytes").num(f * static_cast<double>(2 * k));
  json.key("fused_attend_ns").num(attend_ns);
  json.key("fused_attend_bytes")
      .num(f * static_cast<double>(2 * k * dh + 2 * k + 2 * dh));
  json.close();
}

[[noreturn]] void usage_exit(const std::string& message) {
  std::cerr << "error: " << message
            << "\nusage: serve_bench --workload NAME --seed N --seconds S "
               "[--trace-dir DIR]\n";
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  std::string trace_dir;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) usage_exit(arg + " expects a value");
    const char* value = argv[++i];
    if (arg == "--workload") {
      workload = value;
    } else if (arg == "--seed" || arg == "--seconds") {
      const auto v = parse_count(value);
      if (!v.has_value()) usage_exit(arg + " must be a non-negative integer");
      if (arg == "--seed") {
        seed = *v;
      } else {
        seconds = static_cast<double>(*v);
      }
    } else if (arg == "--trace-dir") {
      trace_dir = value;
    } else {
      usage_exit("unknown argument \"" + arg + "\"");
    }
  }
  if (workload.empty()) usage_exit("--workload is required");

  const model::ModelConfig mc = model::ModelConfig::gptj_like();
  const Workload w = make_workload(workload, seed, mc.vocab_size);
  const std::vector<serve::Request> warmup = warmup_requests(w);

  Json json;
  json.open();
  json.key("workload").str(workload);
  json.key("seed").num(static_cast<double>(seed));
  json.key("threads").num(static_cast<double>(ThreadPool::global().size()));
  json.key("cpu").str(cpu::describe());

  // Set-up, repeated; the engine (and model) of the last one serves.
  std::vector<double> setup_s;
  std::unique_ptr<model::Transformer> model;
  std::unique_ptr<serve::Engine> engine;
  std::vector<double> setup_probe_s;
  for (std::size_t rep = 0; rep < kSetupRepeats; ++rep) {
    engine.reset();
    const double probe_before = probe_host_speed();
    const double t0 = thread_cpu_seconds();
    model = std::make_unique<model::Transformer>(mc);
    engine = std::make_unique<serve::Engine>(*model, w.config);
    engine->run(warmup);
    engine->clear_prefix_cache();
    setup_s.push_back(thread_cpu_seconds() - t0);
    setup_probe_s.push_back(0.5 * (probe_before + probe_host_speed()));
  }
  json.key("setup_s").arr(setup_s);
  json.key("setup_probe_s").arr(setup_probe_s);

  // Timed passes until the time budget is spent; traced runs alternate
  // untraced and traced passes so both see the same host conditions.
  const bool tracing = !trace_dir.empty();
  std::vector<PassRecord> passes;
  std::string pass_array;
  ServingClock clock;
  const std::size_t min_passes = tracing ? 4 : kMinPasses;
  const double t_start = now_seconds();
  while (passes.size() < min_passes || now_seconds() - t_start < seconds) {
    const bool traced = tracing && passes.size() % 2 == 1;
    const std::string path =
        traced ? trace_dir + "/pass" + std::to_string(passes.size()) + ".json"
               : std::string();
    Json one;
    const double probe_before = probe_host_speed();
    passes.push_back(run_pass(*engine, w, traced, path, clock, one));
    one.key("probe_s").num(0.5 * (probe_before + probe_host_speed()));
    one.close();
    pass_array += (pass_array.empty() ? "[" : ",") + one.text();
  }
  json.key("passes").raw(pass_array + "]");

  // Correctness: a request fails a pass unless it finished kLength with
  // the tokens of the first pass; a seeded sample re-run alone on a fresh
  // engine must reproduce them exactly.
  std::size_t failed = 0;
  for (const PassRecord& p : passes) {
    for (std::size_t i = 0; i < p.tokens.size(); ++i) {
      if (!p.finished_length[i] || p.tokens[i] != passes.front().tokens[i]) {
        ++failed;
      }
    }
  }
  Rng pick(seed ^ 0x5eedULL);
  std::vector<std::size_t> order(w.requests.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  for (std::size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[pick.uniform_u64(i)]);
  }
  std::size_t oracle_mismatches = 0;
  const std::size_t n_oracle = std::min(kOracleSample, order.size());
  for (std::size_t s = 0; s < n_oracle; ++s) {
    serve::Request solo = w.requests[order[s]];
    solo.arrival_step = 0;
    serve::Engine fresh(*model, w.config);
    const auto r = fresh.run({&solo, 1});
    if (r.front().finish != serve::FinishReason::kLength ||
        r.front().tokens != passes.front().tokens[order[s]]) {
      ++oracle_mismatches;
    }
  }

  if (tracing) run_probes(mc, w, json);

  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  json.key("oracle_checked").num(static_cast<double>(n_oracle));
  json.key("oracle_mismatches").num(static_cast<double>(oracle_mismatches));
  json.key("attempted")
      .num(static_cast<double>(passes.size() * w.requests.size() + n_oracle));
  json.key("failed").num(static_cast<double>(failed + oracle_mismatches));
  json.key("block_bytes")
      .num(static_cast<double>(mc.n_heads * w.config.paged.block_tokens *
                               mc.d_head() * 2 * sizeof(float)));
  json.key("rss_peak_kib").num(static_cast<double>(ru.ru_maxrss));
  json.close();
  std::cout << json.text() << std::endl;
  return 0;
}
