// Shared infrastructure for the per-figure/table bench binaries.
//
// Conventions:
//   - every bench accepts: --samples N  (evaluation samples per cell)
//                          --gen N      (generated tokens per sample)
//                          --seed S     (workload seed)
//                          --csv DIR    (also write CSV series into DIR)
//                          --quick      (tiny sweep for smoke runs)
//   - model families are the scaled-down stand-ins for GPT-J / Cerebras /
//     MPT (see model/config.h); "bench scale" is d_model 128, 4 layers,
//     the configuration the workload knobs were calibrated for.
#pragma once

#include <cstdlib>
#include <cstring>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "core/parse.h"
#include "obs/metrics.h"

#include "keyformer/keyformer.h"

namespace kf::bench {

struct Options {
  std::size_t samples = 8;
  std::size_t gen_tokens = 32;
  std::uint64_t seed = 42;
  std::string csv_dir;
  bool quick = false;
  /// True when --gen appeared on the command line, for benches whose
  /// default generation length differs from Options' (they must not treat
  /// the untouched default as a user choice).
  bool gen_given = false;
};

inline Options parse_options(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : "";
    };
    // Strict digits-only values: bare strtoull would wrap " -4" to ~1.8e19
    // samples or silently read "abc" as 0.
    const auto next_count = [&](const char* flag) -> unsigned long long {
      const char* value = next();
      const auto v = parse_count(value);
      if (!v.has_value()) {
        std::cerr << "error: " << flag
                  << " expects a non-negative integer, got \"" << value
                  << "\"\n";
        std::exit(1);
      }
      return *v;
    };
    if (arg == "--samples") o.samples = next_count("--samples");
    else if (arg == "--gen") {
      o.gen_tokens = next_count("--gen");
      o.gen_given = true;
    }
    else if (arg == "--seed") o.seed = next_count("--seed");
    else if (arg == "--csv") {
      o.csv_dir = next();
      if (o.csv_dir.empty() || o.csv_dir.rfind("--", 0) == 0) {
        std::cerr << "error: --csv expects a directory\n";
        std::exit(1);
      }
    }
    else if (arg == "--quick") o.quick = true;
    else if (arg == "--help" || arg == "-h") {
      std::cout << "options: --samples N --gen N --seed S --csv DIR --quick\n";
      std::exit(0);
    }
  }
  if (o.quick) {
    o.samples = std::max<std::size_t>(2, o.samples / 4);
    o.gen_tokens = std::max<std::size_t>(8, o.gen_tokens / 2);
  }
  // One-line dispatch banner so every bench artifact records which kernel
  // variants actually ran (detected ISA, active choice, any override).
  std::cout << cpu::describe() << '\n';
  return o;
}

/// The three evaluated model families at bench scale.
inline std::vector<model::ModelConfig> bench_models() {
  return {model::ModelConfig::gptj_like(), model::ModelConfig::cerebras_like(),
          model::ModelConfig::mpt_like()};
}

/// CNN/DailyMail-like evaluation set.
inline std::vector<data::Sample> summarization_set(const Options& o,
                                                   std::size_t doc_len = 320) {
  data::SummarizationConfig dc;
  dc.doc_len = doc_len;
  dc.seed = o.seed;
  return data::make_summarization_set(dc, o.samples);
}

/// SODA-like conversation set.
inline std::vector<data::Sample> conversation_set(const Options& o) {
  data::DialogueConfig dc;
  dc.seed = o.seed;
  return data::make_dialogue_set(dc, o.samples);
}

/// GovReport-like long-context set.
inline std::vector<data::Sample> long_report_set(const Options& o,
                                                 std::size_t doc_len = 1024) {
  data::LongReportConfig lc;
  lc.doc_len = doc_len;
  lc.seed = o.seed;
  return data::make_long_report_set(lc, o.samples);
}

/// The paper's standard four comparison policies.
inline std::vector<kv::PolicyKind> paper_policies() {
  return {kv::PolicyKind::kWindow, kv::PolicyKind::kH2O,
          kv::PolicyKind::kKeyformer};
}

inline std::unique_ptr<kv::EvictionPolicy> make_policy(kv::PolicyKind kind,
                                                       std::uint64_t seed) {
  kv::PolicyConfig pc;
  pc.kind = kind;
  pc.seed = seed;
  pc.keyformer.score.seed = seed;
  return kv::make_policy(pc);
}

/// Writes a table as CSV into the --csv directory (no-op when unset).
inline void maybe_write_csv(const Options& o, const Table& table,
                            const std::string& name) {
  if (o.csv_dir.empty()) return;
  const std::string path = o.csv_dir + "/" + name + ".csv";
  if (!CsvWriter::from_table(table).write_file(path)) {
    std::cerr << "warning: could not write " << path << '\n';
  } else {
    std::cout << "(csv written to " << path << ")\n";
  }
}

/// Percentage string helper.
inline std::string pct(double ratio) {
  return Table::num(static_cast<long long>(ratio * 100 + 0.5)) + "%";
}

/// Appends the canonical TTFT + inter-token latency columns (ttft_p50_ms
/// ... itl_p99_ms) to a header row. Shared with serve_sim --metrics-csv so
/// every serving artifact carries one column schema.
inline void append_latency_columns(std::vector<std::string>& header) {
  for (const char* prefix : {"ttft", "itl"}) {
    for (std::string& c : obs::percentile_columns(prefix)) {
      header.push_back(std::move(c));
    }
  }
}

/// The matching TTFT + inter-token cells from an engine-stats snapshot.
inline void append_latency_cells(std::vector<std::string>& row,
                                 const serve::EngineStats& stats) {
  for (const obs::Percentiles* p : {&stats.ttft, &stats.inter_token}) {
    for (std::string& c : obs::percentile_cells(*p)) {
      row.push_back(std::move(c));
    }
  }
}

}  // namespace kf::bench
