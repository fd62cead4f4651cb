// Shared helpers for the paper-reproduction benchmarks.
#ifndef HDNN_BENCH_BENCH_UTIL_H_
#define HDNN_BENCH_BENCH_UTIL_H_

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/check.h"
#include "compiler/compiler.h"
#include "dse/search.h"
#include "estimator/latency_model.h"
#include "nn/builders.h"
#include "platform/fpga_spec.h"
#include "runtime/runtime.h"

namespace hdnn::bench {

/// The two published design points (paper Sec. 6.1), as the DSE also finds.
inline AccelConfig Vu9pDesignPoint() {
  AccelConfig cfg;
  cfg.pi = 4;
  cfg.po = 4;
  cfg.pt = 6;
  cfg.ni = 6;
  cfg.input_buffer_vectors = 16384;
  cfg.weight_buffer_vectors = 9216;
  cfg.output_buffer_vectors = 8192;
  return cfg;
}

inline AccelConfig PynqDesignPoint() {
  AccelConfig cfg;
  cfg.pi = 4;
  cfg.po = 4;
  cfg.pt = 4;
  cfg.ni = 1;
  cfg.input_buffer_vectors = 8192;
  cfg.weight_buffer_vectors = 2304;
  cfg.output_buffer_vectors = 8192;
  return cfg;
}

/// Compiles and simulates one single-conv layer under a forced mapping;
/// returns simulated cycles (timing-only).
inline double SimulateLayerCycles(const Model& model, ConvMode mode,
                                  Dataflow flow, const AccelConfig& cfg,
                                  const FpgaSpec& spec) {
  const Compiler compiler(cfg, spec);
  std::vector<LayerMapping> mapping(
      static_cast<std::size_t>(model.num_layers()), LayerMapping{mode, flow});
  CompiledModel cm = compiler.Compile(model, mapping);
  Runtime runtime(cfg, spec);
  RunReport report = runtime.Execute(model, cm, {}, {}, /*functional=*/false);
  return report.stats.total_cycles;
}

/// Best-dataflow simulated cycles for a mode (what the compiler would run).
inline double SimulateLayerBestFlow(const Model& model, ConvMode mode,
                                    const AccelConfig& cfg,
                                    const FpgaSpec& spec) {
  double best = 1e300;
  for (Dataflow flow :
       {Dataflow::kInputStationary, Dataflow::kWeightStationary}) {
    try {
      best = std::min(best, SimulateLayerCycles(model, mode, flow, cfg, spec));
    } catch (const Error&) {
      // combination not schedulable (slices/CB constraints) — skip
    }
  }
  return best;
}

/// Best-dataflow analytical estimate for a mode.
inline double EstimateLayerBestFlow(const Model& model, ConvMode mode,
                                    const AccelConfig& cfg,
                                    const FpgaSpec& spec) {
  double best = 1e300;
  for (Dataflow flow :
       {Dataflow::kInputStationary, Dataflow::kWeightStationary}) {
    try {
      const GroupCounts g =
          ComputeGroups(model.layer(0), model.InputOf(0), mode, cfg);
      if (g.slices > 1 && flow != Dataflow::kInputStationary) continue;
      if (g.cb > 1 &&
          (flow != Dataflow::kWeightStationary || g.fmap_groups() != 1)) {
        continue;
      }
      best = std::min(best, EstimateLayerLatency(model.layer(0),
                                                 model.InputOf(0), mode, flow,
                                                 cfg, spec)
                                .total);
    } catch (const Error&) {
    }
  }
  return best;
}

/// GOPS for `ops` in `cycles` (single instance).
inline double Gops(double ops, double cycles, const FpgaSpec& spec) {
  return ops / (cycles / (spec.freq_mhz * 1e6)) / 1e9;
}

inline void PrintRule(int width = 100) {
  for (int i = 0; i < width; ++i) std::putchar('-');
  std::putchar('\n');
}

/// Which way a bench row improves. kZero marks a self-check: a count of
/// mismatches or violations that must read 0.
enum class Better { kHigher, kLower, kNeutral, kZero };

/// The one BENCH_*.json format, read by tools/bench_delta.py:
///   {"bench": <bench>, "rows": [{"name", "metric", "value", "unit",
///                                "better": higher|lower|neutral|zero}, ...]}
/// `name` holds the cell coordinates (platform/model/workers/...) and
/// `metric` what was measured there. Each (name, metric) pair is unique in
/// a file; Add throws on a duplicate, a non-finite value or a string that
/// would need JSON escaping.
class BenchRows {
 public:
  explicit BenchRows(std::string bench) : bench_(std::move(bench)) {}

  void Add(const std::string& name, const std::string& metric, double value,
           const std::string& unit, Better better) {
    for (const std::string* s : {&name, &metric, &unit}) {
      HDNN_CHECK(s->find_first_of("\"\\\n") == std::string::npos)
          << bench_ << ": row string needs escaping: " << *s;
    }
    HDNN_CHECK(!name.empty() && !metric.empty())
        << bench_ << ": row needs a name and a metric";
    HDNN_CHECK(std::isfinite(value))
        << bench_ << ": " << name << " " << metric << " is not finite";
    HDNN_CHECK(keys_.emplace(name, metric).second)
        << bench_ << ": duplicate row " << name << " " << metric;
    rows_.push_back({name, metric, value, unit, better});
  }

  /// Prints one line per name with its metric=value pairs: the human view
  /// of a bench whose only table is its rows.
  void Print() const {
    for (std::size_t i = 0; i < rows_.size(); ++i) {
      const Row& r = rows_[i];
      if (i == 0 || rows_[i - 1].name != r.name) {
        std::printf("%s%-36s", i == 0 ? "" : "\n", r.name.c_str());
      }
      std::printf(" %s=%.6g", r.metric.c_str(), r.value);
    }
    if (!rows_.empty()) std::printf("\n");
  }

  /// Writes the document to `path`; exits 1 when it cannot be written.
  /// Values use the shortest form that reads back to the same double.
  void Write(const std::string& path) const {
    static const char* const kBetter[] = {"higher", "lower", "neutral",
                                          "zero"};
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot open %s for writing\n", path.c_str());
      std::exit(1);
    }
    std::fprintf(f, "{\"bench\": \"%s\", \"rows\": [", bench_.c_str());
    for (std::size_t i = 0; i < rows_.size(); ++i) {
      const Row& r = rows_[i];
      char value[32];
      *std::to_chars(value, value + sizeof(value) - 1, r.value).ptr = '\0';
      std::fprintf(f,
                   "%s\n  {\"name\": \"%s\", \"metric\": \"%s\", "
                   "\"value\": %s, \"unit\": \"%s\", \"better\": \"%s\"}",
                   i == 0 ? "" : ",", r.name.c_str(), r.metric.c_str(), value,
                   r.unit.c_str(), kBetter[static_cast<int>(r.better)]);
    }
    std::fprintf(f, "\n]}\n");
    if (std::fclose(f) != 0) {
      std::fprintf(stderr, "cannot write %s\n", path.c_str());
      std::exit(1);
    }
    std::printf("wrote %s (%zu rows)\n", path.c_str(), rows_.size());
  }

 private:
  struct Row {
    std::string name, metric;
    double value;
    std::string unit;
    Better better;
  };
  std::string bench_;
  std::vector<Row> rows_;
  std::set<std::pair<std::string, std::string>> keys_;
};

}  // namespace hdnn::bench

#endif  // HDNN_BENCH_BENCH_UTIL_H_
