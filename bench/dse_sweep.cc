// Wall-clock comparison of the legacy serial DSE loop against the parallel,
// memoized exploration subsystem on a model-family portfolio sweep:
// {VGG16 conv-only, full VGG16, ResNet-18 (real residual adds)} x
// {VU9P, PYNQ-Z1},
// explored repeatedly the way a platform-portfolio service would.
//
//   * serial leg   — one fresh engine per Explore, 1 worker thread, memo
//                    cache off: exactly the pre-subsystem behaviour;
//   * parallel leg — one engine per platform reused across the sweep,
//                    hardware-concurrency workers, shared memo cache.
//
// Both legs produce bit-identical DseResults/frontiers (verified; the
// "result_mismatches" row counts scenarios that differ, and any mismatch
// exits 2); only the wall-clock may differ. Prints a table and writes one
// BENCH file (default ./BENCH_dse_sweep.json, override with argv[1]).
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "dse/search.h"
#include "nn/builders.h"
#include "platform/fpga_spec.h"

using namespace hdnn;
using namespace hdnn::bench;

namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

bool SameResult(const DseFrontier& a, const DseFrontier& b) {
  if (!(a.best.config == b.best.config) ||
      a.best.estimated_cycles != b.best.estimated_cycles ||
      a.best.objective != b.best.objective ||
      a.best.power_watts != b.best.power_watts ||
      a.points.size() != b.points.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.points.size(); ++i) {
    const ParetoPoint& pa = a.points[i];
    const ParetoPoint& pb = b.points[i];
    if (!(pa.config == pb.config) || pa.objective != pb.objective ||
        pa.power_watts != pb.power_watts || !(pa.mapping == pb.mapping)) {
      return false;
    }
  }
  return true;
}

struct Scenario {
  const char* platform;
  const FpgaSpec* spec;
  const char* model_name;
  const Model* model;
};

std::string ShortConfig(const AccelConfig& cfg) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%d/%d/%d x%d", cfg.pi, cfg.po, cfg.pt,
                cfg.ni);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path = argc > 1 ? argv[1] : "BENCH_dse_sweep.json";

  const Model vgg_conv = BuildVgg16ConvOnly();
  const Model vgg_full = BuildVgg16();
  // True ResNet-18 with residual edges: the skip adds change per-layer
  // latency (SAVE-stage skip reads), so the sweep explores the honest model.
  const Model resnet = BuildResNet18();

  const std::vector<Scenario> scenarios = {
      {"VU9P", &Vu9pSpec(), "vgg16_conv", &vgg_conv},
      {"VU9P", &Vu9pSpec(), "vgg16_full", &vgg_full},
      {"VU9P", &Vu9pSpec(), "resnet18", &resnet},
      {"PYNQ-Z1", &PynqZ1Spec(), "vgg16_conv", &vgg_conv},
      {"PYNQ-Z1", &PynqZ1Spec(), "vgg16_full", &vgg_full},
      {"PYNQ-Z1", &PynqZ1Spec(), "resnet18", &resnet},
  };
  constexpr int kRounds = 4;

  DseOptions serial_opts;
  serial_opts.num_threads = 1;
  serial_opts.use_memo = false;

  DseOptions parallel_opts;
  parallel_opts.num_threads = 0;  // hardware concurrency
  parallel_opts.use_memo = true;

  // --- serial leg: fresh engine per explore, no memo, one thread ---------
  std::vector<DseFrontier> serial_results;
  const auto t_serial = Clock::now();
  for (int round = 0; round < kRounds; ++round) {
    for (const Scenario& sc : scenarios) {
      DseEngine engine(*sc.spec);
      DseFrontier f = engine.ExploreFrontier(*sc.model, serial_opts);
      if (round == 0) serial_results.push_back(std::move(f));
    }
  }
  const double serial_seconds = SecondsSince(t_serial);

  // --- parallel leg: per-platform engines shared across the sweep --------
  DseEngine vu9p_engine(Vu9pSpec());
  DseEngine pynq_engine(PynqZ1Spec());
  auto engine_for = [&](const Scenario& sc) -> DseEngine& {
    return sc.spec == &Vu9pSpec() ? vu9p_engine : pynq_engine;
  };
  std::vector<DseFrontier> parallel_results;
  const auto t_parallel = Clock::now();
  for (int round = 0; round < kRounds; ++round) {
    for (const Scenario& sc : scenarios) {
      DseFrontier f = engine_for(sc).ExploreFrontier(*sc.model, parallel_opts);
      if (round == 0) parallel_results.push_back(std::move(f));
    }
  }
  const double parallel_seconds = SecondsSince(t_parallel);

  int mismatches = 0;
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    if (!SameResult(serial_results[i], parallel_results[i])) ++mismatches;
  }
  const LatencyMemoCache::Stats vu9p_stats = vu9p_engine.cache_stats();
  const LatencyMemoCache::Stats pynq_stats = pynq_engine.cache_stats();
  const double hit_rate =
      static_cast<double>(vu9p_stats.hits + pynq_stats.hits) /
      static_cast<double>(vu9p_stats.hits + pynq_stats.hits +
                          vu9p_stats.misses + pynq_stats.misses);
  const double speedup = serial_seconds / parallel_seconds;

  // --- human-readable table ----------------------------------------------
  std::printf("=== DSE portfolio sweep: serial (legacy) vs parallel+memo ===\n");
  std::printf("%-9s %-14s %7s %9s %13s %9s %8s\n", "platform", "model",
              "layers", "frontier", "PI/PO/PT xNI", "obj(Mcy)", "power-W");
  PrintRule(78);
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    const Scenario& sc = scenarios[i];
    const DseFrontier& f = parallel_results[i];
    std::printf("%-9s %-14s %7d %9zu %13s %9.2f %8.1f\n", sc.platform,
                sc.model_name, sc.model->num_layers(), f.points.size(),
                ShortConfig(f.best.config).c_str(), f.best.objective / 1e6,
                f.best.power_watts);
  }
  PrintRule(78);
  std::printf("sweep (%d rounds x %zu scenarios):\n", kRounds,
              scenarios.size());
  std::printf("  serial (fresh engine, 1 thread, no memo) : %8.1f ms\n",
              serial_seconds * 1e3);
  std::printf("  parallel (shared engine + memo cache)    : %8.1f ms\n",
              parallel_seconds * 1e3);
  std::printf("  speedup %.2fx   memo hit rate %.1f%%   bit-identical: %s\n",
              speedup, 100 * hit_rate, mismatches == 0 ? "yes" : "NO");

  BenchRows out("dse_sweep");
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    const std::string name =
        std::string(scenarios[i].platform) + "/" + scenarios[i].model_name;
    const DseFrontier& f = parallel_results[i];
    out.Add(name, "layers", scenarios[i].model->num_layers(), "count",
            Better::kNeutral);
    out.Add(name, "candidates_evaluated", f.candidates_evaluated, "count",
            Better::kLower);
    out.Add(name, "frontier_points", f.points.size(), "count",
            Better::kHigher);
    out.Add(name, "best_objective_cycles", f.best.objective, "cycles",
            Better::kLower);
    out.Add(name, "best_power_watts", f.best.power_watts, "W",
            Better::kLower);
  }
  out.Add("sweep", "rounds", kRounds, "count", Better::kNeutral);
  out.Add("sweep", "serial_wall_seconds", serial_seconds, "s", Better::kLower);
  out.Add("sweep", "parallel_wall_seconds", parallel_seconds, "s",
          Better::kLower);
  out.Add("sweep", "speedup", speedup, "x", Better::kHigher);
  out.Add("sweep", "memo_hit_rate", hit_rate, "frac", Better::kHigher);
  out.Add("sweep", "result_mismatches", mismatches, "count", Better::kZero);
  out.Write(json_path);
  return mismatches == 0 ? 0 : 2;
}
