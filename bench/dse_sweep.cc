// Wall-clock of the DSE over a model-family portfolio sweep:
// {VGG16 conv-only, full VGG16, ResNet-18 (real residual adds)} x
// {VU9P, PYNQ-Z1}, explored for several rounds, each on a fresh engine —
// the same call pattern as DesignFlow and the fleet planner.
//
// Every round must reproduce round 0 bit for bit (the search is a pure
// function of platform, model and options): the "rerun_mismatches" row
// counts scenario results that differ, and any mismatch exits 2. Prints a
// table and writes one BENCH file (default ./BENCH_dse_sweep.json,
// override with argv[1]).
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

  // Round 0 is the reference; later rounds are re-explorations to compare.
  std::vector<DseFrontier> results;
  int mismatches = 0;
  const auto t0 = Clock::now();
  for (int round = 0; round < kRounds; ++round) {
    for (std::size_t i = 0; i < scenarios.size(); ++i) {
      const Scenario& sc = scenarios[i];
      DseFrontier f = DseEngine(*sc.spec).ExploreFrontier(*sc.model);
      if (round == 0) {
        results.push_back(std::move(f));
      } else if (!SameResult(results[i], f)) {
        ++mismatches;
      }
    }
  }
  const double wall_seconds = SecondsSince(t0);

  // --- human-readable table ----------------------------------------------
  std::printf("=== DSE portfolio sweep ===\n");
  std::printf("%-9s %-14s %7s %9s %13s %9s %8s\n", "platform", "model",
              "layers", "frontier", "PI/PO/PT xNI", "obj(Mcy)", "power-W");
  PrintRule(78);
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    const Scenario& sc = scenarios[i];
    const DseFrontier& f = results[i];
    std::printf("%-9s %-14s %7d %9zu %13s %9.2f %8.1f\n", sc.platform,
                sc.model_name, sc.model->num_layers(), f.points.size(),
                ShortConfig(f.best.config).c_str(), f.best.objective / 1e6,
                f.best.power_watts);
  }
  PrintRule(78);
  std::printf("sweep (%d rounds x %zu scenarios): %.1f ms, reruns "
              "bit-identical: %s\n",
              kRounds, scenarios.size(), wall_seconds * 1e3,
              mismatches == 0 ? "yes" : "NO");

  BenchRows out("dse_sweep");
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    const std::string name =
        std::string(scenarios[i].platform) + "/" + scenarios[i].model_name;
    const DseFrontier& f = results[i];
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
  out.Add("sweep", "wall_seconds", wall_seconds, "s", Better::kLower);
  out.Add("sweep", "rerun_mismatches", mismatches, "count", Better::kZero);
  out.Write(json_path);
  return mismatches == 0 ? 0 : 2;
}
