// Heterogeneous fleet serving: planner portfolio vs naive homogeneous
// replication under one power budget (ROADMAP item 5 tentpole bench).
//
// Scenario: two latency classes over two models — "interactive" (TinyCnn,
// 2 ms deadline) and "bulk" (TinyResidualBlock, 25 ms) — offered open-loop
// at rates beyond what the budget can serve, so the measurement is
// sustained QPS under overload. Two fleets face the same Poisson trace:
//
//   * naive      — the legacy single-objective throughput champion
//                  (DseEngine::Explore's pick) replicated until the power
//                  budget is spent; the residue is stranded.
//   * portfolio  — PlanPortfolio's greedy + local-swap mix over the union
//                  of both platforms' Pareto frontiers (cloud VU9P points
//                  next to embedded PYNQ points).
//
// Each fleet runs through SimulateFleet: virtual-time event simulation,
// NI instances per board paced on MEASURED device seconds (cycle-sim, not
// the estimator), deadline-aware power-of-two-choices routing, per-class
// weighted drain scan. Reported per fleet: achieved QPS, per-class
// p50/p99, per-shard utilization, fleet energy and QPS per joule.
//
// Checks (non-zero exit on failure):
//   * determinism — the routing decision vector and served counts are
//     bit-identical across two simulation reruns;
//   * validation — estimator vs simulated per-item latency is reported per
//     (board, model), and per-shard measured QPS is reported against the
//     planner's allocation;
//   * headline — the portfolio fleet must reach >= 1.3x the naive fleet's
//     sustained QPS or >= 1.3x its QPS per joule (it reaches both).
//
// Prints the rows and writes them as one BENCH file (default
// ./BENCH_fleet.json, override with argv[1]). `--smoke` shortens the trace
// for CI.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "bench_util.h"
#include "compiler/weight_pack.h"
#include "fleet/fleet.h"
#include "fleet/portfolio.h"
#include "nn/builders.h"
#include "platform/fpga_spec.h"
#include "runtime/runtime.h"

using namespace hdnn;

namespace {

using bench::Better;

/// "3x vu9p/pi4po4pt4ni7 + 1x pynq-z1/..." — the plan as humans read it.
std::string DescribePlan(const std::vector<BoardCandidate>& candidates,
                         const PortfolioPlan& plan) {
  std::map<int, int> counts;
  for (int b : plan.boards) ++counts[b];
  std::string out;
  for (const auto& [cand, count] : counts) {
    const BoardCandidate& c = candidates[static_cast<std::size_t>(cand)];
    char buf[128];
    std::snprintf(buf, sizeof(buf), "%s%dx %s/pi%d po%d pt%d ni%d",
                  out.empty() ? "" : " + ", count, c.spec.name.c_str(),
                  c.config.pi, c.config.po, c.config.pt, c.config.ni);
    out += buf;
  }
  return out.empty() ? "(empty)" : out;
}

/// Simulated seconds for one item: compile + one timing-only cycle sim.
double MeasureDeviceSeconds(const BoardCandidate& cand, const Model& model,
                            const std::vector<LayerMapping>& mapping) {
  const Compiler compiler(cand.config, cand.spec);
  const CompiledModel cm = compiler.Compile(model, mapping);
  Runtime runtime(cand.config, cand.spec);
  const RunReport report =
      runtime.Execute(model, cm, {}, {}, /*functional=*/false);
  return report.stats.total_cycles / (cand.spec.freq_mhz * 1e6);
}

/// Board label as it appears in row names: "vu9p-pi4po4pt4ni8".
std::string BoardLabel(const BoardCandidate& cand) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "%s-pi%dpo%dpt%dni%d", cand.spec.name.c_str(),
                cand.config.pi, cand.config.po, cand.config.pt, cand.config.ni);
  return buf;
}

void AddFleetRows(bench::BenchRows& out, const std::string& fleet,
                  const PortfolioPlan& plan,
                  const std::vector<BoardCandidate>& candidates,
                  const std::vector<LatencyClass>& classes,
                  const FleetSimResult& sim) {
  out.Add(fleet + "/plan", "boards", plan.boards.size(), "count",
          Better::kNeutral);
  out.Add(fleet + "/plan", "power_watts", plan.power_watts, "W",
          Better::kNeutral);
  out.Add(fleet + "/plan", "planned_qps", plan.planned_qps, "1/s",
          Better::kHigher);
  for (std::size_t s = 0; s < sim.shards.size(); ++s) {
    const FleetShardStats& ss = sim.shards[s];
    const std::string name =
        fleet + "/shard" + std::to_string(s) + "/" +
        BoardLabel(candidates[static_cast<std::size_t>(ss.candidate_index)]);
    double planned = 0;
    for (double q : plan.shard_class_qps[s]) planned += q;
    out.Add(name, "planned_qps", planned, "1/s", Better::kHigher);
    out.Add(name, "measured_qps", ss.measured_qps, "1/s", Better::kHigher);
    out.Add(name, "utilization", ss.utilization, "frac", Better::kNeutral);
    out.Add(name, "energy_joules", ss.energy_joules, "J", Better::kNeutral);
  }
  for (std::size_t c = 0; c < classes.size(); ++c) {
    const FleetClassStats& cs = sim.classes[c];
    const std::string name = fleet + "/class/" + classes[c].name;
    out.Add(name, "offered_qps", classes[c].offered_qps, "1/s",
            Better::kNeutral);
    out.Add(name, "achieved_qps", cs.achieved_qps, "1/s", Better::kHigher);
    out.Add(name, "p50_ms", cs.p50_ms, "ms", Better::kLower);
    out.Add(name, "p99_ms", cs.p99_ms, "ms", Better::kLower);
    out.Add(name, "shed_rate",
            cs.submitted > 0 ? static_cast<double>(cs.rejected + cs.expired +
                                                   cs.unroutable) /
                                   static_cast<double>(cs.submitted)
                             : 0,
            "frac", Better::kLower);
  }
  out.Add(fleet, "total_ok_qps", sim.total_ok_qps, "1/s", Better::kHigher);
  out.Add(fleet, "qps_per_joule", sim.qps_per_joule, "1/J", Better::kHigher);
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path = "BENCH_fleet.json";
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else {
      json_path = argv[i];
    }
  }

  const Model tiny = BuildTinyCnn();
  const Model resid = BuildTinyResidualBlock();
  const std::vector<const Model*> models{&tiny, &resid};
  const std::vector<const FpgaSpec*> platforms{&Vu9pSpec(), &PynqZ1Spec()};

  // Offered traffic: ~1.6x what the 76 W budget can serve (measured), so
  // both fleets saturate and achieved QPS measures capacity, not demand.
  const std::vector<LatencyClass> classes{
      {"interactive", 0, 180000.0, 0.002},
      {"bulk", 1, 420000.0, 0.025},
  };
  PortfolioOptions popts;
  popts.power_budget_watts = 76.0;
  popts.max_boards = 16;

  const std::vector<BoardCandidate> candidates =
      BuildBoardCandidates(platforms, models);

  const int naive_idx = NaiveBestCandidate(candidates, classes);
  const PortfolioPlan naive =
      PlanHomogeneous(candidates, naive_idx, classes, popts);
  const PortfolioPlan het = PlanPortfolio(candidates, classes, popts);

  // Device matrix: measured cycle-sim seconds for every board the fleets
  // deploy; unused candidates keep the estimator number (never dispatched).
  std::vector<std::vector<double>> device_seconds;
  device_seconds.reserve(candidates.size());
  for (const BoardCandidate& cand : candidates)
    device_seconds.push_back(cand.item_seconds);
  std::vector<int> used;
  for (int b : naive.boards) used.push_back(b);
  for (int b : het.boards) used.push_back(b);
  std::sort(used.begin(), used.end());
  used.erase(std::unique(used.begin(), used.end()), used.end());
  struct ValidationRow {
    int cand;
    int model;
    double est_s;
    double sim_s;
  };
  std::vector<ValidationRow> validation;
  for (int b : used) {
    const BoardCandidate& cand = candidates[static_cast<std::size_t>(b)];
    for (std::size_t m = 0; m < models.size(); ++m) {
      const double sim_s =
          MeasureDeviceSeconds(cand, *models[m], cand.mappings[m]);
      device_seconds[static_cast<std::size_t>(b)][m] = sim_s;
      validation.push_back({b, static_cast<int>(m), cand.item_seconds[m],
                            sim_s});
    }
  }

  const double duration = smoke ? 0.04 : 0.50;
  const std::vector<FleetTraceArrival> trace =
      MakePoissonTrace(classes, duration, 2026);

  FleetOptions fopts;
  fopts.max_batch = 8;
  fopts.max_queue_delay_seconds = 0.0002;
  fopts.max_queue_depth = 64;
  fopts.router.seed = 7;
  fopts.router.choices = 2;
  fopts.class_weights = {2.0, 1.0};  // interactive gets 2x the drain scan

  const FleetSimResult het_sim = SimulateFleet(
      candidates, het.boards, classes, device_seconds, trace, fopts);
  const FleetSimResult het_rerun = SimulateFleet(
      candidates, het.boards, classes, device_seconds, trace, fopts);
  const bool decisions_stable =
      het_sim.decisions == het_rerun.decisions &&
      het_sim.total_ok_qps == het_rerun.total_ok_qps &&
      het_sim.energy_joules == het_rerun.energy_joules;
  const FleetSimResult naive_sim = SimulateFleet(
      candidates, naive.boards, classes, device_seconds, trace, fopts);

  const double qps_ratio = naive_sim.total_ok_qps > 0
                               ? het_sim.total_ok_qps / naive_sim.total_ok_qps
                               : 0;
  const double qpj_ratio =
      naive_sim.qps_per_joule > 0
          ? het_sim.qps_per_joule / naive_sim.qps_per_joule
          : 0;

  std::printf("fleet_qps: %s + %s under %.1f W%s, %zu candidates, %zu "
              "arrivals over %.3f s\n",
              tiny.name().c_str(), resid.name().c_str(),
              popts.power_budget_watts, smoke ? " (smoke)" : "",
              candidates.size(), trace.size(), duration);
  std::printf("naive     plan: %s\n", DescribePlan(candidates, naive).c_str());
  std::printf("portfolio plan: %s\n", DescribePlan(candidates, het).c_str());

  bench::BenchRows out("fleet");
  out.Add("trace", "candidates", candidates.size(), "count",
          Better::kNeutral);
  out.Add("trace", "arrivals", trace.size(), "count", Better::kNeutral);
  for (const ValidationRow& v : validation) {
    const std::string name =
        "validation/" +
        BoardLabel(candidates[static_cast<std::size_t>(v.cand)]) + "/" +
        models[static_cast<std::size_t>(v.model)]->name();
    out.Add(name, "estimated_item_ms", v.est_s * 1e3, "ms", Better::kNeutral);
    out.Add(name, "simulated_item_ms", v.sim_s * 1e3, "ms", Better::kLower);
    out.Add(name, "est_over_sim", v.sim_s > 0 ? v.est_s / v.sim_s : 0, "x",
            Better::kNeutral);
  }
  AddFleetRows(out, "portfolio", het, candidates, classes, het_sim);
  AddFleetRows(out, "naive", naive, candidates, classes, naive_sim);
  out.Add("determinism", "replay_mismatches", decisions_stable ? 0 : 1,
          "count", Better::kZero);
  out.Add("determinism", "decisions", het_sim.decisions.size(), "count",
          Better::kNeutral);
  out.Add("portfolio_vs_naive", "qps_ratio", qps_ratio, "x", Better::kHigher);
  out.Add("portfolio_vs_naive", "qps_per_joule_ratio", qpj_ratio, "x",
          Better::kHigher);
  out.Print();
  out.Write(json_path);

  if (!decisions_stable) {
    std::fprintf(stderr, "FAIL: determinism (routing decisions differ)\n");
    return 2;
  }
  if (qps_ratio < 1.3 && qpj_ratio < 1.3) {
    std::fprintf(stderr,
                 "FAIL: portfolio fleet below 1.3x naive (qps %.3fx, "
                 "qps/J %.3fx)\n",
                 qps_ratio, qpj_ratio);
    return 3;
  }
  std::fprintf(stderr, "portfolio vs naive: %.2fx QPS, %.2fx QPS/joule\n",
               qps_ratio, qpj_ratio);
  return 0;
}
