#include "dse/search.h"

#include <algorithm>
#include <limits>
#include <string>
#include <utility>

#include "common/check.h"
#include "compiler/fusion.h"
#include "platform/power_model.h"

namespace hdnn {
namespace {

/// Buffer geometry ladder (vectors per half), largest first. The DSE picks
/// the largest rung whose BRAM cost fits; performance grows with buffer
/// size (fewer fmap groups, less halo reload).
struct BufferRung {
  int input, weight, output;
};
constexpr BufferRung kBufferLadder[] = {
    {16384, 18432, 8192},  // deep weight buffers keep GK small on big parts
    {16384, 9216, 8192},
    {16384, 4608, 8192},
    {8192, 2304, 8192},
    {8192, 2304, 4096},
    {4096, 1152, 4096},
    {2048, 1152, 2048},
    {2048, 576, 1024},
};

bool IsLegalCombo(const ConvLayer& layer, ConvMode mode, Dataflow flow,
                  const GroupCounts& g) {
  if (mode == ConvMode::kWinograd && !WinogradApplicable(layer)) return false;
  if (g.cb > 1) {
    // Channel blocking requires WS and a single fmap group (compiler rule).
    if (flow != Dataflow::kWeightStationary) return false;
    if (g.fmap_groups() != 1) return false;
    if (g.slices > 1) return false;
  } else if (g.slices > 1 && flow != Dataflow::kInputStationary) {
    return false;  // decomposed kernels accumulate per group -> IS only
  }
  return true;
}

/// A feasible enumerated candidate with the resource estimates computed
/// while assigning its buffers (reused when scoring the frontier).
struct Candidate {
  AccelConfig cfg;
  ResourceEstimate analytical;
  ResourceEstimate implementation;
};

/// Gives `cand` the largest buffer rung that fits the platform for its
/// parallel factors, with that rung's resource estimates; returns false if
/// no rung fits.
bool AssignBuffers(const FpgaSpec& spec, const ProfileConstants& profile,
                   Candidate* cand) {
  AccelConfig& cfg = cand->cfg;
  for (const BufferRung& rung : kBufferLadder) {
    cfg.input_buffer_vectors = rung.input;
    cfg.weight_buffer_vectors = rung.weight;
    cfg.output_buffer_vectors = rung.output;
    // The analytical model is checked against the raw Table 2 limits (it
    // deliberately over-estimates BRAM, as the paper's own Table 3 shows);
    // the implementation model additionally honours the per-die headroom.
    const ResourceEstimate impl = ImplementationResources(cfg, spec, profile);
    const ResourceEstimate ana = AnalyticalResources(cfg, spec, profile);
    if (FitsDeviceLimits(ana, spec) && FitsDeviceLimits(impl, spec) &&
        FitsPerDie(impl, cfg, spec)) {
      cand->analytical = ana;
      cand->implementation = impl;
      return true;
    }
  }
  return false;
}

/// Step 1, in the fixed order (PT, PI, PO, NI) that every later tie-break
/// and sort relies on.
std::vector<Candidate> EnumerateFeasible(const FpgaSpec& spec,
                                         const ProfileConstants& profile,
                                         const DseOptions& opts) {
  std::vector<Candidate> candidates;
  for (int pt : {4, 6}) {
    // Broadcast fanout cap: PI*PT channels of DATA_WIDTH bits is the
    // timing-critical broadcast net (profiled routing constraint; this is
    // what keeps instances within one die on multi-SLR parts). It also
    // bounds PI, so the doubling never overflows whatever max_pi is.
    for (int pi = 1; pi <= opts.max_pi && pi * pt <= 32; pi *= 2) {
      for (int po = 1; po <= pi; po *= 2) {
        for (int ni = 1; ni <= opts.max_ni; ++ni) {
          Candidate cand;
          cand.cfg.pi = pi;
          cand.cfg.po = po;
          cand.cfg.pt = pt;
          cand.cfg.ni = ni;
          if (AssignBuffers(spec, profile, &cand)) {
            candidates.push_back(std::move(cand));
          }
        }
      }
    }
  }
  return candidates;
}

/// The best legal dataflow for one (layer, mode) on a config and its
/// Eq. 12-15 total, or "infeasible" when no dataflow can be scheduled.
struct LayerLatencyValue {
  bool feasible = false;
  double total_cycles = 0;
  Dataflow dataflow = Dataflow::kInputStationary;
};

LayerLatencyValue EvaluateLayerMode(const ConvLayer& layer,
                                    const FmapShape& in, ConvMode mode,
                                    const AccelConfig& cfg,
                                    const FpgaSpec& spec,
                                    const FusionContext& fusion = {}) {
  LayerLatencyValue value;
  GroupCounts g;
  try {
    g = ComputeGroups(layer, in, mode, cfg);
  } catch (const CapacityError&) {
    return value;  // this mode cannot be scheduled on this config
  }
  double best = std::numeric_limits<double>::infinity();
  for (Dataflow flow :
       {Dataflow::kInputStationary, Dataflow::kWeightStationary}) {
    if (!IsLegalCombo(layer, mode, flow, g)) continue;
    const LatencyBreakdown lb =
        EstimateLayerLatency(layer, in, mode, flow, cfg, spec, fusion);
    if (lb.total < best) {
      best = lb.total;
      value.feasible = true;
      value.total_cycles = lb.total;
      value.dataflow = flow;
    }
  }
  return value;
}

/// Best (mode, dataflow) for one layer on one config: the single source of
/// the mode/dataflow selection rule.
struct LayerChoice {
  bool feasible = false;
  LayerMapping mapping;
  double cycles = 0;
};

LayerChoice BestLayerChoice(const ConvLayer& layer, const FmapShape& in,
                            const AccelConfig& cfg, const FpgaSpec& spec,
                            const DseOptions& opts) {
  LayerChoice choice;
  double best = std::numeric_limits<double>::infinity();
  for (ConvMode mode : {ConvMode::kSpatial, ConvMode::kWinograd}) {
    if (mode == ConvMode::kWinograd && !opts.allow_winograd) continue;
    if (mode == ConvMode::kWinograd && !WinogradApplicable(layer)) continue;
    const LayerLatencyValue v = EvaluateLayerMode(layer, in, mode, cfg, spec);
    if (!v.feasible) continue;
    if (v.total_cycles < best) {
      best = v.total_cycles;
      choice.feasible = true;
      choice.mapping = LayerMapping{mode, v.dataflow};
      choice.cycles = v.total_cycles;
    }
  }
  return choice;
}

/// Layer inputs once, not per candidate (InputOf is O(i) per call).
std::vector<FmapShape> LayerInputs(const Model& model) {
  std::vector<FmapShape> inputs;
  inputs.reserve(static_cast<std::size_t>(model.num_layers()));
  for (int i = 0; i < model.num_layers(); ++i) {
    inputs.push_back(model.InputOf(i));
  }
  return inputs;
}

/// Fused-segment scoring (opts.fuse_segments): plans the legal fusable
/// chains for `cfg`, re-scores each chain with resident hand-offs (mode
/// kept, dataflow re-picked) and adopts it when it beats the unfused chain.
/// Updates `mapping` (fuse_output + dataflow) and `total_cycles` in place,
/// so Explore / ExploreFrontier and BestMapping agree on the decision.
void ApplyFusion(const Model& model, const std::vector<FmapShape>& inputs,
                 const AccelConfig& cfg, const FpgaSpec& spec,
                 const DseOptions& opts, std::vector<LayerMapping>* mapping,
                 double* total_cycles) {
  if (!opts.fuse_segments) return;
  const std::vector<bool> plan = PlanFusion(model, cfg);
  // The sole consumer of each planned tensor (one reader by legality).
  std::vector<int> consumer(static_cast<std::size_t>(model.num_layers()), -1);
  for (int j = 0; j < model.num_layers(); ++j) {
    const int p = model.input_index(j);
    if (p >= 0 && plan[static_cast<std::size_t>(p)]) {
      consumer[static_cast<std::size_t>(p)] = j;
    }
  }

  // Planned edges form vertex-disjoint paths (one input edge per layer, one
  // consumer per fused tensor). Walk each maximal chain from its head and
  // score it fused vs unfused as a unit: mode stays fixed (the hand-off does
  // not change arithmetic legality), the dataflow is re-picked per layer
  // under the resident contexts.
  for (int head = 0; head < model.num_layers(); ++head) {
    if (!plan[static_cast<std::size_t>(head)]) continue;
    const int producer = model.input_index(head);
    if (producer >= 0 && plan[static_cast<std::size_t>(producer)]) {
      continue;  // interior of a chain; handled from its head
    }
    std::vector<int> chain{head};
    int tail = head;
    while (plan[static_cast<std::size_t>(tail)]) {
      tail = consumer[static_cast<std::size_t>(tail)];
      HDNN_INTERNAL(tail > chain.back()) << "fusion chain is not a path";
      chain.push_back(tail);
    }

    double unfused = 0, fused = 0;
    std::vector<LayerLatencyValue> values;
    values.reserve(chain.size());
    bool feasible = true;
    for (std::size_t k = 0; k < chain.size(); ++k) {
      const int li = chain[k];
      const ConvLayer& layer = model.layer(li);
      const FmapShape& in = inputs[static_cast<std::size_t>(li)];
      const ConvMode mode = (*mapping)[static_cast<std::size_t>(li)].mode;
      FusionContext ctx;
      ctx.input_resident = k > 0;
      ctx.output_resident = k + 1 < chain.size();
      const LayerLatencyValue fv =
          EvaluateLayerMode(layer, in, mode, cfg, spec, ctx);
      if (!fv.feasible) {
        feasible = false;
        break;
      }
      values.push_back(fv);
      fused += fv.total_cycles;
      unfused += EvaluateLayerMode(layer, in, mode, cfg, spec).total_cycles;
    }
    if (!feasible || fused >= unfused) continue;

    for (std::size_t k = 0; k < chain.size(); ++k) {
      LayerMapping& lm = (*mapping)[static_cast<std::size_t>(chain[k])];
      lm.fuse_output = k + 1 < chain.size();
      lm.dataflow = values[k].dataflow;
    }
    *total_cycles += fused - unfused;
  }
}

/// Step 2 for one config: the per-layer mapping and summed cycles, or the
/// index of the first layer no mode/dataflow can schedule.
struct MappingScore {
  int infeasible_layer = -1;
  std::vector<LayerMapping> mapping;
  double cycles = 0;
};

MappingScore ScoreMapping(const Model& model,
                          const std::vector<FmapShape>& inputs,
                          const AccelConfig& cfg, const FpgaSpec& spec,
                          const DseOptions& opts) {
  MappingScore score;
  score.mapping.reserve(inputs.size());
  for (int i = 0; i < model.num_layers(); ++i) {
    const LayerChoice choice = BestLayerChoice(
        model.layer(i), inputs[static_cast<std::size_t>(i)], cfg, spec, opts);
    if (!choice.feasible) {
      score.infeasible_layer = i;
      return score;
    }
    score.mapping.push_back(choice.mapping);
    score.cycles += choice.cycles;
  }
  ApplyFusion(model, inputs, cfg, spec, opts, &score.mapping, &score.cycles);
  return score;
}

/// A candidate that can schedule every layer, with its step-2 answer.
struct Scored {
  Candidate cand;
  std::vector<LayerMapping> mapping;
  double cycles = 0;
  double objective = 0;  ///< cycles / NI
};

/// Steps 1-2: every feasible candidate scored, in enumeration order.
std::vector<Scored> EvaluateCandidates(const Model& model,
                                       const FpgaSpec& spec,
                                       const ProfileConstants& profile,
                                       const DseOptions& opts) {
  opts.Validate();
  std::vector<Candidate> candidates = EnumerateFeasible(spec, profile, opts);
  HDNN_CHECK(!candidates.empty())
      << "no feasible accelerator configuration for platform " << spec.name;

  const std::vector<FmapShape> inputs = LayerInputs(model);
  std::vector<Scored> scored;
  for (Candidate& cand : candidates) {
    MappingScore score = ScoreMapping(model, inputs, cand.cfg, spec, opts);
    if (score.infeasible_layer >= 0) continue;
    const double objective = score.cycles / cand.cfg.ni;
    scored.push_back(Scored{std::move(cand), std::move(score.mapping),
                            score.cycles, objective});
  }
  HDNN_CHECK(!scored.empty())
      << "no candidate can schedule every layer of " << model.name();
  return scored;
}

/// Step 3: the legacy tie-break over the scored set.
DseResult SelectBest(const std::vector<Scored>& scored, const FpgaSpec& spec,
                     const DseOptions& opts) {
  const double best_objective =
      std::min_element(scored.begin(), scored.end(),
                       [](const Scored& a, const Scored& b) {
                         return a.objective < b.objective;
                       })
          ->objective;

  // Step 3 with tie-breaking: within the tie window prefer balanced PE
  // geometry (small PI/PO ratio), then more instances, then fewer LUTs.
  const Scored* chosen = nullptr;
  for (const Scored& s : scored) {
    if (s.objective > best_objective * (1.0 + opts.tie_fraction)) continue;
    if (chosen == nullptr) {
      chosen = &s;
      continue;
    }
    const int ratio_a = s.cand.cfg.pi / s.cand.cfg.po;
    const int ratio_b = chosen->cand.cfg.pi / chosen->cand.cfg.po;
    if (ratio_a != ratio_b) {
      if (ratio_a < ratio_b) chosen = &s;
      continue;
    }
    if (s.cand.cfg.ni != chosen->cand.cfg.ni) {
      if (s.cand.cfg.ni > chosen->cand.cfg.ni) chosen = &s;
      continue;
    }
    if (s.objective < chosen->objective) chosen = &s;
  }
  HDNN_INTERNAL(chosen != nullptr) << "tie-break selected nothing";

  DseResult result;
  result.config = chosen->cand.cfg;
  result.mapping = chosen->mapping;
  result.estimated_cycles = chosen->cycles;
  result.objective = chosen->objective;
  result.analytical = chosen->cand.analytical;
  result.implementation = chosen->cand.implementation;
  result.power_watts = DefaultPowerModel().TotalWatts(
      spec, chosen->cand.implementation.AsUsage());
  result.candidates_evaluated = static_cast<int>(scored.size());
  return result;
}

}  // namespace

void DseOptions::Validate() const {
  HDNN_CHECK(max_ni >= 1) << "DseOptions.max_ni must be >= 1, got " << max_ni
                          << " (the search would explore an empty space)";
  HDNN_CHECK(max_ni <= kMaxNiCeiling)
      << "DseOptions.max_ni must be <= " << kMaxNiCeiling
      << " (NI is enumerated one by one), got " << max_ni;
  HDNN_CHECK(max_pi >= 1) << "DseOptions.max_pi must be >= 1, got " << max_pi
                          << " (the search would explore an empty space)";
  HDNN_CHECK(tie_fraction >= 0)
      << "DseOptions.tie_fraction must be >= 0, got " << tie_fraction;
}

bool Dominates(const ParetoPoint& a, const ParetoPoint& b) {
  bool strictly_better = false;
  const double av[] = {a.objective, a.lut_utilization, a.dsp_utilization,
                       a.bram_utilization, a.power_watts};
  const double bv[] = {b.objective, b.lut_utilization, b.dsp_utilization,
                       b.bram_utilization, b.power_watts};
  for (int i = 0; i < 5; ++i) {
    if (av[i] > bv[i]) return false;
    if (av[i] < bv[i]) strictly_better = true;
  }
  return strictly_better;
}

DseEngine::DseEngine(const FpgaSpec& spec, const ProfileConstants& profile)
    : spec_(spec), profile_(profile) {}

std::vector<AccelConfig> DseEngine::EnumerateCandidates(
    const DseOptions& opts) const {
  opts.Validate();
  std::vector<AccelConfig> configs;
  for (const Candidate& cand : EnumerateFeasible(spec_, profile_, opts)) {
    configs.push_back(cand.cfg);
  }
  return configs;
}

std::vector<LayerMapping> DseEngine::BestMapping(const Model& model,
                                                 const AccelConfig& cfg,
                                                 const DseOptions& opts,
                                                 double* total_cycles) const {
  opts.Validate();
  MappingScore score =
      ScoreMapping(model, LayerInputs(model), cfg, spec_, opts);
  if (score.infeasible_layer >= 0) {
    throw CapacityError("layer " + model.layer(score.infeasible_layer).name +
                        " cannot be scheduled on config " + cfg.ToString());
  }
  if (total_cycles) *total_cycles = score.cycles;
  return std::move(score.mapping);
}

DseFrontier DseEngine::ExploreFrontier(const Model& model,
                                       const DseOptions& opts) const {
  std::vector<Scored> scored =
      EvaluateCandidates(model, spec_, profile_, opts);

  DseFrontier frontier;
  frontier.candidates_evaluated = static_cast<int>(scored.size());
  frontier.best = SelectBest(scored, spec_, opts);

  // Multi-objective view of every scored candidate.
  std::vector<ParetoPoint> points;
  points.reserve(scored.size());
  for (Scored& s : scored) {
    ParetoPoint p;
    p.config = s.cand.cfg;
    p.mapping = std::move(s.mapping);
    p.estimated_cycles = s.cycles;
    p.objective = s.objective;
    p.analytical = s.cand.analytical;
    p.implementation = s.cand.implementation;
    p.lut_utilization =
        s.cand.implementation.luts / static_cast<double>(spec_.luts);
    p.dsp_utilization =
        s.cand.implementation.dsps / static_cast<double>(spec_.dsps);
    p.bram_utilization =
        s.cand.implementation.bram18 / static_cast<double>(spec_.bram18);
    p.power_watts =
        DefaultPowerModel().TotalWatts(spec_, s.cand.implementation.AsUsage());
    p.qps = p.objective > 0 ? spec_.freq_mhz * 1e6 / p.objective : 0;
    p.qps_per_watt = p.power_watts > 0 ? p.qps / p.power_watts : 0;
    points.push_back(std::move(p));
  }

  // Non-dominated filter, O(n^2) over ~a hundred points. Mark first, move
  // after: the dominance scan must never read a moved-from point.
  std::vector<bool> dominated(points.size(), false);
  for (std::size_t i = 0; i < points.size(); ++i) {
    for (std::size_t j = 0; j < points.size(); ++j) {
      if (j != i && Dominates(points[j], points[i])) {
        dominated[i] = true;
        break;
      }
    }
  }
  for (std::size_t i = 0; i < points.size(); ++i) {
    if (!dominated[i]) frontier.points.push_back(std::move(points[i]));
  }
  std::sort(frontier.points.begin(), frontier.points.end(),
            [](const ParetoPoint& a, const ParetoPoint& b) {
              if (a.objective != b.objective) return a.objective < b.objective;
              if (a.config.pt != b.config.pt) return a.config.pt < b.config.pt;
              if (a.config.pi != b.config.pi) return a.config.pi < b.config.pi;
              if (a.config.po != b.config.po) return a.config.po < b.config.po;
              return a.config.ni < b.config.ni;
            });
  return frontier;
}

DseResult DseEngine::Explore(const Model& model, const DseOptions& opts) const {
  // The thin best-point wrapper: same evaluation and tie-break as
  // ExploreFrontier, without paying for frontier construction.
  return SelectBest(EvaluateCandidates(model, spec_, profile_, opts), spec_,
                    opts);
}

}  // namespace hdnn
