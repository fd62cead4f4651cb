// Design Space Exploration engine (paper Sec. 5.3, Table 2).
//
// The optimisation problem:
//   HW parameters: PI, PO, PT, NI (+ buffer geometry)
//   SW parameters: per-layer CONV mode and dataflow
//   Constraints:   PI >= PO >= 1, PT in {4,6}, resource models under the
//                  platform limits (incl. per-die packing), mode/dataflow
//                  legality (stride, channel blocking, kernel slices)
//   Objective:     sum_l T_l / NI   (per-image latency divided by instance
//                  count == steady-state throughput; NI instances process
//                  independent inputs, as in the paper's 6-instance VU9P
//                  design)
//
// The 3-step algorithm: (1) enumerate HW candidates by growing PI, PO and NI
// under the resource constraints for each PT; (2) for each candidate select
// per-layer mode/dataflow with the Eq. 12-15 latency model; (3) pick the
// globally best. Within a small objective window, ties break toward
// balanced (PI == PO) and more-replicated designs, which is what multi-die
// timing closure favours (paper Sec. 1 and Sec. 6.1).
//
// The search runs exactly that way: one serial pass that enumerates the
// candidates and scores each one by calling the Eq. 12-15 model directly.
// It keeps no state between calls, so every answer is a pure function of
// (spec, profile, model, options). Beyond the paper, ExploreFrontier
// returns the full Pareto frontier over {throughput objective, LUT/DSP/BRAM
// utilization, estimated power}, with Explore kept as the thin best-point
// wrapper the rest of the repo consumes.
#ifndef HDNN_DSE_SEARCH_H_
#define HDNN_DSE_SEARCH_H_

#include <vector>

#include "common/types.h"
#include "estimator/latency_model.h"
#include "estimator/resource_model.h"
#include "nn/model.h"
#include "platform/fpga_spec.h"
#include "platform/profile_constants.h"

namespace hdnn {

struct DseOptions {
  /// Ceiling on max_ni. Enumeration walks every NI from 1 to max_ni, and no
  /// modeled device fits more than a few dozen instances.
  static constexpr int kMaxNiCeiling = 64;

  bool allow_winograd = true;  ///< false = Spatial-only baseline accelerator
  int max_ni = 8;  ///< in [1, kMaxNiCeiling]
  /// Upper bound on PI; PI also stays under the broadcast cap PI*PT <= 32.
  int max_pi = 16;
  /// Tie window for the balanced/replicated preference.
  double tie_fraction = 0.05;
  /// Score fused segments (compiler/fusion.h): after the per-layer mode /
  /// dataflow selection, each maximal fusable chain is re-scored with its
  /// interior DRAM round-trips replaced by on-chip hand-offs (dataflow
  /// re-picked per layer, mode kept) and adopted when it wins. Off keeps
  /// every mapping unfused (the pre-fusion behaviour).
  bool fuse_segments = true;

  /// Throws InvalidArgument (via HDNN_CHECK) on out-of-range fields instead
  /// of letting the search silently explore an empty space.
  void Validate() const;
};

/// One non-dominated design point of the multi-objective search. All
/// objective axes are minimized: per-image cycles per instance, the three
/// implementation-model resource utilisation fractions, and estimated power.
struct ParetoPoint {
  AccelConfig config;
  std::vector<LayerMapping> mapping;
  double estimated_cycles = 0;  ///< sum of per-layer Eq. 12-15 latencies
  double objective = 0;         ///< estimated_cycles / NI
  ResourceEstimate analytical;      ///< Eq. 3-5
  ResourceEstimate implementation;  ///< bottom-up model
  double lut_utilization = 0;   ///< implementation LUTs / device LUTs
  double dsp_utilization = 0;
  double bram_utilization = 0;
  double power_watts = 0;  ///< platform/power_model on implementation usage
  /// Serving-plane annotations (derived, not dominance axes): sustained
  /// whole-board throughput freq / objective — the NI instances pipelining
  /// independent images — and its power efficiency. The fleet portfolio
  /// planner (src/fleet/portfolio.h) consumes these.
  double qps = 0;
  double qps_per_watt = 0;
};

struct DseResult {
  AccelConfig config;
  std::vector<LayerMapping> mapping;
  double estimated_cycles = 0;       ///< sum of per-layer Eq. 12-15 latencies
  double objective = 0;              ///< estimated_cycles / NI
  ResourceEstimate analytical;       ///< Eq. 3-5
  ResourceEstimate implementation;   ///< bottom-up model
  double power_watts = 0;            ///< estimated power of the chosen design
  int candidates_evaluated = 0;
};

/// The full multi-objective answer: every Pareto-optimal design plus the
/// single-objective winner the legacy tie-break selects.
struct DseFrontier {
  /// Non-dominated points, sorted by ascending objective (then PT, PI, PO,
  /// NI for deterministic total order).
  std::vector<ParetoPoint> points;
  /// The legacy best-throughput point (identical to Explore()).
  DseResult best;
  int candidates_evaluated = 0;
};

/// True iff `a` Pareto-dominates `b`: no worse on every minimized axis
/// (objective, LUT/DSP/BRAM utilization, power) and strictly better on at
/// least one.
bool Dominates(const ParetoPoint& a, const ParetoPoint& b);

class DseEngine {
 public:
  explicit DseEngine(const FpgaSpec& spec,
                     const ProfileConstants& profile = DefaultProfile());

  /// Step 1: HW candidates satisfying the resource constraints.
  std::vector<AccelConfig> EnumerateCandidates(const DseOptions& opts) const;

  /// Step 2: best per-layer mapping for a fixed config; returns the summed
  /// latency (cycles). Layers that cannot be scheduled at all raise
  /// CapacityError.
  std::vector<LayerMapping> BestMapping(const Model& model,
                                        const AccelConfig& cfg,
                                        const DseOptions& opts,
                                        double* total_cycles) const;

  /// Steps 1-3 together; the single best-throughput point. Shares the
  /// evaluation and tie-break with ExploreFrontier but skips frontier
  /// construction.
  DseResult Explore(const Model& model, const DseOptions& opts = {}) const;

  /// Steps 1-3 with the full multi-objective answer.
  DseFrontier ExploreFrontier(const Model& model,
                              const DseOptions& opts = {}) const;

  const FpgaSpec& spec() const { return spec_; }

 private:
  FpgaSpec spec_;
  ProfileConstants profile_;
};

}  // namespace hdnn

#endif  // HDNN_DSE_SEARCH_H_
