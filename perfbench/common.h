// Shared pieces of the benchmark's workloads: run options and result, the
// timing helpers, and the decomposition of Runtime::Execute into its public
// pieces that the traced runs time span by span.
#ifndef HDNN_PERFBENCH_COMMON_H_
#define HDNN_PERFBENCH_COMMON_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "compiler/compiler.h"
#include "compiler/weight_pack.h"
#include "mem/dram_model.h"
#include "metrics.h"
#include "nn/model.h"
#include "platform/fpga_spec.h"
#include "runtime/runtime.h"
#include "sim/accelerator.h"
#include "span_trace.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_path;  ///< Chrome trace artifact of a traced run
};

struct RunResult {
  /// False on any wrong output, determinism drift or exception.
  bool correct = true;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::map<std::string, double> metrics;
  std::vector<std::string> notes;  ///< human-readable lines, printed first

  /// Marks the run incorrect; each distinct reason is noted once.
  void Fail(const std::string& why) {
    correct = false;
    const std::string note = "FAIL: " + why;
    if (std::find(notes.begin(), notes.end(), note) == notes.end()) {
      notes.push_back(note);
    }
  }
};

inline double MsSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

/// The nearest-rank `percentile` of a timed loop's samples; fails the run
/// when fewer than ten samples rank beyond it.
TailPoint CheckedTail(const std::vector<double>& samples, double percentile,
                      RunResult& result);

/// Peak resident set of this process, in MiB.
double PeakRssMb();

/// Runs `setup` `repeats` times and returns the median wall seconds; the
/// last run's state is what the workload measures with.
template <typename F>
double MedianSetupSeconds(int repeats, F&& setup) {
  std::vector<double> seconds;
  for (int i = 0; i < repeats; ++i) {
    const auto t0 = Clock::now();
    setup();
    seconds.push_back(MsSince(t0) / 1e3);
  }
  return Median(seconds);
}

/// Deterministic CHW input of the model's first layer from `seed`.
hdnn::Tensor<std::int16_t> SeededInput(const hdnn::Model& model,
                                       std::uint64_t seed);

/// Runtime::Execute (functional) rebuilt from its public pieces on the
/// caller's DramModel / Accelerator, one span per piece:
/// mem.dram_reset, compiler.weight_pack, runtime.stage_input, sim.run and
/// runtime.collect. Returns the collected output.
hdnn::Tensor<std::int16_t> DecomposedExecute(
    SpanRecorder& rec, hdnn::DramModel& dram, hdnn::Accelerator& accel,
    const hdnn::Model& model, const hdnn::CompiledModel& cm,
    const hdnn::ModelWeightsQ& weights,
    const hdnn::Tensor<std::int16_t>& input, hdnn::SimStats* stats);

struct EstimatorError {
  double e2e_pct = 0;        ///< |Eq. 12-15 model sum - simulated| / sim
  double layer_max_pct = 0;  ///< worst per-layer |estimate - simulated|
};

/// Compares the Eq. 12-15 estimate, under the mapping the compiler adopted,
/// with a run's per-layer cycles, and appends the model's per-layer ledger
/// rows (estimate, simulated cycles, DRAM words of the layer's
/// instructions) to `rec`.
EstimatorError CompareEstimator(const hdnn::Model& model,
                                const hdnn::CompiledModel& cm,
                                const hdnn::FpgaSpec& spec,
                                const hdnn::RunReport& report,
                                SpanRecorder& rec);

/// Per-layer metrics every workload derives from simulator statistics:
/// cycles, MACs, DRAM words, instructions and per-module busy shares,
/// summed over `stats` (one entry per simulated run of one operation).
void SetSimMetrics(const std::vector<hdnn::SimStats>& stats,
                   std::map<std::string, double>& metrics);

/// Per-layer metrics of the Execute decomposition from a recorder's
/// summary: ms per operation of each piece, over `ops` operations.
void SetDecomposedMetrics(const std::map<std::string, SpanTotals>& totals,
                          double ops, std::map<std::string, double>& metrics);

/// The traced runs' Execute breakdown, shared by the functional workloads.
/// For `seconds` (at least one round) each round runs Runtime::Execute under
/// a runtime.execute span, then DecomposedExecute with the recorder on and
/// again with it off, cycling through `inputs`. Execute outputs are checked
/// against `golden`, decomposed runs against Execute (output and cycles).
/// Sets the simulator, decomposition and trace.overhead_frac metrics and
/// returns the first Execute report.
hdnn::RunReport TraceExecute(
    SpanRecorder& rec, hdnn::Runtime& runtime, const hdnn::FpgaSpec& spec,
    const hdnn::Model& model, const hdnn::CompiledModel& cm,
    const hdnn::ModelWeightsQ& weights,
    const std::vector<hdnn::Tensor<std::int16_t>>& inputs,
    const std::vector<hdnn::Tensor<std::int16_t>>& golden, double seconds,
    RunResult& result);

/// Mean self ms of one span named `name` (0 when none was recorded).
double SelfMsPerCall(const std::map<std::string, SpanTotals>& totals,
                     const std::string& name);

/// Writes a traced run's spans and ledger to opts.trace_path.
void FinishTrace(const RunOptions& opts, const SpanRecorder& rec,
                 RunResult& result);

/// Fills every per-layer metric the workload did not measure with 0.
void DefaultPerLayer(std::map<std::string, double>& metrics);

RunResult RunInfer(const RunOptions& opts);
RunResult RunServe(const RunOptions& opts);
RunResult RunDesign(const RunOptions& opts);
RunResult RunFleet(const RunOptions& opts);

}  // namespace perfbench

#endif  // HDNN_PERFBENCH_COMMON_H_
