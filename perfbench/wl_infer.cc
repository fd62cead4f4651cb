// infer_resnet18: a closed loop of one client calling functional
// Runtime::Execute on ResNet-18-scaled(112, w/2) at its PYNQ-Z1 DSE point.
// The heaviest path a user hits (bit-accurate inference); the compiler's
// weight packing, the simulator's COMP and the runtime's staging each do
// most of their work here.
#include <future>
#include <thread>

#include "common.h"
#include "dse/search.h"
#include "nn/builders.h"
#include "quant/golden.h"

namespace perfbench {

using namespace hdnn;

namespace {

constexpr int kSetupRepeats = 5;
constexpr int kDistinctInputs = 2;
// About 60 inferences fit a 25 s run; p75 needs 40 (MinSamplesForTail).
constexpr double kTailPercentile = 75;

struct Deployment {
  DseResult dse;
  CompiledModel cm;
};

/// DSE + compile, each under its own span.
Deployment Deploy(SpanRecorder& rec, const Model& model, const FpgaSpec& spec) {
  Deployment d;
  {
    ScopedSpan span(rec, "dse.explore");
    d.dse = DseEngine(spec).Explore(model);
  }
  ScopedSpan span(rec, "compiler.compile");
  d.cm = Compiler(d.dse.config, spec).Compile(model, d.dse.mapping);
  return d;
}

/// Golden outputs, one per input, computed concurrently (outside every
/// timed region: the reference is several seconds per ResNet input).
std::vector<Tensor<std::int16_t>> GoldenOutputs(
    const Model& model, const CompiledModel& cm, const ModelWeightsQ& weights,
    const std::vector<Tensor<std::int16_t>>& inputs) {
  std::vector<std::future<Tensor<std::int16_t>>> jobs;
  for (const auto& input : inputs) {
    jobs.push_back(std::async(std::launch::async, [&model, &cm, &weights,
                                                   &input] {
      return QuantGoldenForward(model, cm, weights, input).back();
    }));
  }
  std::vector<Tensor<std::int16_t>> golden;
  for (auto& job : jobs) golden.push_back(job.get());
  return golden;
}

}  // namespace

RunResult RunInfer(const RunOptions& opts) {
  RunResult result;
  const FpgaSpec& spec = PynqZ1Spec();
  const Model model = BuildResNet18Scaled(112, 2);
  const ModelWeightsQ weights = SyntheticWeights(model, opts.seed);
  std::vector<Tensor<std::int16_t>> inputs;
  for (int i = 0; i < kDistinctInputs; ++i) {
    inputs.push_back(SeededInput(model, opts.seed * 1000 + 17 + i));
  }

  SpanRecorder rec(opts.trace);
  Deployment dep;
  std::unique_ptr<Runtime> runtime;
  // Set-up: DSE, compile, Runtime construction and one warm-up inference.
  const double setup_s = MedianSetupSeconds(kSetupRepeats, [&] {
    dep = Deploy(rec, model, spec);
    runtime = std::make_unique<Runtime>(dep.dse.config, spec);
    runtime->Execute(model, dep.cm, weights, inputs[0]);
  });
  const auto winograd = std::count_if(
      dep.dse.mapping.begin(), dep.dse.mapping.end(),
      [](const LayerMapping& m) { return m.mode == ConvMode::kWinograd; });
  result.notes.push_back("config " + dep.dse.config.ToString() + ", " +
                         std::to_string(winograd) + " of " +
                         std::to_string(model.num_layers()) +
                         " layers Winograd");

  const auto golden_t0 = Clock::now();
  const std::vector<Tensor<std::int16_t>> golden =
      GoldenOutputs(model, dep.cm, weights, inputs);
  result.notes.push_back("golden reference: " +
                         std::to_string(MsSince(golden_t0) / 1e3) +
                         " s for " + std::to_string(kDistinctInputs) +
                         " inputs (untimed)");

  if (opts.trace) {
    // Traced run: Runtime::Execute and the same inference rebuilt from its
    // public pieces.
    const RunReport first_traced = TraceExecute(
        rec, *runtime, spec, model, dep.cm, weights, inputs, golden,
        opts.seconds, result);
    auto& m = result.metrics;
    const auto totals = rec.Summarize();
    m["dse.explore_ms"] = SelfMsPerCall(totals, "dse.explore");
    m["compiler.compile_ms"] = SelfMsPerCall(totals, "compiler.compile");
    m["dse.candidates"] = dep.dse.candidates_evaluated;
    m["mem.dram_image_mwords"] = dep.cm.total_dram_words / 1e6;
    m["sim.device_gops"] = first_traced.effective_gops;
    const EstimatorError err =
        CompareEstimator(model, dep.cm, spec, first_traced, rec);
    m["estimator.e2e_err_pct"] = err.e2e_pct;
    m["estimator.layer_err_max_pct"] = err.layer_max_pct;
    FinishTrace(opts, rec, result);
    return result;
  }

  std::vector<double> ms;
  RunReport first;
  bool have_first = false;
  const std::size_t min_ops = MinSamplesForTail(kTailPercentile);
  const auto t_end = Clock::now() + std::chrono::duration<double>(opts.seconds);
  for (std::size_t i = 0; i < min_ops || Clock::now() < t_end; ++i) {
    const std::size_t which = i % inputs.size();
    ++result.attempted;
    try {
      const auto t0 = Clock::now();
      RunReport rep = runtime->Execute(model, dep.cm, weights, inputs[which]);
      ms.push_back(MsSince(t0));
      if (!(rep.output == golden[which])) {
        result.Fail("output differs from QuantGoldenForward");
        ++result.failed;
      } else if (!have_first) {
        first = std::move(rep);
        have_first = true;
      } else if (rep.stats.total_cycles != first.stats.total_cycles ||
                 rep.effective_gops != first.effective_gops) {
        result.Fail("modeled cycles drifted between iterations");
        ++result.failed;
      }
    } catch (const std::exception& e) {
      ++result.failed;
      result.Fail(std::string("Execute threw: ") + e.what());
    }
  }
  const TailPoint tail = CheckedTail(ms, kTailPercentile, result);
  auto& m = result.metrics;
  m["mean_ms"] = Mean(ms);
  m["tail_ms"] = tail.value;
  m["ok_frac"] = static_cast<double>(result.attempted - result.failed) /
                 static_cast<double>(result.attempted);
  m["modeled_per_s"] = dep.dse.config.ni / first.seconds;
  m["setup_s"] = setup_s;
  m["peak_rss_mb"] = PeakRssMb();
  char line[256];
  std::snprintf(line, sizeof(line),
                "infer_p50_ms %.3f ms, min %.3f ms; infer_tail_ms %.3f ms "
                "(p%g of %zu samples, %zu beyond); infer_device_gops %.1f GOPS",
                Median(ms), Percentile(ms, 0), tail.value, tail.percentile,
                tail.samples, tail.beyond, first.effective_gops);
  result.notes.push_back(line);
  return result;
}

}  // namespace perfbench
