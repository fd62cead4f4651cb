// FP32-vs-quantized accuracy harness (ROADMAP item 2): for each model it
// runs the post-training quantization flow end to end — calibrate on the
// FP32 golden path, select per-tensor/per-channel scales, compile with the
// chosen shifts wired into every COMP QUAN_PARAM — and reports per-layer
// and end-to-end error (max-abs, RMSE, SQNR) against the FP32 reference,
// for both the legacy hand-assigned point (shift 6 everywhere) and the
// calibrated point. Each quantized run is also checked bit-identical
// between the simulator and the quantized golden reference; any mismatch
// fails the bench.
//
// Prints the rows and writes them as one BENCH file (default
// ./BENCH_quant_error.json, override with argv[1]): end-to-end rows are
// named "<model>/<point>", per-layer rows "<model>/<point>/<layer>". Pass
// --smoke for the CI-sized run (fewer calibration batches and eval inputs;
// scales barely move, the checks are identical).
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/check.h"
#include "common/fixed_point.h"
#include "nn/builders.h"
#include "quant/calibration.h"
#include "quant/golden.h"
#include "quant/quant_config.h"
#include "quant/scale_select.h"
#include "runtime/runtime.h"

using namespace hdnn;

namespace {

/// Error of one quantized tensor against its FP32 reference, accumulated
/// across eval inputs.
struct ErrorAccum {
  double sum_ref_sq = 0;
  double sum_err_sq = 0;
  double max_abs = 0;
  std::int64_t count = 0;

  void Add(const Tensor<float>& ref, const Tensor<std::int16_t>& q,
           int frac_bits) {
    for (std::int64_t e = 0; e < ref.elements(); ++e) {
      const double r = static_cast<double>(ref.flat(e));
      const double d = DequantizeValue(q.flat(e), frac_bits);
      const double err = d - r;
      sum_ref_sq += r * r;
      sum_err_sq += err * err;
      max_abs = std::max(max_abs, std::abs(err));
      ++count;
    }
  }
  double rmse() const {
    return count > 0 ? std::sqrt(sum_err_sq / static_cast<double>(count)) : 0;
  }
  // A zero-error tensor has unbounded SQNR; 999 dB is an unmistakable
  // "exact" marker that still compares numerically in the delta table.
  double sqnr_db() const {
    if (sum_err_sq <= 0) return 999.0;
    if (sum_ref_sq <= 0) return 0.0;
    return 10.0 * std::log10(sum_ref_sq / sum_err_sq);
  }
};

struct ConfigReport {
  std::string name;
  std::vector<ErrorAccum> layers;  ///< one per model layer
  double e2e_sqnr_db = 0;
  double e2e_rmse = 0;
  double e2e_max_abs = 0;
};

/// Runs one quantization point through compile + quantize + sim, checking
/// sim output bit-identical to the quantized golden reference per input.
/// `fp32_acts[b]` are the per-layer FP32 activations of eval input b.
ConfigReport EvalConfig(const std::string& name, const Model& model,
                        const AccelConfig& cfg, const FpgaSpec& spec,
                        const std::vector<LayerMapping>& mapping,
                        const QuantConfig& qc, const ModelWeightsF& weightsF,
                        const std::vector<Tensor<float>>& eval_inputs,
                        const std::vector<std::vector<Tensor<float>>>&
                            fp32_acts) {
  const Compiler compiler(cfg, spec);
  const CompiledModel cm = compiler.Compile(model, mapping, &qc);
  const ModelWeightsQ wq = QuantizeParams(model, weightsF, cm);
  Runtime runtime(cfg, spec);

  ConfigReport report;
  report.name = name;
  report.layers.resize(static_cast<std::size_t>(model.num_layers()));
  for (std::size_t b = 0; b < eval_inputs.size(); ++b) {
    const Tensor<std::int16_t> qin = QuantizeInputFmap(eval_inputs[b], cm);
    const std::vector<Tensor<std::int16_t>> golden =
        QuantGoldenForward(model, cm, wq, qin);
    const RunReport run = runtime.Execute(model, cm, wq, qin);
    HDNN_CHECK(run.output.shape() == golden.back().shape() &&
               run.output.storage() == golden.back().storage())
        << model.name() << "/" << name << " input " << b
        << ": simulator output diverges from the quantized golden reference";
    for (int i = 0; i < model.num_layers(); ++i) {
      report.layers[static_cast<std::size_t>(i)].Add(
          fp32_acts[b][static_cast<std::size_t>(i)],
          golden[static_cast<std::size_t>(i)],
          cm.plans[static_cast<std::size_t>(i)].out_frac);
    }
  }
  const ErrorAccum& last = report.layers.back();
  report.e2e_sqnr_db = last.sqnr_db();
  report.e2e_rmse = last.rmse();
  report.e2e_max_abs = last.max_abs;
  return report;
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path = "BENCH_quant_error.json";
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else {
      json_path = argv[i];
    }
  }
  const FpgaSpec& spec = PynqZ1Spec();
  const AccelConfig cfg = bench::PynqDesignPoint();
  const int calib_batches = smoke ? 2 : 8;
  const int eval_batches = smoke ? 1 : 4;

  const Model models[] = {BuildTinyCnn(), BuildVgg16Style(32, 4),
                          BuildResNet18Scaled(64, 4)};

  std::printf("quant_error on %s: %d calibration, %d eval inputs\n",
              spec.name.c_str(), calib_batches, eval_batches);
  using bench::Better;
  bench::BenchRows out("quant_error");
  // sqnr_db / rmse / max_abs of one tensor (or the model output).
  const auto add_error = [&out](const std::string& name, const char* prefix,
                                double sqnr_db, double rmse, double max_abs) {
    out.Add(name, std::string(prefix) + "sqnr_db", sqnr_db, "dB",
            Better::kHigher);
    out.Add(name, std::string(prefix) + "rmse", rmse, "fp32", Better::kLower);
    out.Add(name, std::string(prefix) + "max_abs", max_abs, "fp32",
            Better::kLower);
  };
  for (const Model& model : models) {
    const std::vector<LayerMapping> mapping(
        static_cast<std::size_t>(model.num_layers()),
        LayerMapping{ConvMode::kSpatial, Dataflow::kInputStationary});
    const ModelWeightsF weightsF = SyntheticWeightsF(model, 7);

    std::vector<Tensor<float>> calib_inputs;
    for (int i = 0; i < calib_batches; ++i) {
      calib_inputs.push_back(
          MakeCalibrationInput(model.input(), 100 + static_cast<std::uint64_t>(i)));
    }
    const CalibrationResult calib = Calibrate(model, weightsF, calib_inputs);

    // Disjoint seeds: eval inputs are NOT the calibration set.
    std::vector<Tensor<float>> eval_inputs;
    std::vector<std::vector<Tensor<float>>> fp32_acts;
    for (int i = 0; i < eval_batches; ++i) {
      eval_inputs.push_back(
          MakeCalibrationInput(model.input(), 900 + static_cast<std::uint64_t>(i)));
      fp32_acts.push_back(Fp32Forward(model, weightsF, eval_inputs.back()));
    }

    const QuantConfig baseline = QuantConfig::Uniform(model);
    const QuantConfig calibrated =
        SelectScales(model, cfg, calib, weightsF, ScaleOptions{});

    const ConfigReport reports[] = {
        EvalConfig("baseline", model, cfg, spec, mapping, baseline, weightsF,
                   eval_inputs, fp32_acts),
        EvalConfig("calibrated", model, cfg, spec, mapping, calibrated,
                   weightsF, eval_inputs, fp32_acts)};

    out.Add(model.name(), "sqnr_gain_db",
            reports[1].e2e_sqnr_db - reports[0].e2e_sqnr_db, "dB",
            Better::kHigher);
    for (const ConfigReport& r : reports) {
      const std::string point = model.name() + "/" + r.name;
      add_error(point, "e2e_", r.e2e_sqnr_db, r.e2e_rmse, r.e2e_max_abs);
      for (int i = 0; i < model.num_layers(); ++i) {
        const ErrorAccum& a = r.layers[static_cast<std::size_t>(i)];
        add_error(point + "/" + model.layer(i).name, "", a.sqnr_db(), a.rmse(),
                  a.max_abs);
      }
    }
  }
  out.Print();
  out.Write(json_path);
  return 0;
}
