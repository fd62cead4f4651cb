#include "common.h"

#include <sys/resource.h>

#include <cmath>

#include "common/prng.h"
#include "estimator/latency_model.h"

namespace perfbench {

using namespace hdnn;

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

TailPoint CheckedTail(const std::vector<double>& samples, double percentile,
                      RunResult& result) {
  const TailPoint tail = TailAt(samples, percentile);
  if (tail.beyond < 10) {
    result.Fail("fewer than ten samples beyond the tail percentile");
  }
  return tail;
}

Tensor<std::int16_t> SeededInput(const Model& model, std::uint64_t seed) {
  const FmapShape in = model.InputOf(0);
  Tensor<std::int16_t> input(Shape{in.channels, in.height, in.width});
  Prng prng(seed);
  input.FillRandomInt(prng, -128, 127);
  return input;
}

Tensor<std::int16_t> DecomposedExecute(SpanRecorder& rec, DramModel& dram,
                                       Accelerator& accel, const Model& model,
                                       const CompiledModel& cm,
                                       const ModelWeightsQ& weights,
                                       const Tensor<std::int16_t>& input,
                                       SimStats* stats) {
  // Same sequence and sizes as Runtime::Execute's functional path.
  {
    ScopedSpan span(rec, "mem.dram_reset");
    dram.Reset(cm.total_dram_words + 1024);
  }
  {
    ScopedSpan span(rec, "compiler.weight_pack");
    WriteWeightImages(cm, model, weights, dram);
  }
  const LayerPlan& first = cm.plans.front();
  {
    ScopedSpan span(rec, "runtime.stage_input");
    StageInputFmap(dram, cm.input_region(0), first.input_layout, input,
                   first.cp_in);
  }
  {
    ScopedSpan span(rec, "sim.run");
    accel.set_functional(true);
    *stats = accel.Run(*cm.decoded);
  }
  ScopedSpan span(rec, "runtime.collect");
  const int last = model.num_layers() - 1;
  const LayerPlan& plan = cm.plans[static_cast<std::size_t>(last)];
  return CollectOutputFmap(dram, cm.output_region(last), plan.output_layout,
                           plan.out_shape, plan.cp_out);
}

namespace {

/// DRAM words each layer's instructions move: the difference between
/// timing-only runs of the program prefixes ending after consecutive layers
/// (a prefix keeps every handshake token its layers wait on). -1 when a
/// prefix does not run alone.
std::vector<std::int64_t> LayerDramWords(const CompiledModel& cm,
                                         const FpgaSpec& spec) {
  std::vector<std::int64_t> words;
  DramModel dram(1);
  Accelerator accel(cm.cfg, spec, dram);
  accel.set_functional(false);
  std::int64_t before = 0;
  for (const LayerPlan& plan : cm.plans) {
    std::vector<Instruction> prefix(
        cm.program.begin(),
        cm.program.begin() + plan.first_instr + plan.num_instrs);
    prefix.push_back(cm.program.back());  // END
    try {
      const SimStats s = accel.Run(prefix);
      const std::int64_t upto = s.dram_words_read + s.dram_words_written;
      words.push_back(before >= 0 ? upto - before : -1);
      before = upto;
    } catch (const std::exception&) {
      words.push_back(-1);
      before = -1;
    }
  }
  return words;
}

double ErrPct(double estimate, double simulated) {
  return simulated > 0 ? std::abs(estimate - simulated) / simulated * 100.0
                       : 0.0;
}

}  // namespace

EstimatorError CompareEstimator(const Model& model, const CompiledModel& cm,
                                const FpgaSpec& spec, const RunReport& report,
                                SpanRecorder& rec) {
  std::vector<LayerMapping> mapping;
  for (const LayerPlan& plan : cm.plans) mapping.push_back(plan.mapping);
  EstimatorError err;
  err.e2e_pct = ErrPct(EstimateModelLatencyCycles(model, mapping, cm.cfg, spec),
                       report.stats.total_cycles);
  const std::vector<std::int64_t> words = LayerDramWords(cm, spec);
  for (int i = 0; i < model.num_layers(); ++i) {
    const LayerMapping& m = mapping[static_cast<std::size_t>(i)];
    const double estimate =
        EstimateLayerLatency(model.layer(i), model.InputOf(i), m.mode,
                             m.dataflow, cm.cfg, spec,
                             FusionContextOf(model, mapping, i))
            .total;
    const double simulated = report.layer_cycles[static_cast<std::size_t>(i)];
    err.layer_max_pct =
        std::max(err.layer_max_pct, ErrPct(estimate, simulated));
    rec.AddLedger(LedgerRow{model.name(), spec.name, i, model.layer(i).name,
                            ToString(m.mode), estimate, simulated,
                            words[static_cast<std::size_t>(i)]});
  }
  return err;
}

void SetSimMetrics(const std::vector<SimStats>& stats,
                   std::map<std::string, double>& metrics) {
  double cycles = 0, macs = 0, read = 0, written = 0, instrs = 0;
  double ldi = 0, ldw = 0, comp = 0, save = 0, port = 0;
  for (const SimStats& s : stats) {
    cycles += s.total_cycles;
    macs += static_cast<double>(s.macs_executed);
    read += static_cast<double>(s.dram_words_read);
    written += static_cast<double>(s.dram_words_written);
    instrs += static_cast<double>(s.instructions);
    ldi += s.ldi_busy;
    ldw += s.ldw_busy;
    comp += s.comp_busy;
    save += s.save_busy;
    port += s.port_busy;
  }
  metrics["sim.cycles"] = cycles;
  metrics["sim.macs"] = macs;
  metrics["mem.dram_words_read"] = read;
  metrics["mem.dram_words_written"] = written;
  metrics["compiler.instructions"] = instrs;
  if (cycles > 0) {
    metrics["sim.ldi_busy_frac"] = ldi / cycles;
    metrics["sim.ldw_busy_frac"] = ldw / cycles;
    metrics["sim.comp_busy_frac"] = comp / cycles;
    metrics["sim.save_busy_frac"] = save / cycles;
    metrics["sim.port_busy_frac"] = port / cycles;
  }
}

void SetDecomposedMetrics(const std::map<std::string, SpanTotals>& totals,
                          double ops, std::map<std::string, double>& metrics) {
  auto self_ms = [&](const char* name) {
    const auto it = totals.find(name);
    return it == totals.end() ? 0.0 : it->second.self_ns / 1e6 / ops;
  };
  metrics["mem.dram_reset_ms"] = self_ms("mem.dram_reset");
  metrics["compiler.weight_pack_ms"] = self_ms("compiler.weight_pack");
  metrics["runtime.stage_input_ms"] = self_ms("runtime.stage_input");
  metrics["sim.run_ms"] = self_ms("sim.run");
  metrics["runtime.collect_ms"] = self_ms("runtime.collect");
  const double execute = self_ms("runtime.execute");
  metrics["runtime.execute_ms"] = execute;
  if (execute > 0) {
    const double covered =
        metrics["mem.dram_reset_ms"] + metrics["compiler.weight_pack_ms"] +
        metrics["runtime.stage_input_ms"] + metrics["sim.run_ms"] +
        metrics["runtime.collect_ms"];
    metrics["runtime.uncovered_frac"] = 1.0 - covered / execute;
  }
  if (metrics["sim.macs"] > 0 && ops > 0) {
    metrics["sim.ns_per_mac"] =
        metrics["sim.run_ms"] * 1e6 / metrics["sim.macs"];
  }
}

RunReport TraceExecute(SpanRecorder& rec, Runtime& runtime,
                       const FpgaSpec& spec, const Model& model,
                       const CompiledModel& cm, const ModelWeightsQ& weights,
                       const std::vector<Tensor<std::int16_t>>& inputs,
                       const std::vector<Tensor<std::int16_t>>& golden,
                       double seconds, RunResult& result) {
  DramModel dram(cm.total_dram_words + 1024);
  Accelerator accel(cm.cfg, spec, dram);
  RunReport first;
  std::vector<double> traced_ms, untraced_ms;
  int rounds = 0;
  const auto t_end = Clock::now() + std::chrono::duration<double>(seconds);
  while (rounds == 0 || Clock::now() < t_end) {
    const std::size_t which = static_cast<std::size_t>(rounds) % inputs.size();
    RunReport rep;
    {
      ScopedSpan span(rec, "runtime.execute");
      rep = runtime.Execute(model, cm, weights, inputs[which]);
    }
    ++result.attempted;
    if (!(rep.output == golden[which])) {
      result.Fail("Execute output differs from QuantGoldenForward");
      ++result.failed;
    }
    for (bool traced : {true, false}) {
      rec.set_enabled(traced);
      SimStats stats;
      const auto t0 = Clock::now();
      Tensor<std::int16_t> out;
      {
        ScopedSpan span(rec, "runtime.execute_decomposed");
        out = DecomposedExecute(rec, dram, accel, model, cm, weights,
                                inputs[which], &stats);
      }
      (traced ? traced_ms : untraced_ms).push_back(MsSince(t0));
      if (!(out == rep.output) ||
          stats.total_cycles != rep.stats.total_cycles) {
        result.Fail("decomposed Execute differs from Runtime::Execute");
        ++result.failed;
      }
    }
    rec.set_enabled(true);
    if (rounds++ == 0) first = std::move(rep);
  }
  auto& m = result.metrics;
  SetSimMetrics({first.stats}, m);
  SetDecomposedMetrics(rec.Summarize(), rounds, m);
  m["trace.overhead_frac"] = Median(traced_ms) / Median(untraced_ms) - 1.0;
  return first;
}

double SelfMsPerCall(const std::map<std::string, SpanTotals>& totals,
                     const std::string& name) {
  const auto it = totals.find(name);
  return it == totals.end() || it->second.count == 0
             ? 0.0
             : it->second.self_ns / 1e6 / static_cast<double>(it->second.count);
}

void FinishTrace(const RunOptions& opts, const SpanRecorder& rec,
                 RunResult& result) {
  const std::map<std::string, std::string> meta = {
      {"workload", opts.workload}, {"seed", std::to_string(opts.seed)}};
  if (rec.WriteChromeTrace(opts.trace_path, meta)) {
    result.notes.push_back("trace written to " + opts.trace_path);
  } else {
    result.Fail("cannot write trace file " + opts.trace_path);
  }
}

void DefaultPerLayer(std::map<std::string, double>& metrics) {
  for (const MetricSpec& spec : PerLayerMetrics()) {
    metrics.emplace(spec.name, 0.0);
  }
}

}  // namespace perfbench
