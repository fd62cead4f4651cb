// Self-timed microbenchmarks of the library's hot kernels — Winograd
// transforms, the functional simulator COMP datapath (spatial + Winograd),
// the functional memory datapath (LOAD/SAVE stages + DramModel block ops),
// and batch serving through the InferenceEngine.
//
// Prints a human-readable table and writes three BENCH files (the row
// format of bench_util.h) so CI can track the performance trajectory:
//   * BENCH_sim_comp.json     (argv[1]) — COMP-dominated rows + serving;
//   * BENCH_sim_loadsave.json (argv[2]) — memory-bound rows: early convs,
//     FC weight streaming, residual SAVEs, pooled SAVEs, raw block copies;
//   * BENCH_sim_fusion.json   (argv[3]) — fused-segment rows: each segment
//     simulated with and without keep-resident hand-offs, with the DRAM
//     words moved per inference alongside the throughput figures.
// Output paths are all-or-nothing: pass zero paths (the defaults above) or
// exactly three, so a stale invocation can never silently skip an artifact.
// Functional-simulation rows come in pairs (AddMappedSimRows): NAME reuses
// one Runtime, whose packed weight image stays resident, and NAME/cold
// builds a fresh Runtime per inference, so weight packing is included.
// Per row, items_per_s is the host wall-clock rate (machine-dependent; what
// host-side datapath optimisations move), while sim_gops and dram_words
// describe the modeled accelerator run (deterministic; must NOT move under
// host-side optimisation).
#include <chrono>
#include <cstdio>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/prng.h"
#include "compiler/fusion.h"
#include "mem/dram_model.h"
#include "nn/builders.h"
#include "runtime/engine.h"
#include "winograd/transform.h"

namespace hdnn {
namespace {

struct BenchRow {
  std::string name;
  double items_per_s = 0;  ///< host wall-clock throughput
  double sim_gops = 0;     ///< modeled accelerator GOPS (0 when n/a)
  std::int64_t iters = 0;
  double seconds = 0;      ///< total measured wall time
  std::int64_t dram_words = -1;  ///< DRAM words per inference (-1 = n/a)
};

/// Runs `fn` (which processes `items_per_iter` items) until at least
/// `min_seconds` of wall time and `min_iters` iterations have elapsed.
BenchRow Measure(const std::string& name, double items_per_iter,
                 const std::function<void()>& fn, double min_seconds = 0.25,
                 std::int64_t min_iters = 2) {
  using Clock = std::chrono::steady_clock;
  fn();  // warm-up: first call pays one-time arena growth / page faults
  BenchRow row;
  row.name = name;
  const auto t0 = Clock::now();
  auto now = t0;
  do {
    fn();
    ++row.iters;
    now = Clock::now();
    row.seconds = std::chrono::duration<double>(now - t0).count();
  } while (row.seconds < min_seconds || row.iters < min_iters);
  row.items_per_s = items_per_iter * static_cast<double>(row.iters) /
                    row.seconds;
  return row;
}

void PrintRow(const BenchRow& r) {
  std::printf("  %-34s %12.2f items/s %10.3f sim GOPS  (%lld iters, %.2fs)\n",
              r.name.c_str(), r.items_per_s, r.sim_gops,
              static_cast<long long>(r.iters), r.seconds);
}

/// Functional end-to-end simulation of a model under an explicit mapping.
/// Appends (and prints) two rows whose items are inferences, whose sim_gops
/// comes from the simulated run and whose dram_words counts the words moved
/// per inference:
///   * `name`: one Runtime reused across iterations, the way a serving
///     worker holds it — steady state, with the packed weight image
///     resident in its DRAM, so only the input is staged;
///   * `name/cold`: a fresh Runtime per iteration — the first-inference
///     cost, weight packing included.
void AddMappedSimRows(std::vector<BenchRow>& rows, const std::string& name,
                      const Model& model,
                      const std::vector<LayerMapping>& mapping,
                      const AccelConfig& cfg, const FpgaSpec& spec,
                      double min_seconds) {
  const Compiler compiler(cfg, spec);
  const CompiledModel cm = compiler.Compile(model, mapping);
  const ModelWeightsQ weights = SyntheticWeights(model, 1);
  Prng prng(2);
  Tensor<std::int16_t> input(Shape{model.input().channels,
                                   model.input().height,
                                   model.input().width});
  input.FillRandomInt(prng, -128, 127);

  Runtime reused(cfg, spec);
  for (const bool cold : {false, true}) {
    double sim_gops = 0;
    std::int64_t dram_words = 0;
    BenchRow row = Measure(
        cold ? name + "/cold" : name, 1.0,
        [&] {
          std::optional<Runtime> fresh;
          Runtime& runtime = cold ? fresh.emplace(cfg, spec) : reused;
          const RunReport r =
              runtime.Execute(model, cm, weights, input, /*functional=*/true);
          sim_gops = r.gops;
          dram_words = r.stats.dram_words_read + r.stats.dram_words_written;
        },
        min_seconds, /*min_iters=*/1);
    row.sim_gops = sim_gops;
    row.dram_words = dram_words;
    rows.push_back(row);
    PrintRow(rows.back());
  }
}

/// Uniform-mapping convenience wrapper (every layer `mode` / IS).
void AddFunctionalSimRows(std::vector<BenchRow>& rows, const std::string& name,
                          const Model& model, ConvMode mode,
                          const AccelConfig& cfg, const FpgaSpec& spec,
                          double min_seconds) {
  AddMappedSimRows(
      rows, name, model,
      std::vector<LayerMapping>(static_cast<std::size_t>(model.num_layers()),
                                LayerMapping{mode, Dataflow::kInputStationary}),
      cfg, spec, min_seconds);
}

/// Writes `rows` as one BENCH file: items/s per row, plus the modeled GOPS
/// and DRAM words where the row has them.
void WriteRows(const char* path, const char* bench_name,
               const std::vector<BenchRow>& rows) {
  bench::BenchRows out(bench_name);
  for (const BenchRow& r : rows) {
    out.Add(r.name, "items_per_s", r.items_per_s, "1/s",
            bench::Better::kHigher);
    if (r.sim_gops > 0) {
      out.Add(r.name, "sim_gops", r.sim_gops, "GOPS", bench::Better::kHigher);
    }
    if (r.dram_words >= 0) {
      out.Add(r.name, "dram_words", r.dram_words, "words",
              bench::Better::kLower);
    }
  }
  out.Write(path);
}

/// Memory-bound workloads for the LOAD/SAVE stage trajectory: the functional
/// datapath here moves millions of DRAM words per inference, so items/s
/// tracks the memory system, not the MAC kernels.

/// VGG16 conv1_1 geometry: 3->64ch @ 224x224. The SAVE stage writes
/// 64*224*224 ~ 3.2M words per inference — the archetypal SAVE-bound layer.
Model BuildEarlyConv() { return BuildSingleConv(3, 64, 224, 224, 3); }

/// FC-style layer (4096 -> 512): one fully contiguous ~2.1M-word LOAD_WGT
/// stream per inference, negligible fmap traffic.
Model BuildFcLayer() {
  Model m("bench_fc", FmapShape{4096, 1, 1});
  ConvLayer fc;
  fc.name = "fc";
  fc.in_channels = 4096;
  fc.out_channels = 512;
  fc.kernel_h = 1;
  fc.kernel_w = 1;
  fc.stride = 1;
  fc.pad = 0;
  fc.is_fc = true;
  m.Append(fc);
  return m;
}

/// Residual pair at conv2_x scale (64ch 56x56): the second conv's SAVE_RES
/// streams the skip tensor back through the fmap port word-for-word.
Model BuildResidualPair() {
  Model m("bench_residual", FmapShape{64, 56, 56});
  ConvLayer stem;
  stem.name = "stem";
  stem.in_channels = 64;
  stem.out_channels = 64;
  stem.relu = true;
  m.Append(stem);
  ConvLayer body;
  body.name = "body";
  body.in_channels = 64;
  body.out_channels = 64;
  m.Append(body);
  ConvLayer join;
  join.name = "join";
  join.in_channels = 64;
  join.out_channels = 64;
  join.relu = true;
  join.add = "stem";
  m.Append(join);
  return m;
}

/// Residual-block interior segment for the fused-vs-unfused comparison:
/// stem branching into a body pair and a 1x1 projection skip at 16ch 32x32.
/// Only the bodya -> bodyb interior edge can stay resident.
Model BuildResidualSegment() {
  Model m("bench_fusion_resblock", FmapShape{16, 32, 32});
  ConvLayer stem;
  stem.name = "stem";
  stem.in_channels = stem.out_channels = 16;
  stem.relu = true;
  m.Append(stem);
  ConvLayer bodya = stem;
  bodya.name = "bodya";
  bodya.from = "stem";
  m.Append(bodya);
  ConvLayer proj;
  proj.name = "proj";
  proj.in_channels = proj.out_channels = 16;
  proj.kernel_h = proj.kernel_w = 1;
  proj.pad = 0;
  proj.from = "stem";
  m.Append(proj);
  ConvLayer bodyb = stem;
  bodyb.name = "bodyb";
  bodyb.from = "bodya";
  bodyb.add = "proj";
  m.Append(bodyb);
  return m;
}

/// FC-tail segment: a 32ch 16x16 conv handing its full image to the
/// classifier on chip (the fc reads the 8192-word flattened tensor).
Model BuildFcTailSegment() {
  Model m("bench_fusion_fc_tail", FmapShape{32, 16, 16});
  ConvLayer conv;
  conv.name = "conv";
  conv.in_channels = conv.out_channels = 32;
  conv.relu = true;
  m.Append(conv);
  m.AppendFullyConnected("fc", 64, /*relu=*/false);
  return m;
}

/// ResNet-18-shaped tail at 4ch 48x48: residual block, a two-conv trunk and
/// a pooled head feeding the classifier. Feature maps dominate weights, so
/// nearly every edge fuses and the segment shows the headline DRAM saving
/// (the per-segment rows above isolate the residual interior and the
/// weight-dominated FC hand-off individually).
Model BuildTailSegment() {
  Model m("bench_fusion_tail", FmapShape{4, 48, 48});
  ConvLayer stem;
  stem.name = "stem";
  stem.in_channels = stem.out_channels = 4;
  stem.relu = true;
  m.Append(stem);
  ConvLayer bodya = stem;
  bodya.name = "bodya";
  bodya.from = "stem";
  m.Append(bodya);
  ConvLayer proj;
  proj.name = "proj";
  proj.in_channels = proj.out_channels = 4;
  proj.kernel_h = proj.kernel_w = 1;
  proj.pad = 0;
  proj.from = "stem";
  m.Append(proj);
  ConvLayer bodyb = stem;
  bodyb.name = "bodyb";
  bodyb.from = "bodya";
  bodyb.add = "proj";
  m.Append(bodyb);
  ConvLayer mid0 = stem;
  mid0.name = "mid0";
  mid0.from = "bodyb";
  m.Append(mid0);
  ConvLayer mid1 = stem;
  mid1.name = "mid1";
  mid1.from = "mid0";
  m.Append(mid1);
  ConvLayer head;
  head.name = "head";
  head.in_channels = head.out_channels = 4;
  head.stride = 2;
  head.relu = true;
  head.pool = 2;
  head.from = "mid1";
  m.Append(head);
  m.AppendFullyConnected("fc", 10, /*relu=*/false);
  return m;
}

/// Pooled SAVE: 64->64 @ 112x112 with a fused 2x2 max-pool, exercising the
/// window-reduction path of the SAVE loop nest.
Model BuildPooledConv() {
  Model m("bench_pooled", FmapShape{64, 112, 112});
  ConvLayer conv;
  conv.name = "conv";
  conv.in_channels = 64;
  conv.out_channels = 64;
  conv.relu = true;
  conv.pool = 2;
  m.Append(conv);
  return m;
}

}  // namespace
}  // namespace hdnn

int main(int argc, char** argv) {
  using namespace hdnn;
  if (argc != 1 && argc != 4) {
    std::fprintf(stderr,
                 "usage: %s [COMP_JSON LOADSAVE_JSON FUSION_JSON]\n"
                 "  pass no output paths (defaults: BENCH_sim_comp.json,\n"
                 "  BENCH_sim_loadsave.json, BENCH_sim_fusion.json) or all\n"
                 "  three — anything else would silently drop an artifact.\n",
                 argv[0]);
    return 2;
  }
  const char* out_path = argc == 4 ? argv[1] : "BENCH_sim_comp.json";
  const char* ldsv_path = argc == 4 ? argv[2] : "BENCH_sim_loadsave.json";
  const char* fusion_path = argc == 4 ? argv[3] : "BENCH_sim_fusion.json";
  const FpgaSpec spec = PynqZ1Spec();
  const AccelConfig cfg = bench::PynqDesignPoint();

  std::vector<BenchRow> rows;
  std::printf("micro_kernels on %s, %s\n", spec.name.c_str(),
              cfg.ToString().c_str());
  std::printf("micro_kernels: simulator COMP datapath + serving benchmarks\n");
  bench::PrintRule();

  // --- Winograd tile transforms (pure kernel, no simulator) ---
  for (int pt : {4, 6}) {
    Prng prng(1);
    std::vector<std::int32_t> d(static_cast<std::size_t>(pt * pt));
    for (auto& v : d) v = static_cast<std::int32_t>(prng.NextInt(-2048, 2047));
    // Times the allocation-free Into variant — the path the simulator's
    // COMP loop actually runs. The kernel is nanosecond-scale, so batch
    // calls between clock reads or the clock overhead dominates the row.
    std::vector<std::int32_t> out(static_cast<std::size_t>(pt * pt));
    std::vector<std::int64_t> tmp(static_cast<std::size_t>(pt * pt));
    volatile std::int32_t sink = 0;
    constexpr int kBatch = 512;
    rows.push_back(Measure(
        "transform_input_pt" + std::to_string(pt), kBatch, [&] {
          for (int i = 0; i < kBatch; ++i) {
            TransformInputTileInto(d, pt, out, tmp);
            sink = out[0];
          }
        }));
    PrintRow(rows.back());
  }

  // --- COMP-dominated single layers (functional simulation) ---
  // Mid-size layer: quick row for the trajectory.
  {
    const Model m = BuildSingleConv(32, 32, 28, 28, 3);
    AddFunctionalSimRows(rows, "comp_spatial_c32_28x28", m,
                         ConvMode::kSpatial, cfg, spec, 0.5);
    AddFunctionalSimRows(rows, "comp_winograd_c32_28x28", m,
                         ConvMode::kWinograd, cfg, spec, 0.5);
  }
  // Headline: VGG16 conv2_1 geometry (64ch 56x56, 3x3) — the paper's main
  // workload's COMP-dominated regime. ~0.23 GOP per inference.
  {
    const Model m = BuildSingleConv(64, 64, 56, 56, 3);
    AddFunctionalSimRows(rows, "vgg16_conv2_spatial", m, ConvMode::kSpatial,
                         cfg, spec, 1.0);
    AddFunctionalSimRows(rows, "vgg16_conv2_winograd", m,
                         ConvMode::kWinograd, cfg, spec, 1.0);
  }

  // --- Batch serving through the InferenceEngine ---
  {
    const Model model = BuildTinyCnn();
    const DseResult dse = DseEngine(spec).Explore(model);
    const ModelWeightsQ weights = SyntheticWeights(model, 7);
    const int kBatch = 8;
    std::vector<Tensor<std::int16_t>> pool;
    for (int i = 0; i < kBatch; ++i) {
      Tensor<std::int16_t> t(Shape{model.input().channels,
                                   model.input().height,
                                   model.input().width});
      Prng prng(1000 + static_cast<std::uint64_t>(i));
      t.FillRandomInt(prng, -256, 255);
      pool.push_back(std::move(t));
    }
    InferenceEngine engine(spec, /*num_workers=*/2);
    const std::span<const Tensor<std::int16_t>> inputs(pool.data(),
                                                       pool.size());
    double agg_gops = 0;
    BenchRow row = Measure(
        "serve_throughput_b8", static_cast<double>(kBatch),
        [&] {
          const BatchReport r = engine.ExecuteBatch(model, dse.config,
                                                    dse.mapping, weights,
                                                    inputs);
          agg_gops = r.aggregate_effective_gops;
        },
        0.5, /*min_iters=*/1);
    row.sim_gops = agg_gops;
    rows.push_back(row);
    PrintRow(rows.back());
  }
  bench::PrintRule();

  // --- LOAD/SAVE stage benchmarks (memory-bound layers) ---
  std::vector<BenchRow> ldsv_rows;
  std::printf("micro_kernels: functional memory datapath (LOAD/SAVE stages)\n");
  bench::PrintRule();
  {
    // Raw DramModel block transfer: pure memory-system ceiling, no simulator.
    constexpr std::int64_t kWords = 1 << 20;
    DramModel dram(2 * kWords);
    std::vector<std::int16_t> host(static_cast<std::size_t>(kWords));
    for (std::int64_t i = 0; i < kWords; ++i) {
      host[static_cast<std::size_t>(i)] = static_cast<std::int16_t>(i);
    }
    volatile std::int16_t sink = 0;
    ldsv_rows.push_back(Measure(
        "dram_block_copy_1m", 2.0 * static_cast<double>(kWords), [&] {
          dram.WriteBlock(0, host);
          dram.ReadBlock(kWords, std::span<std::int16_t>(host));
          sink = host[0];
        }));
    PrintRow(ldsv_rows.back());
  }
  AddFunctionalSimRows(ldsv_rows, "ldsv_vgg16_conv1_spatial", BuildEarlyConv(),
                       ConvMode::kSpatial, cfg, spec, 0.5);
  AddFunctionalSimRows(ldsv_rows, "ldsv_vgg16_conv1_winograd",
                       BuildEarlyConv(), ConvMode::kWinograd, cfg, spec, 0.5);
  AddFunctionalSimRows(ldsv_rows, "ldsv_fc_4096x512", BuildFcLayer(),
                       ConvMode::kSpatial, cfg, spec, 0.5);
  AddFunctionalSimRows(ldsv_rows, "ldsv_residual_56x56", BuildResidualPair(),
                       ConvMode::kSpatial, cfg, spec, 0.5);
  AddFunctionalSimRows(ldsv_rows, "ldsv_pooled_112x112", BuildPooledConv(),
                       ConvMode::kSpatial, cfg, spec, 0.5);
  bench::PrintRule();

  // --- Fused-segment benchmarks (keep-resident hand-offs) ---
  // Each segment runs twice under identical modes: once with PlanFusion's
  // keep-resident edges, once fully unfused. The dram_words column is the
  // point: fused rows must move strictly fewer words, and the delta is the
  // segment's interior round-trip traffic.
  std::vector<BenchRow> fusion_rows;
  std::printf("micro_kernels: fused segments (keep-resident hand-offs)\n");
  bench::PrintRule();
  for (const Model& m :
       {BuildResidualSegment(), BuildFcTailSegment(), BuildTailSegment()}) {
    std::vector<LayerMapping> unfused(
        static_cast<std::size_t>(m.num_layers()),
        LayerMapping{ConvMode::kSpatial, Dataflow::kInputStationary});
    std::vector<LayerMapping> fused = unfused;
    const std::vector<bool> plan = PlanFusion(m, cfg);
    for (std::size_t i = 0; i < plan.size(); ++i) {
      fused[i].fuse_output = plan[i];
    }
    AddMappedSimRows(fusion_rows, m.name() + "_fused", m, fused, cfg, spec,
                     0.25);
    AddMappedSimRows(fusion_rows, m.name() + "_unfused", m, unfused, cfg,
                     spec, 0.25);
  }
  bench::PrintRule();

  WriteRows(out_path, "sim_comp", rows);
  WriteRows(ldsv_path, "sim_loadsave", ldsv_rows);
  WriteRows(fusion_path, "sim_fusion", fusion_rows);
  return 0;
}
