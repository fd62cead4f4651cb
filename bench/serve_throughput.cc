// Batch-serving throughput of the InferenceEngine: sweeps batch size x
// worker count on the quickstart CNN.
//
// Two throughput domains are reported per cell:
//   * host_items_per_s — wall-clock serving rate of this process (machine-
//     and core-count-dependent);
//   * aggregate_effective_gops — modeled-accelerator throughput with the W
//     workers as W parallel instances (paper Table 4 "effective" style);
//     deterministic, so the speedup-vs-1-worker column is exact.
//
// Prints the rows and writes them as one BENCH file (default
// ./BENCH_serve_throughput.json, override with argv[1]).
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/prng.h"
#include "dse/search.h"
#include "nn/builders.h"
#include "runtime/engine.h"

using namespace hdnn;
using bench::Better;

int main(int argc, char** argv) {
  const std::string json_path =
      argc > 1 ? argv[1] : "BENCH_serve_throughput.json";
  const FpgaSpec& spec = PynqZ1Spec();
  const Model model = BuildTinyCnn();

  // Same deployment the quickstart example arrives at: DSE picks the config
  // and per-layer mapping for the platform.
  const DseResult dse = DseEngine(spec).Explore(model);

  const ModelWeightsQ weights = SyntheticWeights(model, 7);
  std::vector<Tensor<std::int16_t>> batch_pool;
  const int kMaxBatch = 16;
  for (int i = 0; i < kMaxBatch; ++i) {
    Tensor<std::int16_t> t(Shape{model.input().channels,
                                 model.input().height, model.input().width});
    Prng prng(1000 + static_cast<std::uint64_t>(i));
    t.FillRandomInt(prng, -256, 255);
    batch_pool.push_back(std::move(t));
  }

  const int batch_sizes[] = {1, 4, 8, 16};
  const int worker_counts[] = {1, 2, 4};
  // Host wall time is noisy (scheduler jitter, CPU contention): each cell is
  // the best of kReps repetitions. The modeled-accelerator numbers are
  // deterministic, so repetition only de-noises the host_* fields.
  const int kReps = 3;

  std::printf("serve_throughput: %s on %s, %s\n", model.name().c_str(),
              spec.name.c_str(), dse.config.ToString().c_str());
  bench::BenchRows out("serve_throughput");
  out.Add(model.name(), "total_gop_per_item",
          static_cast<double>(model.TotalOps()) / 1e9, "GOP", Better::kNeutral);
  // One engine per worker count so the program cache is also exercised:
  // every batch size after the first must be a cache hit.
  for (int workers : worker_counts) {
    InferenceEngine engine(spec, workers);
    for (int batch : batch_sizes) {
      const std::span<const Tensor<std::int16_t>> inputs(
          batch_pool.data(), static_cast<std::size_t>(batch));
      BatchReport r = engine.ExecuteBatch(model, dse.config, dse.mapping,
                                          weights, inputs);
      for (int rep = 1; rep < kReps; ++rep) {
        BatchReport again = engine.ExecuteBatch(model, dse.config,
                                                dse.mapping, weights, inputs);
        again.cache_hit = r.cache_hit;  // first rep's compile status
        if (again.items_per_second > r.items_per_second) r = std::move(again);
      }
      char cell[32];
      std::snprintf(cell, sizeof(cell), "w%d/b%d", workers, batch);
      out.Add(cell, "host_items_per_s", r.items_per_second, "1/s",
              Better::kHigher);
      out.Add(cell, "sim_makespan_ms", r.sim_makespan_seconds * 1e3, "ms",
              Better::kLower);
      out.Add(cell, "aggregate_effective_gops", r.aggregate_effective_gops,
              "GOPS", Better::kHigher);
      out.Add(cell, "program_cache_misses", r.cache_hit ? 0 : 1, "count",
              Better::kLower);
    }
  }

  // Headline: aggregate throughput at the largest batch, 4 workers vs 1.
  double gops_w1 = 0, gops_w4 = 0;
  {
    const std::span<const Tensor<std::int16_t>> inputs(batch_pool.data(),
                                                       kMaxBatch);
    InferenceEngine e1(spec, 1);
    InferenceEngine e4(spec, 4);
    gops_w1 = e1.ExecuteBatch(model, dse.config, dse.mapping, weights, inputs)
                  .aggregate_effective_gops;
    gops_w4 = e4.ExecuteBatch(model, dse.config, dse.mapping, weights, inputs)
                  .aggregate_effective_gops;
  }
  char headline[32];
  std::snprintf(headline, sizeof(headline), "b%d", kMaxBatch);
  out.Add(headline, "gops_1_worker", gops_w1, "GOPS", Better::kHigher);
  out.Add(headline, "gops_4_workers", gops_w4, "GOPS", Better::kHigher);
  out.Add(headline, "speedup_4v1", gops_w4 / gops_w1, "x", Better::kHigher);
  out.Print();
  out.Write(json_path);
  return 0;
}
