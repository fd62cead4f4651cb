// Tail latency of the async serving front door under open-loop load.
//
// A seeded load generator precomputes a Poisson (or bursty, two-state MMPP
// style) arrival schedule, replays it against InferenceServer::Submit on a
// dedicated thread, and measures per-request latency FROM THE SCHEDULED
// ARRIVAL TIME — a late submit counts against the server, so the numbers are
// free of coordinated omission. The server runs in device-paced mode: each
// worker stands in for one modeled accelerator instance completing items at
// the profiled per-item device latency, so the measurement exercises the
// queueing/batching/shedding front door at realistic request rates instead
// of the host cost of the cycle simulator.
//
// Sweeps (offered load is expressed relative to C1, the modeled single-
// instance capacity 1/device_seconds):
//   * offered QPS {0.5, 1, 2, 3} x C1 for 1 and 4 workers (Poisson);
//   * batcher settings (max_batch, max_queue_delay) at 2 x C1, 4 workers;
//   * bursty arrivals at 2 x C1 for 1 and 4 workers.
// Each cell reports achieved QPS, p50/p99/p999 latency, mean batch size and
// shed rate. A p99/p999 row is written only when at least ten ok samples
// rank beyond that percentile: with fewer, the nearest-rank value is (close
// to) the cell's maximum and swings run to run on identical code. Stdout
// prints every percentile regardless. The headline compares 4-worker vs
// 1-worker achieved QPS at 3 x C1 (below the 4-worker saturation point).
//
// A deterministic section replays a fixed trace through ServeTrace in
// functional mode twice and against sequential Runtime execution; any
// mismatch in batch composition or output bits exits non-zero.
//
// Prints one line per cell and writes the rows as one BENCH file (default
// ./BENCH_serve_latency.json, override with argv[1]). A cell's name is its
// sweep and coordinates, e.g. "batcher/poisson/w4/x2.0/mb8/d1.0".
// `--smoke` shortens every cell for CI.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "common/math_util.h"
#include "common/prng.h"
#include "dse/search.h"
#include "nn/builders.h"
#include "runtime/engine.h"
#include "runtime/server.h"

using namespace hdnn;
using bench::Better;

namespace {

/// Exponential interarrival with the given rate (inverse CDF; u in (0,1]).
double ExpInterarrival(Prng& prng, double rate) {
  const double u = 1.0 - prng.NextDouble();  // (0, 1]
  return -std::log(u) / rate;
}

/// Seeded arrival schedule over [0, duration): Poisson, or a two-state
/// bursty process (30% of each 100 ms period at 2.5x the mean rate, the
/// rest at the complementary low rate — same mean as `rate`).
std::vector<double> MakeSchedule(const std::string& pattern, double rate,
                                 double duration, std::uint64_t seed) {
  Prng prng(seed);
  std::vector<double> arrivals;
  double t = 0;
  if (pattern == "poisson") {
    for (t = ExpInterarrival(prng, rate); t < duration;
         t += ExpInterarrival(prng, rate)) {
      arrivals.push_back(t);
    }
    return arrivals;
  }
  const double period = 0.100, on_frac = 0.30, boost = 2.5;
  const double rate_hi = boost * rate;
  const double rate_lo = rate * (1 - boost * on_frac) / (1 - on_frac);
  // Walk explicit [start, end) state segments and fill each with its own
  // Poisson arrivals. Redrawing at every boundary is exact (the process is
  // memoryless) and immune to fmod() edge cases at segment boundaries.
  for (int k = 0; period * k < duration; ++k) {
    const double starts[2] = {period * k, period * k + on_frac * period};
    const double ends[2] = {starts[1], period * (k + 1)};
    const double rates[2] = {rate_hi, rate_lo};
    for (int s = 0; s < 2; ++s) {
      for (t = starts[s] + ExpInterarrival(prng, rates[s]);
           t < ends[s] && t < duration; t += ExpInterarrival(prng, rates[s])) {
        arrivals.push_back(t);
      }
    }
  }
  return arrivals;
}

struct CellResult {
  int reqs = 0;
  std::size_t ok_samples = 0;  ///< latencies behind the percentiles
  double achieved_qps = 0;
  double p50_ms = 0, p99_ms = 0, p999_ms = 0;
  double mean_batch = 0;
  double shed_rate = 0;
};

/// One open-loop measurement: build a fresh server, replay the schedule on a
/// submit thread, collect every future. Latency is measured from the
/// SCHEDULED arrival: lateness of the submit thread is charged to the
/// system, not silently dropped (no coordinated omission).
CellResult RunCell(InferenceEngine& engine, const Model& model,
                   const AccelConfig& cfg,
                   const std::vector<LayerMapping>& mapping,
                   const ModelWeightsQ& weights,
                   const Tensor<std::int16_t>& input,
                   const ServerOptions& opts,
                   const std::vector<double>& schedule,
                   double deadline_seconds) {
  InferenceServer server(engine, opts);
  const ModelHandle h = server.RegisterModel(model, cfg, mapping, weights);

  const std::size_t n = schedule.size();
  std::vector<std::future<ItemReport>> futures(n);
  std::vector<double> lateness(n, 0);

  const auto epoch = std::chrono::steady_clock::now();
  std::thread submitter([&] {
    for (std::size_t i = 0; i < n; ++i) {
      const auto due =
          epoch + std::chrono::duration_cast<
                      std::chrono::steady_clock::duration>(
                      std::chrono::duration<double>(schedule[i]));
      std::this_thread::sleep_until(due);
      lateness[i] = std::max(
          0.0, std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                             due)
                   .count());
      futures[i] = server.Submit(h, input, deadline_seconds);
    }
  });
  submitter.join();

  std::vector<double> latencies_ms;
  latencies_ms.reserve(n);
  int ok = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const ItemReport r = futures[i].get();
    if (r.outcome == ServeOutcome::kOk) {
      ++ok;
      latencies_ms.push_back((lateness[i] + r.total_seconds) * 1e3);
    }
  }
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - epoch)
          .count();
  const ServerStats stats = server.stats(h);
  server.Stop();

  std::sort(latencies_ms.begin(), latencies_ms.end());
  CellResult out;
  out.reqs = static_cast<int>(n);
  out.ok_samples = latencies_ms.size();
  out.achieved_qps = elapsed > 0 ? ok / elapsed : 0;
  out.p50_ms = Percentile(latencies_ms, 0.50);
  out.p99_ms = Percentile(latencies_ms, 0.99);
  out.p999_ms = Percentile(latencies_ms, 0.999);
  out.mean_batch = stats.mean_batch_size();
  out.shed_rate = stats.shed_rate();
  return out;
}

/// True when at least ten of `n` samples rank beyond the nearest-rank `q`
/// percentile (the rank Percentile() reports).
bool TailResolved(std::size_t n, double q) {
  const auto rank =
      static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  return n >= std::max<std::size_t>(rank, 1) + 10;
}

/// Prints one cell and adds its rows under
/// "<sweep>/<pattern>/w<workers>/x<ratio>/mb<max_batch>/d<delay ms>".
void AddCell(bench::BenchRows& out, const char* sweep, const char* pattern,
             int workers, double offered_ratio, double offered_qps,
             const ServerOptions& opts, const CellResult& r) {
  char name[96];
  std::snprintf(name, sizeof(name), "%s/%s/w%d/x%.1f/mb%d/d%.1f", sweep,
                pattern, workers, offered_ratio, opts.max_batch,
                opts.max_queue_delay_seconds * 1e3);
  std::printf("%-34s %6d reqs %9.1f qps  p50 %7.3f  p99 %7.3f  p999 %7.3f ms"
              "  batch %5.2f  shed %.3f\n",
              name, r.reqs, r.achieved_qps, r.p50_ms, r.p99_ms, r.p999_ms,
              r.mean_batch, r.shed_rate);
  out.Add(name, "offered_qps", offered_qps, "1/s", Better::kNeutral);
  out.Add(name, "reqs", r.reqs, "count", Better::kNeutral);
  out.Add(name, "achieved_qps", r.achieved_qps, "1/s", Better::kHigher);
  out.Add(name, "p50_ms", r.p50_ms, "ms", Better::kLower);
  if (TailResolved(r.ok_samples, 0.99)) {
    out.Add(name, "p99_ms", r.p99_ms, "ms", Better::kLower);
  }
  if (TailResolved(r.ok_samples, 0.999)) {
    out.Add(name, "p999_ms", r.p999_ms, "ms", Better::kLower);
  }
  out.Add(name, "mean_batch", r.mean_batch, "count", Better::kNeutral);
  out.Add(name, "shed_rate", r.shed_rate, "frac", Better::kLower);
}

/// Deterministic check: fixed trace, functional mode, run twice; batch
/// composition must be stable and every output bit-identical to sequential
/// Runtime execution. Returns false on any mismatch.
bool VerifyDeterminism(InferenceEngine& engine, const Model& model,
                       const AccelConfig& cfg,
                       const std::vector<LayerMapping>& mapping,
                       const ModelWeightsQ& weights,
                       std::vector<int>* batch_sizes) {
  ServerOptions opts;
  opts.num_workers = 1;
  opts.max_batch = 4;
  opts.max_queue_delay_seconds = 0.002;
  opts.mode = ExecMode::kFunctional;
  InferenceServer server(engine, opts);
  const ModelHandle h = server.RegisterModel(model, cfg, mapping, weights);

  std::vector<Tensor<std::int16_t>> inputs;
  std::vector<InferenceServer::TraceArrival> trace;
  for (int i = 0; i < 6; ++i) {
    Tensor<std::int16_t> t(Shape{model.input().channels,
                                 model.input().height, model.input().width});
    Prng prng(9000 + static_cast<std::uint64_t>(i));
    t.FillRandomInt(prng, -256, 255);
    inputs.push_back(std::move(t));
    trace.push_back({0.0005 * i, i, kNoDeadline});
  }

  const auto a = server.ServeTrace(h, inputs, trace);
  const auto b = server.ServeTrace(h, inputs, trace);
  *batch_sizes = a.batch_sizes;
  if (a.batch_sizes != b.batch_sizes) return false;

  const Compiler compiler(cfg, PynqZ1Spec());
  const CompiledModel cm = compiler.Compile(model, mapping);
  Runtime runtime(cfg, PynqZ1Spec());
  for (std::size_t i = 0; i < trace.size(); ++i) {
    const RunReport seq = runtime.Execute(model, cm, weights, inputs[i]);
    if (a.items[i].outcome != ServeOutcome::kOk) return false;
    if (!(a.items[i].run.output == seq.output)) return false;
    if (!(b.items[i].run.output == seq.output)) return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path = "BENCH_serve_latency.json";
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else {
      json_path = argv[i];
    }
  }

  const FpgaSpec& spec = PynqZ1Spec();
  const Model model = BuildTinyCnn();
  const DseResult dse = DseEngine(spec).Explore(model);
  const ModelWeightsQ weights = SyntheticWeights(model, 7);
  Tensor<std::int16_t> input(Shape{model.input().channels,
                                   model.input().height,
                                   model.input().width});
  {
    Prng prng(1000);
    input.FillRandomInt(prng, -256, 255);
  }

  // C1: modeled single-instance capacity, the unit all offered loads are
  // expressed in. Profiled once through the same path the server uses.
  InferenceEngine engine(spec, 1);
  double device_seconds = 0;
  {
    ServerOptions probe;
    probe.mode = ExecMode::kDevicePaced;
    InferenceServer server(engine, probe);
    const ModelHandle h = server.RegisterModel(model, dse.config, dse.mapping,
                                               weights);
    device_seconds = server.device_seconds_per_item(h);
  }
  const double capacity_qps = 1.0 / device_seconds;
  const double duration = smoke ? 0.12 : 0.60;
  const double deadline_s = 0.020;

  std::printf("serve_latency: %s on %s, %s, device-paced%s, deadline %.1f "
              "ms\n",
              model.name().c_str(), spec.name.c_str(),
              dse.config.ToString().c_str(), smoke ? " (smoke)" : "",
              deadline_s * 1e3);
  bench::BenchRows out("serve_latency");
  out.Add(model.name(), "device_ms_per_item", device_seconds * 1e3, "ms",
          Better::kLower);
  out.Add(model.name(), "capacity_qps_1worker", capacity_qps, "1/s",
          Better::kHigher);
  double achieved_1w_at_3x = 0, achieved_4w_at_3x = 0;

  // --- offered-load sweep: Poisson, default batcher ---
  const double ratios[] = {0.5, 1.0, 2.0, 3.0};
  const int worker_counts[] = {1, 4};
  for (int workers : worker_counts) {
    for (double ratio : ratios) {
      ServerOptions opts;
      opts.num_workers = workers;
      opts.max_batch = 8;
      opts.max_queue_delay_seconds = 0.001;
      opts.max_queue_depth = 64;
      opts.mode = ExecMode::kDevicePaced;
      const double offered = ratio * capacity_qps;
      const auto schedule = MakeSchedule(
          "poisson", offered, duration,
          42 + static_cast<std::uint64_t>(100 * ratio) + workers);
      const CellResult r = RunCell(engine, model, dse.config, dse.mapping,
                                   weights, input, opts, schedule, deadline_s);
      AddCell(out, "load", "poisson", workers, ratio, offered, opts, r);
      if (ratio == 3.0 && workers == 1) achieved_1w_at_3x = r.achieved_qps;
      if (ratio == 3.0 && workers == 4) achieved_4w_at_3x = r.achieved_qps;
    }
  }

  // --- batcher sweep at 2 x C1, 4 workers ---
  struct BatcherSetting {
    int max_batch;
    double delay_s;
  };
  const BatcherSetting settings[] = {
      {1, 0.0}, {4, 0.0005}, {8, 0.001}, {16, 0.002}};
  for (const BatcherSetting& s : settings) {
    ServerOptions opts;
    opts.num_workers = 4;
    opts.max_batch = s.max_batch;
    opts.max_queue_delay_seconds = s.delay_s;
    opts.max_queue_depth = 64;
    opts.mode = ExecMode::kDevicePaced;
    const double offered = 2.0 * capacity_qps;
    const auto schedule = MakeSchedule("poisson", offered, duration,
                                       7000 + s.max_batch);
    const CellResult r = RunCell(engine, model, dse.config, dse.mapping,
                                 weights, input, opts, schedule, deadline_s);
    AddCell(out, "batcher", "poisson", 4, 2.0, offered, opts, r);
  }

  // --- bursty arrivals at 2 x C1 ---
  for (int workers : worker_counts) {
    ServerOptions opts;
    opts.num_workers = workers;
    opts.max_batch = 8;
    opts.max_queue_delay_seconds = 0.001;
    opts.max_queue_depth = 64;
    opts.mode = ExecMode::kDevicePaced;
    const double offered = 2.0 * capacity_qps;
    const auto schedule =
        MakeSchedule("bursty", offered, duration, 5000 + workers);
    const CellResult r = RunCell(engine, model, dse.config, dse.mapping,
                                 weights, input, opts, schedule, deadline_s);
    AddCell(out, "burst", "bursty", workers, 2.0, offered, opts, r);
  }

  // --- deterministic replay check ---
  std::vector<int> det_batches;
  const bool det_ok = VerifyDeterminism(engine, model, dse.config, dse.mapping,
                                        weights, &det_batches);
  std::printf("deterministic replay batches:");
  for (int size : det_batches) std::printf(" %d", size);
  std::printf("  (%s)\n", det_ok ? "match" : "MISMATCH");
  out.Add("replay", "functional_mismatches", det_ok ? 0 : 1, "count",
          Better::kZero);

  // --- headline: host-side wall-clock scaling of the front door ---
  out.Add("load/poisson/x3.0", "scaling_4v1",
          achieved_1w_at_3x > 0 ? achieved_4w_at_3x / achieved_1w_at_3x : 0,
          "x", Better::kHigher);
  out.Write(json_path);
  if (!det_ok) {
    std::fprintf(stderr, "FAIL: deterministic replay mismatch\n");
    return 2;
  }
  return 0;
}
