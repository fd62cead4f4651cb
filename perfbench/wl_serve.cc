// serve_tiny_open: seeded open-loop Poisson schedules replayed through
// InferenceServer::ServeTrace in kFunctional mode, serving TinyCnn at its
// PYNQ-Z1 DSE point. ServeTrace is the server's single-threaded
// virtual-time replay path: it shares the live server's DeadlineQueue
// (admission, deadline shedding, size/timeout batching) and checks one
// Runtime out of the engine's RuntimePool, and it runs every admitted
// request as a functional Execute. The live path (Submit, worker loops,
// PickReadyQueue, RunBatch) carries no load here.
//
// The arrival schedules are precomputed from the seed and every latency is
// counted from the request's due (arrival) time. Virtual time keeps the
// serving outcome exact; the host clock measures what serving costs.
//
// Why virtual time: a live 3-worker open loop on a shared 4-vCPU host had a
// p99 whose run-to-run spread over ten seeds reached 24% at 140 req/s and
// 54-57% at 100 req/s (the host steals CPU from busy vCPUs: 12% of busy
// time while serving vs 4% single-threaded), so its tail could not carry a
// regression bound.
#include <cmath>

#include "common.h"
#include "common/prng.h"
#include "dse/search.h"
#include "nn/builders.h"
#include "quant/golden.h"
#include "runtime/server.h"

namespace perfbench {

using namespace hdnn;

namespace {

constexpr int kSetupRepeats = 5;
constexpr int kDistinctInputs = 16;
// Load and limit as in the live-server design: half of capacity (here the
// modeled capacity of ServeTrace's one drainer) and a 50 ms deadline that
// doubles as the latency limit of serve_goodput.
constexpr double kLoad = 0.5;
constexpr double kLimitSeconds = 0.050;
// Distinct schedules, cycled. At half load a queue forgets its empty start
// within a few busy periods (about 1 / (1 - load)^2 = 4 arrivals), so in a
// schedule of 64 arrivals nearly all are in the steady state; the notes
// check it by comparing the first and second half of each schedule (at
// seed 3: equal p50, 1.277 ms, in both halves at 64 and at 256 arrivals per
// schedule; p99 2.037 against 2.037 ms at 256). 64 keeps a
// replay near 0.5 s of host time, so a 25 s run holds the 40 replays p75
// needs.
constexpr int kSegments = 8;
constexpr int kArrivalsPerSegment = 64;
constexpr double kTailPercentile = 75;

using Arrival = InferenceServer::TraceArrival;
using Trace = std::vector<Arrival>;

/// Poisson arrivals at `rate` with a seeded input choice each.
Trace Schedule(double rate, std::uint64_t seed) {
  Prng prng(seed);
  Trace trace;
  double t = 0;
  for (int i = 0; i < kArrivalsPerSegment; ++i) {
    t += -std::log(1.0 - prng.NextDouble()) / rate;
    trace.push_back(
        {t, static_cast<int>(prng.NextInt(0, kDistinctInputs - 1)),
         kLimitSeconds});
  }
  return trace;
}

/// The virtual-time outcome of one replay, which must not move between
/// replays of the same schedule.
struct Outcome {
  std::vector<int> batch_sizes;
  std::vector<int> outcomes;
  std::vector<double> total_seconds;
  friend bool operator==(const Outcome&, const Outcome&) = default;
};

Outcome OutcomeOf(const InferenceServer::TraceReport& rep) {
  Outcome o;
  o.batch_sizes = rep.batch_sizes;
  for (const ItemReport& item : rep.items) {
    o.outcomes.push_back(static_cast<int>(item.outcome));
    o.total_seconds.push_back(item.total_seconds);
  }
  return o;
}

}  // namespace

RunResult RunServe(const RunOptions& opts) {
  RunResult result;
  const FpgaSpec& spec = PynqZ1Spec();
  const Model model = BuildTinyCnn();
  const ModelWeightsQ weights = SyntheticWeights(model, opts.seed);
  std::vector<Tensor<std::int16_t>> inputs;
  for (int i = 0; i < kDistinctInputs; ++i) {
    inputs.push_back(SeededInput(model, opts.seed * 1000 + 31 + i));
  }

  SpanRecorder rec(opts.trace);
  DseResult dse;
  std::unique_ptr<InferenceEngine> engine;
  std::unique_ptr<InferenceServer> server;
  ModelHandle handle = 0;
  double rate = 0;
  ServerOptions server_opts;
  server_opts.num_workers = 1;  // ServeTrace drains on the calling thread
  server_opts.mode = ExecMode::kFunctional;
  // Set-up: DSE, engine + server construction, RegisterModel (compile and
  // device profiling) and one warm-up replay.
  const double setup_s = MedianSetupSeconds(kSetupRepeats, [&] {
    server.reset();
    engine.reset();
    {
      ScopedSpan span(rec, "dse.explore");
      dse = DseEngine(spec).Explore(model);
    }
    engine = std::make_unique<InferenceEngine>(spec, 1);
    server = std::make_unique<InferenceServer>(*engine, server_opts);
    {
      ScopedSpan span(rec, "runtime.register_model");
      handle = server->RegisterModel(model, dse.config, dse.mapping, weights);
    }
    rate = kLoad / server->device_seconds_per_item(handle);
    server->ServeTrace(handle, inputs, Schedule(rate, opts.seed ^ 0x5eed));
  });
  std::vector<Trace> segments;
  for (int k = 0; k < kSegments; ++k) {
    segments.push_back(Schedule(rate, opts.seed * kSegments + k));
  }
  // The program the server runs (a cache hit on the engine).
  const std::shared_ptr<const CompiledModel> compiled =
      engine->GetOrCompile(model, dse.config, dse.mapping);
  const CompiledModel& cm = *compiled;
  std::vector<Tensor<std::int16_t>> golden;
  for (const auto& input : inputs) {
    golden.push_back(QuantGoldenForward(model, cm, weights, input).back());
  }

  // The traced run splits its time between the replays and the Execute
  // decomposition.
  const double loop_seconds = opts.trace ? opts.seconds / 2 : opts.seconds;
  std::vector<Outcome> first(kSegments);
  std::vector<double> ms_per_request, latency_ms, queue_ms, service_ms;
  std::vector<double> early_ms, late_ms;  // each schedule's first/second half
  std::int64_t good = 0, executed = 0, shed = 0;
  RunReport first_ok;
  bool have_first_ok = false;
  const auto t_end =
      Clock::now() + std::chrono::duration<double>(loop_seconds);
  const std::size_t min_replays =
      opts.trace ? kSegments
                 : std::max<std::size_t>(kSegments,
                                         MinSamplesForTail(kTailPercentile));
  for (std::size_t iter = 0; iter < min_replays || Clock::now() < t_end;
       ++iter) {
    const bool first_replay = iter < kSegments;
    const std::size_t k = iter % kSegments;
    const Trace& trace = segments[k];
    const auto t0 = Clock::now();
    InferenceServer::TraceReport rep;
    {
      ScopedSpan span(rec, "runtime.serve_trace");
      rep = server->ServeTrace(handle, inputs, trace);
    }
    ms_per_request.push_back(MsSince(t0) /
                             static_cast<double>(trace.size()));

    const Outcome outcome = OutcomeOf(rep);
    if (first_replay) {
      first[k] = outcome;
    } else if (!(outcome == first[k])) {
      result.Fail("replay of the same schedule changed its virtual outcome");
      ++result.failed;
    }
    for (std::size_t i = 0; i < rep.items.size(); ++i) {
      ItemReport& r = rep.items[i];
      ++result.attempted;
      if (r.outcome != ServeOutcome::kOk) {
        ++shed;
        ++result.failed;
        continue;
      }
      ++executed;
      if (!(r.run.output ==
            golden[static_cast<std::size_t>(trace[i].input_index)])) {
        result.Fail("served output differs from QuantGoldenForward");
        ++result.failed;
        continue;
      }
      good += r.total_seconds <= kLimitSeconds;
      if (first_replay) {
        latency_ms.push_back(r.total_seconds * 1e3);
        (2 * i < trace.size() ? early_ms : late_ms)
            .push_back(r.total_seconds * 1e3);
        queue_ms.push_back(r.queue_seconds * 1e3);
        service_ms.push_back(r.service_seconds * 1e3);
      }
      if (!have_first_ok) {
        first_ok = std::move(r.run);
        have_first_ok = true;
      }
    }
  }
  server->Stop();
  if (!have_first_ok) {
    result.Fail("no request was served");
    return result;
  }

  std::sort(latency_ms.begin(), latency_ms.end());
  std::sort(early_ms.begin(), early_ms.end());
  std::sort(late_ms.begin(), late_ms.end());
  char line[320];
  std::snprintf(line, sizeof(line),
                "config %s; %d schedules of %d arrivals at %.0f req/s "
                "(%.1f x modeled capacity), %.0f ms deadline and limit",
                dse.config.ToString().c_str(), kSegments, kArrivalsPerSegment,
                rate, kLoad, kLimitSeconds * 1e3);
  result.notes.push_back(line);
  std::snprintf(line, sizeof(line),
                "virtual latency p50 %.4f ms, p99 %.4f ms; first half of "
                "each schedule p50 %.4f / p99 %.4f ms, second half p50 %.4f "
                "/ p99 %.4f ms",
                NearestRank(latency_ms, 50), NearestRank(latency_ms, 99),
                NearestRank(early_ms, 50), NearestRank(early_ms, 99),
                NearestRank(late_ms, 50), NearestRank(late_ms, 99));
  result.notes.push_back(line);

  auto& m = result.metrics;
  if (!opts.trace) {
    const TailPoint tail = CheckedTail(ms_per_request, kTailPercentile, result);
    m["mean_ms"] = Mean(ms_per_request);
    m["tail_ms"] = tail.value;
    m["ok_frac"] =
        static_cast<double>(good) / static_cast<double>(result.attempted);
    m["modeled_per_s"] = dse.config.ni / first_ok.seconds;
    m["setup_s"] = setup_s;
    m["peak_rss_mb"] = PeakRssMb();
    std::snprintf(line, sizeof(line),
                  "serve_p50_ms %.3f ms host per request, min %.3f ms; serve "
                  "tail %.3f ms (p%g of %zu replays, %zu beyond); "
                  "serve_goodput %.4f (ok within %.0f ms of due)",
                  Median(ms_per_request), Percentile(ms_per_request, 0),
                  tail.value, tail.percentile, tail.samples, tail.beyond,
                  m["ok_frac"], kLimitSeconds * 1e3);
    result.notes.push_back(line);
    return result;
  }

  // Serving-layer metrics from the first replay of every schedule.
  std::sort(queue_ms.begin(), queue_ms.end());
  m["runtime.queue_p50_ms"] = NearestRank(queue_ms, 50);
  m["runtime.queue_p99_ms"] = NearestRank(queue_ms, 99);
  m["runtime.service_p50_ms"] = Median(service_ms);
  std::int64_t batches = 0, batched = 0;
  for (const Outcome& o : first) {
    for (int b : o.batch_sizes) {
      ++batches;
      batched += b;
    }
  }
  m["runtime.batch_size_mean"] =
      static_cast<double>(batched) / static_cast<double>(batches);
  m["runtime.shed_frac"] =
      static_cast<double>(shed) / static_cast<double>(executed + shed);

  // Host breakdown of one request's Execute: the decomposition on TinyCnn.
  Runtime runtime(dse.config, spec);
  TraceExecute(rec, runtime, spec, model, cm, weights, inputs, golden,
               loop_seconds, result);
  const auto totals = rec.Summarize();
  m["dse.explore_ms"] = SelfMsPerCall(totals, "dse.explore");
  m["dse.candidates"] = dse.candidates_evaluated;
  m["mem.dram_image_mwords"] = cm.total_dram_words / 1e6;
  m["sim.device_gops"] = first_ok.effective_gops;
  const EstimatorError err = CompareEstimator(model, cm, spec, first_ok, rec);
  m["estimator.e2e_err_pct"] = err.e2e_pct;
  m["estimator.layer_err_max_pct"] = err.layer_max_pct;
  FinishTrace(opts, rec, result);
  return result;
}

}  // namespace perfbench
