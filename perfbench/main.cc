// Repository benchmark driver:
//   hdnn_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                  [--trace-file <path>]
// Prints human-readable notes, then as its last stdout line one JSON object
// {correct, attempted, failed, metrics}: the end-to-end metrics of an
// untraced run, or the per-layer metrics of a traced one (whose spans and
// per-layer ledger go to --trace-file as Chrome trace_event JSON). Exits 1
// on any correctness failure, 3 on bad arguments or an unexpected error.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <stdexcept>
#include <string>

#include "common.h"

namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "error: %s\nusage: hdnn_perfbench --workload "
               "<infer_resnet18|serve_tiny_open|design_paper|fleet_replay> "
               "--seed <n> --seconds <s> --trace <0|1> [--trace-file <path>]\n",
               why);
  return 3;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  RunOptions opts;
  opts.trace_path = "perfbench-trace.json";
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + arg).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      opts.workload = value;
    } else if (arg == "--seed") {
      opts.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0' || value.empty()) return Usage("--seed is not a number");
      have_seed = true;
    } else if (arg == "--seconds") {
      opts.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(opts.seconds > 0 && opts.seconds <= 600)) {
        return Usage("--seconds must be in (0, 600]");
      }
    } else if (arg == "--trace") {
      if (value != "0" && value != "1") return Usage("--trace must be 0 or 1");
      opts.trace = value == "1";
    } else if (arg == "--trace-file") {
      opts.trace_path = value;
    } else {
      return Usage(("unknown argument " + arg).c_str());
    }
  }
  if (!have_seed) return Usage("--seed is required");

  RunResult (*run)(const RunOptions&) = nullptr;
  if (opts.workload == "infer_resnet18") run = RunInfer;
  if (opts.workload == "serve_tiny_open") run = RunServe;
  if (opts.workload == "design_paper") run = RunDesign;
  if (opts.workload == "fleet_replay") run = RunFleet;
  if (run == nullptr) return Usage("unknown --workload");

  try {
    const auto t0 = Clock::now();
    RunResult result = run(opts);
    if (result.attempted < 1) result.Fail("no operation completed");
    if (opts.trace) DefaultPerLayer(result.metrics);
    for (const std::string& note : result.notes) {
      std::printf("# %s\n", note.c_str());
    }
    std::printf("# workload %s seed %llu: %.1f s wall\n",
                opts.workload.c_str(),
                static_cast<unsigned long long>(opts.seed),
                MsSince(t0) / 1e3);
    std::fflush(stdout);
    // A run that failed its checks may not have measured every metric; it
    // still exits 1.
    std::string line;
    try {
      line = ResultLine(result.correct, result.attempted, result.failed,
                        opts.trace ? PerLayerMetrics() : EndToEndMetrics(),
                        result.metrics);
    } catch (const std::invalid_argument& e) {
      if (result.correct) throw;
      std::fprintf(stderr, "no result line: %s\n", e.what());
      return 1;
    }
    std::printf("%s\n", line.c_str());
    return result.correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 3;
  }
}
