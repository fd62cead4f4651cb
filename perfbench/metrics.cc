#include "metrics.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <utility>

namespace perfbench {

const std::vector<MetricSpec>& EndToEndMetrics() {
  static const std::vector<MetricSpec> kSpecs = {
      {"mean_ms", "ms"},       {"tail_ms", "ms"},  {"ok_frac", "frac"},
      {"modeled_per_s", "1/s"}, {"setup_s", "s"},  {"peak_rss_mb", "MB"},
  };
  return kSpecs;
}

const std::vector<MetricSpec>& PerLayerMetrics() {
  static const std::vector<MetricSpec> kSpecs = {
      {"frontend.parse_ms", "ms"},
      {"dse.explore_ms", "ms"},
      {"dse.candidates", "count"},
      {"dse.frontier_points", "count"},
      {"compiler.compile_ms", "ms"},
      {"compiler.weight_pack_ms", "ms"},
      {"compiler.instructions", "count"},
      {"mem.dram_reset_ms", "ms"},
      {"mem.dram_image_mwords", "Mwords"},
      {"mem.dram_words_read", "words"},
      {"mem.dram_words_written", "words"},
      {"runtime.execute_ms", "ms"},
      {"runtime.stage_input_ms", "ms"},
      {"runtime.collect_ms", "ms"},
      {"runtime.uncovered_frac", "frac"},
      {"sim.run_ms", "ms"},
      {"sim.ns_per_mac", "ns"},
      {"sim.cycles", "cycles"},
      {"sim.macs", "count"},
      {"sim.ldi_busy_frac", "frac"},
      {"sim.ldw_busy_frac", "frac"},
      {"sim.comp_busy_frac", "frac"},
      {"sim.save_busy_frac", "frac"},
      {"sim.port_busy_frac", "frac"},
      {"sim.device_gops", "GOPS"},
      {"sim.vgg16_vu9p_gops", "GOPS"},
      {"sim.vgg16_pynq_gops", "GOPS"},
      {"estimator.e2e_err_pct", "%"},
      {"estimator.layer_err_max_pct", "%"},
      {"runtime.queue_p50_ms", "ms"},
      {"runtime.queue_p99_ms", "ms"},
      {"runtime.service_p50_ms", "ms"},
      {"runtime.batch_size_mean", "count"},
      {"runtime.shed_frac", "frac"},
      {"fleet.trace_gen_ms", "ms"},
      {"fleet.legacy_ms", "ms"},
      {"fleet.chaos_ms", "ms"},
      {"fleet.goodput_qps", "1/s"},
      {"fleet.hedges", "count"},
      {"fleet.hedge_wasted_frac", "frac"},
      {"fleet.retries", "count"},
      {"fleet.replans", "count"},
      {"fleet.shards_down", "count"},
      {"fleet.first_down_ms", "ms"},
      {"fleet.shard_util_mean", "frac"},
      {"trace.overhead_frac", "frac"},
  };
  return kSpecs;
}

namespace {

/// 1-based nearest rank ceil(p/100 * n), clamped to [1, n]. The slack keeps
/// decimal percentiles such as 99.9 from rounding up a whole rank.
std::size_t Rank(std::size_t n, double percentile) {
  const double count = static_cast<double>(n);
  const double rank = std::ceil(percentile / 100.0 * count - 1e-9);
  return static_cast<std::size_t>(std::clamp(rank, 1.0, count));
}

}  // namespace

double NearestRank(const std::vector<double>& sorted, double percentile) {
  if (sorted.empty()) throw std::invalid_argument("percentile of no samples");
  return sorted[Rank(sorted.size(), percentile) - 1];
}

std::size_t MinSamplesForTail(double percentile) {
  std::size_t n = 1;
  while (n - Rank(n, percentile) < 10) ++n;
  return n;
}

TailPoint TailAt(std::vector<double> samples, double percentile) {
  std::sort(samples.begin(), samples.end());
  TailPoint tail;
  tail.percentile = percentile;
  tail.samples = samples.size();
  if (samples.empty()) return tail;
  const std::size_t rank = Rank(samples.size(), percentile);
  tail.value = samples[rank - 1];
  tail.beyond = samples.size() - rank;
  return tail;
}

double Mean(const std::vector<double>& samples) {
  double sum = 0;
  for (double x : samples) sum += x;
  return samples.empty() ? 0 : sum / static_cast<double>(samples.size());
}

double Percentile(std::vector<double> samples, double percentile) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  return NearestRank(samples, percentile);
}

double Median(std::vector<double> samples) {
  return Percentile(std::move(samples), 50);
}

std::string ResultLine(bool correct, std::int64_t attempted,
                       std::int64_t failed,
                       const std::vector<MetricSpec>& specs,
                       const std::map<std::string, double>& values) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const MetricSpec& spec : specs) {
    const auto it = values.find(spec.name);
    if (it == values.end()) {
      throw std::invalid_argument(std::string("metric not measured: ") +
                                  spec.name);
    }
    if (!std::isfinite(it->second)) {
      throw std::invalid_argument(std::string("metric not finite: ") +
                                  spec.name);
    }
    char number[40];
    std::snprintf(number, sizeof(number), "%.17g", it->second);
    out += first ? "\"" : ", \"";
    out.append(spec.name).append("\": {\"value\": ").append(number);
    out.append(", \"unit\": \"").append(spec.unit).append("\"}");
    first = false;
  }
  out += "}}";
  return out;
}

}  // namespace perfbench
