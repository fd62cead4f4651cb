// Metric names, percentile selection and the result-line JSON writer of the
// repository benchmark. Kept free of library dependencies so the self-tests
// (selftest.cc) exercise exactly the code the benchmark prints with.
#ifndef HDNN_PERFBENCH_METRICS_H_
#define HDNN_PERFBENCH_METRICS_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct MetricSpec {
  const char* name;
  const char* unit;
};

/// End-to-end metrics: every workload reports every one of them from an
/// untraced run (BENCHMARK.json "end_to_end", same order).
const std::vector<MetricSpec>& EndToEndMetrics();

/// Per-layer metrics, named `<src module>.<quantity>`: a traced run reports
/// every one of them; a module the workload does not exercise reads 0
/// (BENCHMARK.json "per_layer", same order).
const std::vector<MetricSpec>& PerLayerMetrics();

/// Nearest-rank percentile: the value of rank ceil(p/100 * n) (1-based) in
/// `sorted`, which must be non-empty and ascending.
double NearestRank(const std::vector<double>& sorted, double percentile);

struct TailPoint {
  double percentile = 50;  ///< the percentile reported
  double value = 0;
  std::size_t samples = 0;
  std::size_t beyond = 0;  ///< samples ranked above the reported one
};

/// The fewest samples for which the nearest-rank `percentile` has at least
/// ten samples ranked beyond it (40 for p75, 100 for p90, 200 for p95).
std::size_t MinSamplesForTail(double percentile);

/// The nearest-rank `percentile` of `samples` (unsorted; empty -> value 0)
/// and how many samples rank beyond it. Each workload fixes its tail
/// percentile in code and measures at least MinSamplesForTail(percentile)
/// operations, so the statistic a run reports does not depend on how many
/// operations the host managed in the run's time.
TailPoint TailAt(std::vector<double> samples, double percentile);

/// Arithmetic mean of `samples` (empty -> 0).
double Mean(const std::vector<double>& samples);

/// Nearest-rank `percentile` of `samples` (unsorted; empty -> 0).
double Percentile(std::vector<double> samples, double percentile);

/// Median of `samples` by nearest rank (empty -> 0).
double Median(std::vector<double> samples);

/// The benchmark's last stdout line: one JSON object with exactly the keys
/// correct, attempted, failed and metrics. `values` must hold a finite
/// value for every spec in `specs`; extra entries are ignored. Throws
/// std::invalid_argument on a missing or non-finite value.
std::string ResultLine(bool correct, std::int64_t attempted,
                       std::int64_t failed,
                       const std::vector<MetricSpec>& specs,
                       const std::map<std::string, double>& values);

}  // namespace perfbench

#endif  // HDNN_PERFBENCH_METRICS_H_
