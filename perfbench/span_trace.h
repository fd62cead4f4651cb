// In-memory span recorder of the benchmark's traced runs.
//
// Spans are recorded around the benchmark's own calls into the library's
// public functions (no instrumentation inside src/). Each span carries a
// name (`<src module>.<call>`), start and end on the steady clock, the span
// that was open when it began (its parent) and an optional request id.
// Spans stay in memory; WriteChromeTrace emits them as Chrome trace_event
// JSON (chrome://tracing, Perfetto) together with the per-DNN-layer ledger.
//
// A disabled recorder records nothing, so the same workload code runs
// traced and untraced. Not thread-safe: record from one thread.
#ifndef HDNN_PERFBENCH_SPAN_TRACE_H_
#define HDNN_PERFBENCH_SPAN_TRACE_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  std::string name;
  std::int64_t start_ns = 0;  ///< relative to the recorder's epoch
  std::int64_t end_ns = 0;
  int parent = -1;            ///< index of the enclosing span, -1 = root
  std::int64_t request = -1;  ///< request id, -1 = none
};

struct SpanTotals {
  std::int64_t count = 0;
  std::int64_t total_ns = 0;  ///< summed span durations
  std::int64_t self_ns = 0;   ///< summed durations minus child durations
};

/// One DNN layer of one compiled model: the Eq. 12-15 estimate against the
/// cycle simulation, and the modeled DRAM traffic of its instructions.
struct LedgerRow {
  std::string model;
  std::string platform;
  int layer = 0;
  std::string layer_name;
  std::string mode;  ///< SPAT / WINO
  double estimated_cycles = 0;
  double simulated_cycles = 0;
  std::int64_t dram_words = -1;  ///< -1 = not attributable to this layer
};

class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled);

  void set_enabled(bool on) { enabled_ = on; }

  /// Nanoseconds since the recorder's epoch.
  std::int64_t Now() const;

  /// Opens a span under the innermost open one; returns its index (-1 when
  /// disabled). Spans must close in reverse order of opening.
  int Begin(const std::string& name, std::int64_t request = -1);
  void End(int index);

  const std::vector<Span>& spans() const { return spans_; }
  void AddLedger(LedgerRow row) { ledger_.push_back(std::move(row)); }

  /// Self time of span `index`: its duration minus its direct children's
  /// durations (children of a ScopedSpan lie within it and do not overlap).
  std::int64_t SelfNs(int index) const;

  /// Per-name totals over every recorded span.
  std::map<std::string, SpanTotals> Summarize() const;

  /// Writes the spans and the ledger as Chrome trace_event JSON. Returns
  /// false when the file cannot be written.
  bool WriteChromeTrace(const std::string& path,
                        const std::map<std::string, std::string>& meta) const;

 private:
  bool enabled_;
  std::chrono::steady_clock::time_point epoch_;
  std::vector<Span> spans_;
  std::vector<int> open_;
  std::vector<LedgerRow> ledger_;
};

/// RAII span on a recorder (a no-op when the recorder is disabled).
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder& rec, const std::string& name,
             std::int64_t request = -1)
      : rec_(rec), index_(rec.Begin(name, request)) {}
  ~ScopedSpan() { rec_.End(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder& rec_;
  int index_;
};

}  // namespace perfbench

#endif  // HDNN_PERFBENCH_SPAN_TRACE_H_
