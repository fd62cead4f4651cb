// Self-tests of the benchmark's helpers: percentile selection, span
// self-time arithmetic and the result-line JSON writer. Run with
//   python3 perfbench/run.py --selftest
// (or ctest in the build directory). Exits non-zero on any failure.
#include <cctype>
#include <cmath>
#include <cstdio>
#include <limits>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "metrics.h"
#include "span_trace.h"

namespace {

int g_failures = 0;

#define EXPECT(cond)                                                   \
  do {                                                                 \
    if (!(cond)) {                                                     \
      ++g_failures;                                                    \
      std::fprintf(stderr, "%s:%d: expected %s\n", __FILE__, __LINE__, \
                   #cond);                                             \
    }                                                                  \
  } while (0)

using namespace perfbench;

std::vector<double> Ramp(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

void TestPercentiles() {
  const std::vector<double> sorted = {1, 2, 3, 4};
  EXPECT(NearestRank(sorted, 50) == 2);
  EXPECT(NearestRank(sorted, 75) == 3);
  EXPECT(NearestRank(sorted, 100) == 4);
  EXPECT(NearestRank(sorted, 0) == 1);
  EXPECT(Median(Ramp(5)) == 3);
  EXPECT(Median({}) == 0);
  EXPECT(Mean({1, 2, 6}) == 3);
  EXPECT(Mean({}) == 0);
  EXPECT(Percentile(Ramp(20), 10) == 2);
  EXPECT(Percentile(Ramp(61), 10) == 7);
  EXPECT(Percentile({}, 10) == 0);

  // A tail percentile needs at least ten samples ranked beyond it.
  EXPECT(MinSamplesForTail(50) == 20);
  EXPECT(MinSamplesForTail(75) == 40);
  EXPECT(MinSamplesForTail(90) == 100);
  EXPECT(MinSamplesForTail(95) == 200);
  EXPECT(MinSamplesForTail(99) == 1000);
  EXPECT(MinSamplesForTail(99.9) == 10000);  // no float rounding up a rank
  for (double p : {50.0, 75.0, 90.0, 95.0, 99.0}) {
    const std::size_t n = MinSamplesForTail(p);
    EXPECT(TailAt(Ramp(static_cast<int>(n)), p).beyond == 10);
    EXPECT(TailAt(Ramp(static_cast<int>(n) - 1), p).beyond < 10);
  }
  TailPoint t = TailAt(Ramp(40), 75);
  EXPECT(t.percentile == 75 && t.value == 30 && t.beyond == 10);
  t = TailAt(Ramp(100), 90);
  EXPECT(t.value == 90 && t.beyond == 10 && t.samples == 100);
  t = TailAt(Ramp(1400), 99);
  EXPECT(t.value == 1386 && t.beyond == 14);
  // More samples refine the same percentile; they never move to another.
  t = TailAt(Ramp(400), 90);
  EXPECT(t.percentile == 90 && t.value == 360 && t.beyond == 40);
  t = TailAt({}, 90);
  EXPECT(t.samples == 0 && t.value == 0 && t.beyond == 0);
}

std::int64_t Duration(const Span& s) { return s.end_ns - s.start_ns; }

void TestSelfTime() {
  // Scoped spans nest under the innermost open span; self time is the
  // span's duration minus its direct children's durations.
  SpanRecorder rec(true);
  {
    ScopedSpan root(rec, "a.root");
    {
      ScopedSpan child(rec, "b.child", 3);
      { ScopedSpan grandchild(rec, "c.grandchild"); }
    }
    { ScopedSpan child(rec, "b.child"); }
  }
  const std::vector<Span>& s = rec.spans();
  EXPECT(s.size() == 4);
  EXPECT(s[0].parent == -1);
  EXPECT(s[1].parent == 0 && s[1].request == 3);
  EXPECT(s[2].parent == 1);
  EXPECT(s[3].parent == 0 && s[3].request == -1);
  EXPECT(s[1].start_ns >= s[0].start_ns && s[1].end_ns <= s[3].start_ns);
  EXPECT(s[3].end_ns <= s[0].end_ns);
  EXPECT(rec.SelfNs(0) == Duration(s[0]) - Duration(s[1]) - Duration(s[3]));
  EXPECT(rec.SelfNs(1) == Duration(s[1]) - Duration(s[2]));
  EXPECT(rec.SelfNs(2) == Duration(s[2]));
  EXPECT(rec.SelfNs(0) >= 0 && rec.SelfNs(1) >= 0);
  const auto totals = rec.Summarize();
  EXPECT(totals.at("b.child").count == 2);
  EXPECT(totals.at("b.child").total_ns == Duration(s[1]) + Duration(s[3]));
  EXPECT(totals.at("b.child").self_ns ==
         Duration(s[1]) - Duration(s[2]) + Duration(s[3]));
  EXPECT(totals.at("a.root").self_ns == rec.SelfNs(0));

  // Spans must close in reverse order of opening.
  SpanRecorder order(true);
  const int outer = order.Begin("x.outer");
  order.Begin("x.inner");
  bool threw = false;
  try {
    order.End(outer);
  } catch (const std::logic_error&) {
    threw = true;
  }
  EXPECT(threw);

  SpanRecorder off(false);
  { ScopedSpan span(off, "x.off"); }
  EXPECT(off.spans().empty());
}

void TestResultLine() {
  const std::vector<MetricSpec> specs = {{"p50_ms", "ms"}, {"ok_frac", "frac"}};
  const std::string line =
      ResultLine(true, 12, 1, specs,
                 {{"ok_frac", 0.5}, {"p50_ms", 1.2034}, {"extra", 9}});
  EXPECT(line ==
         "{\"correct\": true, \"attempted\": 12, \"failed\": 1, \"metrics\": "
         "{\"p50_ms\": {\"value\": 1.2034, \"unit\": \"ms\"}, \"ok_frac\": "
         "{\"value\": 0.5, \"unit\": \"frac\"}}}");
  // Every digit of the measured value survives.
  EXPECT(ResultLine(false, 1, 1, {{"v", "s"}}, {{"v", 0.1 + 0.2}}) ==
         "{\"correct\": false, \"attempted\": 1, \"failed\": 1, \"metrics\": "
         "{\"v\": {\"value\": 0.30000000000000004, \"unit\": \"s\"}}}");
  bool threw = false;
  try {
    ResultLine(true, 1, 0, specs, {{"p50_ms", 1}});
  } catch (const std::invalid_argument&) {
    threw = true;
  }
  EXPECT(threw);
  threw = false;
  try {
    ResultLine(true, 1, 0, specs,
               {{"p50_ms", std::numeric_limits<double>::quiet_NaN()},
                {"ok_frac", 1}});
  } catch (const std::invalid_argument&) {
    threw = true;
  }
  EXPECT(threw);
}

void TestMetricNames() {
  std::set<std::string> names;
  for (const auto* list : {&EndToEndMetrics(), &PerLayerMetrics()}) {
    for (const MetricSpec& spec : *list) {
      const std::string name = spec.name;
      EXPECT(names.insert(name).second);
      EXPECT(!name.empty() && name.size() <= 64);
      for (char c : name) {
        EXPECT(std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
               c == '.' || c == '-');
      }
    }
  }
}

}  // namespace

int main() {
  TestPercentiles();
  TestSelfTime();
  TestResultLine();
  TestMetricNames();
  if (g_failures != 0) {
    std::fprintf(stderr, "%d self-test expectation(s) failed\n", g_failures);
    return 1;
  }
  std::printf("perfbench self-tests passed\n");
  return 0;
}
