#include "span_trace.h"

#include <cstdio>
#include <stdexcept>

namespace perfbench {

namespace {

/// Self time of every span: its duration minus its direct children's.
std::vector<std::int64_t> SelfTimes(const std::vector<Span>& spans) {
  std::vector<std::int64_t> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    self[i] += s.end_ns - s.start_ns;
    if (s.parent >= 0) {
      self[static_cast<std::size_t>(s.parent)] -= s.end_ns - s.start_ns;
    }
  }
  return self;
}

std::string Escape(const std::string& text) {
  std::string out;
  for (char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

}  // namespace

SpanRecorder::SpanRecorder(bool enabled)
    : enabled_(enabled), epoch_(std::chrono::steady_clock::now()) {}

std::int64_t SpanRecorder::Now() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

int SpanRecorder::Begin(const std::string& name, std::int64_t request) {
  if (!enabled_) return -1;
  const int parent = open_.empty() ? -1 : open_.back();
  spans_.push_back(Span{name, Now(), 0, parent, request});
  const int index = static_cast<int>(spans_.size()) - 1;
  open_.push_back(index);
  return index;
}

void SpanRecorder::End(int index) {
  if (index < 0) return;
  if (open_.empty() || open_.back() != index) {
    throw std::logic_error("span closed out of order: " +
                           spans_[static_cast<std::size_t>(index)].name);
  }
  open_.pop_back();
  spans_[static_cast<std::size_t>(index)].end_ns = Now();
}

std::int64_t SpanRecorder::SelfNs(int index) const {
  return SelfTimes(spans_).at(static_cast<std::size_t>(index));
}

std::map<std::string, SpanTotals> SpanRecorder::Summarize() const {
  const std::vector<std::int64_t> self = SelfTimes(spans_);
  std::map<std::string, SpanTotals> totals;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    SpanTotals& t = totals[spans_[i].name];
    ++t.count;
    t.total_ns += spans_[i].end_ns - spans_[i].start_ns;
    t.self_ns += self[i];
  }
  return totals;
}

bool SpanRecorder::WriteChromeTrace(
    const std::string& path,
    const std::map<std::string, std::string>& meta) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::vector<std::int64_t> self = SelfTimes(spans_);
  std::fprintf(f, "{\"displayTimeUnit\": \"ms\",\n\"traceEvents\": [\n");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const std::string module = s.name.substr(0, s.name.find('.'));
    // Request spans get their own track so concurrent lifecycles stay legible.
    const long long tid = s.request >= 0 ? 2 + s.request : 1;
    std::fprintf(f,
                 "%s{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                 "\"pid\": 1, \"tid\": %lld, \"ts\": %.3f, \"dur\": %.3f, "
                 "\"args\": {\"id\": %zu, \"parent\": %d, \"request\": %lld, "
                 "\"self_us\": %.3f}}",
                 i == 0 ? "" : ",\n", Escape(s.name).c_str(),
                 Escape(module).c_str(), tid, s.start_ns / 1e3,
                 (s.end_ns - s.start_ns) / 1e3, i, s.parent,
                 static_cast<long long>(s.request), self[i] / 1e3);
  }
  std::fprintf(f, "\n],\n\"metadata\": {");
  bool first = true;
  for (const auto& [key, value] : meta) {
    std::fprintf(f, "%s\"%s\": \"%s\"", first ? "" : ", ",
                 Escape(key).c_str(), Escape(value).c_str());
    first = false;
  }
  std::fprintf(f, "},\n\"ledger\": [\n");
  for (std::size_t i = 0; i < ledger_.size(); ++i) {
    const LedgerRow& r = ledger_[i];
    std::fprintf(f,
                 "%s{\"model\": \"%s\", \"platform\": \"%s\", \"layer\": %d, "
                 "\"name\": \"%s\", \"mode\": \"%s\", "
                 "\"estimated_cycles\": %.1f, \"simulated_cycles\": %.1f, "
                 "\"dram_words\": %lld}",
                 i == 0 ? "" : ",\n", Escape(r.model).c_str(),
                 Escape(r.platform).c_str(), r.layer,
                 Escape(r.layer_name).c_str(), Escape(r.mode).c_str(),
                 r.estimated_cycles, r.simulated_cycles,
                 static_cast<long long>(r.dram_words));
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
