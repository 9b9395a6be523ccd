#include <cstdio>

#include "bench.hpp"

namespace perfbench {

int Spans::intern(const std::string& name) {
  for (std::size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) return static_cast<int>(i);
  }
  names_.push_back(name);
  return static_cast<int>(names_.size() - 1);
}

Spans::Scope::Scope(Spans* spans, int name, std::int64_t request)
    : spans_(spans) {
  if (spans_ == nullptr) return;
  Span s;
  s.name = name;
  s.parent = spans_->open_.empty() ? -1 : spans_->open_.back();
  // A child without its own request id belongs to its parent's request.
  s.request = (request < 0 && s.parent >= 0)
                  ? spans_->spans_[static_cast<std::size_t>(s.parent)].request
                  : request;
  index_ = static_cast<std::int32_t>(spans_->spans_.size());
  spans_->open_.push_back(index_);
  s.start_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                   Clock::now() - spans_->epoch_)
                   .count();
  spans_->spans_.push_back(s);
}

Spans::Scope::~Scope() {
  if (spans_ == nullptr) return;
  spans_->spans_[static_cast<std::size_t>(index_)].end_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           spans_->epoch_)
          .count();
  spans_->open_.pop_back();
}

std::map<std::string, Spans::Aggregate> Spans::aggregate() const {
  // Children close inside their parent on the same thread, so the part of
  // a parent's interval its children cover is the sum of their durations.
  std::vector<double> child_us(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      child_us[static_cast<std::size_t>(s.parent)] +=
          static_cast<double>(s.end_ns - s.start_ns) / 1000.0;
    }
  }
  std::map<std::string, Aggregate> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const double dur = static_cast<double>(s.end_ns - s.start_ns) / 1000.0;
    Aggregate& a = out[names_[static_cast<std::size_t>(s.name)]];
    ++a.count;
    a.total_us += dur;
    a.self_us += dur - child_us[i];
  }
  return out;
}

double mean_us(const SpanTable& table, const std::string& name) {
  const auto it = table.find(name);
  if (it == table.end() || it->second.count == 0) return 0.0;
  return it->second.total_us / static_cast<double>(it->second.count);
}

std::size_t span_count(const SpanTable& table, const std::string& name) {
  const auto it = table.find(name);
  return it == table.end() ? 0 : it->second.count;
}

std::map<std::string, double> layer_self_ms(const SpanTable& table) {
  std::map<std::string, double> out;
  for (const auto& [name, a] : table) {
    out[name.substr(0, name.find('.'))] += a.self_us / 1000.0;
  }
  return out;
}

void report_trace_summary(Report& report, const SpanTable& table,
                          double overhead_ratio, std::size_t samples) {
  for (const auto& [layer, ms] : layer_self_ms(table)) {
    report.metric(layer + ".self_ms", ms, "ms");
  }
  report.metric("trace.overhead_ratio", overhead_ratio, "ratio");
  report.metric("bench.samples", static_cast<double>(samples), "count");
  report.metric("bench.fail_ratio",
                report.attempted() > 0
                    ? static_cast<double>(report.failed()) /
                          static_cast<double>(report.attempted())
                    : 0.0,
                "ratio");
}

bool Spans::write_csv(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "id,name,start_ns,end_ns,parent,request\n");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f, "%zu,%s,%lld,%lld,%d,%lld\n", i,
                 names_[static_cast<std::size_t>(s.name)].c_str(),
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns), s.parent,
                 static_cast<long long>(s.request));
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
