#include "common/stats.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "common/check.hpp"

namespace pap {

void RunningStats::add(double x) {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

void RunningStats::merge(const RunningStats& other) {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  const double na = static_cast<double>(n_);
  const double nb = static_cast<double>(other.n_);
  const double delta = other.mean_ - mean_;
  const double total = na + nb;
  mean_ += delta * nb / total;
  m2_ += other.m2_ + delta * delta * na * nb / total;
  n_ += other.n_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

double RunningStats::variance() const {
  return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0;
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

void LatencyHistogram::add(Time sample) {
  if (!samples_.empty() && sample.picos() < samples_.back()) sorted_ = false;
  samples_.push_back(sample.picos());
}

void LatencyHistogram::merge(const LatencyHistogram& other) {
  if (other.samples_.empty()) return;
  const bool was_empty = samples_.empty();
  samples_.insert(samples_.end(), other.samples_.begin(), other.samples_.end());
  sorted_ = was_empty ? other.sorted_ : false;
}

void LatencyHistogram::ensure_sorted() const {
  if (!sorted_) {
    std::sort(samples_.begin(), samples_.end());
    sorted_ = true;
  }
}

Time LatencyHistogram::min() const {
  PAP_CHECK(!samples_.empty());
  ensure_sorted();
  return Time::ps(samples_.front());
}

Time LatencyHistogram::max() const {
  PAP_CHECK(!samples_.empty());
  ensure_sorted();
  return Time::ps(samples_.back());
}

Time LatencyHistogram::mean() const {
  PAP_CHECK(!samples_.empty());
  // Two-pass exact mean; sums of picoseconds can overflow int64 for huge
  // sample counts, so accumulate in long double.
  long double acc = 0;
  for (auto s : samples_) acc += static_cast<long double>(s);
  return Time::ps(static_cast<std::int64_t>(
      acc / static_cast<long double>(samples_.size())));
}

Time LatencyHistogram::percentile(double p) const {
  PAP_CHECK(!samples_.empty());
  PAP_CHECK(p >= 0.0 && p <= 100.0);
  ensure_sorted();
  if (p <= 0.0) return Time::ps(samples_.front());
  // Nearest-rank definition: smallest value with at least p% of samples <= it.
  const auto n = static_cast<double>(samples_.size());
  auto rank = static_cast<std::size_t>(std::ceil(p / 100.0 * n));
  if (rank == 0) rank = 1;
  if (rank > samples_.size()) rank = samples_.size();
  return Time::ps(samples_[rank - 1]);
}

std::string LatencyHistogram::summary() const {
  if (samples_.empty()) return "(no samples)";
  std::ostringstream os;
  os << "n=" << count() << " mean=" << mean().to_string()
     << " p50=" << percentile(50).to_string()
     << " p99=" << percentile(99).to_string()
     << " max=" << max().to_string();
  return os.str();
}

std::string LatencyHistogram::ascii_chart(int buckets, int width) const {
  if (samples_.empty()) return "(no samples)\n";
  ensure_sorted();
  const std::int64_t lo = samples_.front();
  const std::int64_t hi = samples_.back();
  const std::int64_t span = std::max<std::int64_t>(hi - lo, 1);
  std::vector<std::int64_t> counts(static_cast<std::size_t>(buckets), 0);
  for (auto s : samples_) {
    auto b = static_cast<std::size_t>((s - lo) * buckets / (span + 1));
    if (b >= counts.size()) b = counts.size() - 1;
    ++counts[b];
  }
  const std::int64_t peak = *std::max_element(counts.begin(), counts.end());
  std::ostringstream os;
  for (int b = 0; b < buckets; ++b) {
    const std::int64_t lo_b = lo + span * b / buckets;
    const auto bars = static_cast<int>(counts[static_cast<std::size_t>(b)] *
                                       width / std::max<std::int64_t>(peak, 1));
    os << Time::ps(lo_b).to_string() << " | " << std::string(bars, '#') << " "
       << counts[static_cast<std::size_t>(b)] << "\n";
  }
  return os.str();
}

Counters::Id Counters::id(const std::string& name) {
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    if (entries_[i].first == name) return Id{static_cast<std::uint32_t>(i)};
  }
  entries_.emplace_back(name, 0);
  return Id{static_cast<std::uint32_t>(entries_.size() - 1)};
}

std::int64_t Counters::get(const std::string& name) const {
  for (const auto& [k, v] : entries_) {
    if (k == name) return v;
  }
  return 0;
}

void Counters::reset() {
  for (auto& entry : entries_) entry.second = 0;
}

}  // namespace pap
