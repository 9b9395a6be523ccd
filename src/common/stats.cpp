#include "common/stats.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "common/check.hpp"

namespace pap {

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

std::size_t LogHistogram::bucket_of(std::int64_t ps) {
  const auto v = static_cast<std::uint64_t>(std::max<std::int64_t>(ps, 0));
  constexpr std::uint64_t kSub = std::uint64_t{1} << kSubBits;
  if (v < kSub) return static_cast<std::size_t>(v);
  const int octave = std::min(63 - __builtin_clzll(v), kTopOctave);
  const int shift = octave - kSubBits;
  const std::uint64_t sub = std::min((v >> shift) - kSub, kSub - 1);
  return (static_cast<std::size_t>(shift + 1) << kSubBits) +
         static_cast<std::size_t>(sub);
}

std::int64_t LogHistogram::bucket_mid(std::size_t b) {
  constexpr std::size_t kSub = std::size_t{1} << kSubBits;
  if (b < kSub) return static_cast<std::int64_t>(b);
  const int shift = static_cast<int>(b >> kSubBits) - 1;
  const std::uint64_t lo = (kSub + (b & (kSub - 1))) << shift;
  const std::uint64_t width = std::uint64_t{1} << shift;
  return static_cast<std::int64_t>(lo + (width - 1) / 2);
}

void LogHistogram::add(Time sample) {
  if (buckets_.empty()) buckets_.resize(kBuckets);
  ++buckets_[bucket_of(sample.picos())];
  if (count_ == 0 || sample.picos() > max_) max_ = sample.picos();
  ++count_;
}

Time LogHistogram::percentile(double p) const {
  PAP_CHECK(count_ > 0);
  PAP_CHECK(p >= 0.0 && p <= 100.0);
  // Nearest rank, as LatencyHistogram::percentile.
  auto rank = static_cast<std::uint64_t>(
      std::ceil(p / 100.0 * static_cast<double>(count_)));
  rank = std::clamp<std::uint64_t>(rank, 1, count_);
  std::uint64_t seen = 0;
  for (std::size_t b = 0; b < kBuckets; ++b) {
    seen += buckets_[b];
    if (seen >= rank) return Time::ps(std::min(bucket_mid(b), max_));
  }
  return Time::ps(max_);
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

}  // namespace pap
