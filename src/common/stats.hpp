// Statistics collection for simulation experiments: percentile-capable
// latency histograms and named occurrence counters. Used by every
// bench that reports a latency distribution (motivation_interference,
// fig4_frfcfs_model, the platform scenarios, ...).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/time.hpp"

namespace pap {

/// Latency histogram with exact percentiles.
///
/// Samples are kept (as picosecond integers); for this repository's scales
/// (at most a few million samples per experiment) exactness beats the memory
/// savings of bucketing, and worst-case analysis work cares about exact
/// maxima.
class LatencyHistogram {
 public:
  void add(Time sample);
  /// Absorb another histogram's samples (e.g. aggregating per-point
  /// distributions collected by a parallel sweep).
  void merge(const LatencyHistogram& other);
  std::size_t count() const { return samples_.size(); }
  bool empty() const { return samples_.empty(); }

  Time min() const;
  Time max() const;
  Time mean() const;
  /// Exact percentile by nearest-rank; p in [0, 100].
  Time percentile(double p) const;

  /// Render "count/mean/p50/p99/max" on one line, for logs and tables.
  std::string summary() const;

  /// All samples in ascending order, as picosecond counts. Used where an
  /// exact distribution comparison is needed (e.g. pinning trace replay
  /// ps-identical to the originating run).
  const std::vector<std::int64_t>& sorted_samples() const {
    ensure_sorted();
    return samples_;
  }

 private:
  void ensure_sorted() const;
  mutable std::vector<std::int64_t> samples_;
  mutable bool sorted_ = true;
};

/// Latency histogram in fixed memory, for long-running services that
/// cannot keep every sample.
///
/// `count()` and `max()` are exact. Samples fall into log-spaced buckets,
/// 64 per power of two (exact below 64 ps), so a nearest-rank percentile is
/// reported as the middle of the bucket that holds the exact one: within
/// `kRelativeError` of `LatencyHistogram::percentile` over the same samples
/// (for samples below 2^47 ps, about 140 s; longer ones share the top
/// bucket). The buckets take 21 KiB whatever the number of samples,
/// allocated by the first add(), so an unused histogram costs nothing.
class LogHistogram {
 public:
  static constexpr double kRelativeError = 1.0 / 128;

  void add(Time sample);
  std::size_t count() const { return static_cast<std::size_t>(count_); }
  bool empty() const { return count_ == 0; }
  Time max() const { return Time::ps(max_); }
  /// Nearest-rank percentile, p in [0, 100], within kRelativeError.
  Time percentile(double p) const;

 private:
  static constexpr int kSubBits = 6;    // 64 sub-buckets per octave
  static constexpr int kTopOctave = 47;  // samples >= 2^47 ps share a bucket
  static constexpr std::size_t kBuckets =
      static_cast<std::size_t>(kTopOctave - kSubBits + 2) << kSubBits;

  static std::size_t bucket_of(std::int64_t ps);
  /// The middle of bucket `b`'s value range.
  static std::int64_t bucket_mid(std::size_t b);

  std::vector<std::uint64_t> buckets_;  // kBuckets counts once in use
  std::uint64_t count_ = 0;
  std::int64_t max_ = 0;
};

/// Counter map utility: named monotonically increasing counters, used by the
/// cache / DRAM / NoC models to expose occurrence counts (hits, misses,
/// row conflicts, switches, stalls, ...).
///
/// Writers resolve a name once with `id(name)`, typically at construction,
/// and bump the counter through the returned handle; readers look counters
/// up by name.
class Counters {
 public:
  /// Handle to one counter; valid for the lifetime of this Counters.
  struct Id {
    std::uint32_t index = 0;
  };

  /// Handle for `name`, registering it at 0 on first use.
  Id id(const std::string& name);
  void inc(Id counter, std::int64_t by = 1) {
    entries_[counter.index].second += by;
  }
  std::int64_t get(Id counter) const { return entries_[counter.index].second; }

  std::int64_t get(const std::string& name) const;
  const std::vector<std::pair<std::string, std::int64_t>>& entries() const {
    return entries_;
  }

 private:
  // Small, ordered by registration; linear lookup is fine for the handful
  // of counters each component exposes, and preserves insertion order in
  // output.
  std::vector<std::pair<std::string, std::int64_t>> entries_;
};

}  // namespace pap
