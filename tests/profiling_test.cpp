// Trace profiler: minimal-burst computation and contracts.
#include <gtest/gtest.h>

#include "core/profiling.hpp"

namespace pap::core {
namespace {

/// True iff the cumulative process sampled at time-sorted (t_i, R_i)
/// conforms to the bucket: R_j - R_i <= b + r (t_j - t_i) for all i < j.
bool conforms(const nc::TokenBucket& tb,
              const std::vector<std::pair<Time, double>>& samples) {
  for (std::size_t i = 0; i < samples.size(); ++i) {
    for (std::size_t j = i + 1; j < samples.size(); ++j) {
      const double dt = samples[j].first.nanos() - samples[i].first.nanos();
      const double dr = samples[j].second - samples[i].second;
      if (dr > tb.burst + tb.rate * dt + 1e-9) return false;
    }
  }
  return true;
}

TEST(Profiler, SustainedRateOfPeriodicTrace) {
  TraceProfiler p;
  for (int i = 0; i < 11; ++i) p.record(Time::ns(100) * i);
  // 10 follow-up events over 1000 ns.
  EXPECT_NEAR(p.sustained_rate(), 10.0 / 1000.0, 1e-12);
  EXPECT_EQ(p.events(), 11u);
  EXPECT_DOUBLE_EQ(p.total(), 11.0);
}

TEST(Profiler, PeriodicTraceNeedsBurstOne) {
  TraceProfiler p;
  for (int i = 0; i < 20; ++i) p.record(Time::ns(100) * i);
  // At exactly the sustained rate, a single token suffices.
  EXPECT_NEAR(p.min_burst_for_rate(0.01), 1.0, 1e-9);
  // At twice the rate, still >= 1 (each event needs a token).
  EXPECT_GE(p.min_burst_for_rate(0.02), 1.0 - 1e-9);
}

TEST(Profiler, BurstyTraceNeedsLargerBurst) {
  TraceProfiler p;
  // 5 back-to-back at t=0, then quiet, then 5 more at t=1000.
  for (int i = 0; i < 5; ++i) p.record(Time::zero());
  for (int i = 0; i < 5; ++i) p.record(Time::ns(1000));
  EXPECT_NEAR(p.min_burst_for_rate(0.005), 5.0, 1e-9);
  // With rate 0 the burst must cover everything.
  EXPECT_NEAR(p.min_burst_for_rate(0.0), 10.0, 1e-9);
}

TEST(Profiler, MinBurstIsMonotoneInRate) {
  TraceProfiler p;
  // Irregular trace.
  Time t;
  for (int i = 0; i < 50; ++i) {
    t += Time::ns(37 + (i * 13) % 91);
    p.record(t, 1.0 + (i % 3));
  }
  double prev = 1e100;
  for (double r = 0.01; r <= 0.2; r += 0.01) {
    const double b = p.min_burst_for_rate(r);
    EXPECT_LE(b, prev + 1e-9) << "rate " << r;
    prev = b;
  }
}

TEST(Profiler, MinBurstMatchesBruteForceOracle) {
  // Property: the O(n) sweep equals the O(n^2) definition
  //   b(r) = max_{i<=j} (S_j - S_{i-1} - r * (t_j - t_i)).
  TraceProfiler p;
  std::vector<Time> ts;
  std::vector<double> sums;
  Time t;
  double sum = 0.0;
  for (int i = 0; i < 60; ++i) {
    t += Time::ns(11 + (i * 29) % 173);
    const double amt = 1.0 + (i % 4);
    p.record(t, amt);
    sum += amt;
    ts.push_back(t);
    sums.push_back(sum);
  }
  for (double r : {0.0, 0.005, 0.02, 0.1}) {
    double oracle = 0.0;
    for (std::size_t i = 0; i < ts.size(); ++i) {
      for (std::size_t j = i; j < ts.size(); ++j) {
        const double prev = i == 0 ? 0.0 : sums[i - 1];
        oracle = std::max(oracle, sums[j] - prev -
                                      r * (ts[j] - ts[i]).nanos());
      }
    }
    EXPECT_NEAR(p.min_burst_for_rate(r), oracle, 1e-9) << "rate " << r;
    // And the trace (as a cumulative process) conforms to the result.
    std::vector<std::pair<Time, double>> cumulative;
    for (std::size_t k = 0; k < ts.size(); ++k) {
      cumulative.emplace_back(ts[k], sums[k]);
    }
    nc::TokenBucket tb{p.min_burst_for_rate(r) + 1e-6, r};
    EXPECT_TRUE(conforms(tb, cumulative)) << "rate " << r;
  }
}

TEST(Profiler, ContractHasMargins) {
  TraceProfiler p;
  for (int i = 0; i < 10; ++i) p.record(Time::ns(100) * i);
  const auto c = p.contract(1.2, 2.0);
  EXPECT_NEAR(c.rate, p.sustained_rate() * 1.2, 1e-12);
  EXPECT_GE(c.burst, 1.0);
}

TEST(Profiler, EmptyAndSingletonTraces) {
  TraceProfiler p;
  EXPECT_DOUBLE_EQ(p.sustained_rate(), 0.0);
  EXPECT_DOUBLE_EQ(p.min_burst_for_rate(1.0), 0.0);
  p.record(Time::ns(5), 3.0);
  EXPECT_DOUBLE_EQ(p.sustained_rate(), 0.0);
  EXPECT_DOUBLE_EQ(p.min_burst_for_rate(0.0), 3.0);
}

}  // namespace
}  // namespace pap::core
