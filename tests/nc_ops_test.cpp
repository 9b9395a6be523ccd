// Tests for the min-plus algebra: convolution, deconvolution, deviations,
// residual service, bounds — against textbook closed forms (Le Boudec &
// Thiran), which is exactly the theory Section IV builds on.
#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "common/units.hpp"
#include "nc/arrival.hpp"
#include "nc/bounds.hpp"
#include "nc/ops.hpp"
#include "nc/reference.hpp"

namespace pap::nc {
namespace {

TEST(Convolve, RateLatencyConcatenation) {
  // beta_{R1,T1} (x) beta_{R2,T2} = beta_{min(R1,R2), T1+T2}.
  const Curve b1 = Curve::rate_latency(2.0, 3.0);
  const Curve b2 = Curve::rate_latency(1.0, 5.0);
  const Curve c = convolve(b1, b2);
  EXPECT_EQ(c, Curve::rate_latency(1.0, 8.0));
}

TEST(Convolve, ConvexSlopesMergeSorted) {
  // A 2-piece convex curve convolved with a pure rate.
  const Curve a{std::vector<Segment>{{0.0, 0.0, 1.0}, {10.0, 10.0, 5.0}}};
  const Curve b = Curve::affine(0.0, 2.0);
  const Curve c = convolve(a, b);
  // Slopes in order: 1 (len 10), then min(5, 2) = 2 forever.
  EXPECT_DOUBLE_EQ(c.eval(10.0), 10.0);
  EXPECT_DOUBLE_EQ(c.eval(20.0), 30.0);
  EXPECT_TRUE(c.is_convex());
}

TEST(Convolve, ConcaveIsMin) {
  const Curve a = Curve::affine(10.0, 1.0);
  const Curve b = Curve::affine(2.0, 4.0);
  EXPECT_EQ(convolve(a, b), min(a, b));
}

TEST(Convolve, IdentityWithZeroLatencyInfiniteRate) {
  // Convolving with a huge-rate zero-latency server changes nothing
  // (within the evaluated range).
  const Curve b = Curve::rate_latency(3.0, 2.0);
  const Curve c = convolve(b, Curve::affine(0.0, 1e12));
  for (double x : {0.0, 2.0, 5.0, 50.0}) {
    EXPECT_NEAR(c.eval(x), b.eval(x), 1e-6);
  }
}

TEST(Deconvolve, TokenBucketThroughRateLatency) {
  // gamma_{b,r} (/) beta_{R,T} = gamma_{b + rT, r} for r <= R.
  const Curve alpha = Curve::affine(8.0, 0.5);
  const Curve beta = Curve::rate_latency(2.0, 10.0);
  const auto out = deconvolve(alpha, beta);
  ASSERT_TRUE(out.has_value());
  EXPECT_NEAR(out->eval(0.0), 8.0 + 0.5 * 10.0, 1e-9);
  EXPECT_NEAR(out->final_slope(), 0.5, 1e-12);
  EXPECT_TRUE(out->is_concave());
}

TEST(Deconvolve, UnboundedWhenRateExceedsService) {
  const Curve alpha = Curve::affine(1.0, 3.0);
  const Curve beta = Curve::rate_latency(2.0, 1.0);
  EXPECT_FALSE(deconvolve(alpha, beta).has_value());
}

TEST(HDeviation, TokenBucketRateLatencyClosedForm) {
  // h(gamma_{b,r}, beta_{R,T}) = T + b/R for r <= R.
  const Curve alpha = Curve::affine(8.0, 0.5);
  const Curve beta = Curve::rate_latency(2.0, 10.0);
  const auto h = h_deviation(alpha, beta);
  ASSERT_TRUE(h.has_value());
  EXPECT_NEAR(*h, 10.0 + 8.0 / 2.0, 1e-9);
}

TEST(HDeviation, UnboundedWhenUnstable) {
  const Curve alpha = Curve::affine(0.0, 3.0);
  const Curve beta = Curve::rate_latency(2.0, 0.0);
  EXPECT_FALSE(h_deviation(alpha, beta).has_value());
}

TEST(HDeviation, EqualRatesBounded) {
  const Curve alpha = Curve::affine(4.0, 2.0);
  const Curve beta = Curve::rate_latency(2.0, 3.0);
  const auto h = h_deviation(alpha, beta);
  ASSERT_TRUE(h.has_value());
  EXPECT_NEAR(*h, 3.0 + 4.0 / 2.0, 1e-9);
}

// Right after a candidate t where alpha(t) sits on a plateau of beta and
// alpha rises, beta^-1(alpha) jumps to the plateau's end; the supremum is
// that right-hand limit. The cases: bursts at and below the kEps tolerance
// against a latency (the zero-burst case), an interior plateau, and a flat
// tail that a rising alpha eventually outgrows.
struct PlateauCase {
  std::string what;
  Curve alpha;
  Curve beta;
  std::optional<double> want;
};

std::vector<PlateauCase> plateau_cases() {
  const Curve latency = Curve::rate_latency(0.25, 20.0);
  // Rate 1 from 2 to 4, flat at 2 until 7, then rate 1 again.
  const Curve stair({{0.0, 0.0, 0.0}, {2.0, 0.0, 1.0}, {4.0, 2.0, 0.0},
                     {7.0, 2.0, 1.0}});
  const Curve flat_tail({{0.0, 0.0, 0.0}, {2.0, 0.0, 1.0}, {4.0, 2.0, 0.0}});
  std::vector<PlateauCase> cases;
  for (const double b : {0.0, 1e-12, 1e-10, 1e-9, 1e-6}) {
    cases.push_back({"burst " + std::to_string(b), Curve::affine(b, 0.01),
                     latency, 20.0 + b / 0.25});
  }
  // Not rising, above the plateau level by less than kEps: still past it.
  cases.push_back({"flat 1e-10", Curve::affine(1e-10, 0.0), latency,
                   20.0 + 1e-10 / 0.25});
  // The zero arrival curve waits for nothing.
  cases.push_back({"zero", Curve::affine(0.0, 0.0), latency, 0.0});
  // alpha = t/2 reaches the plateau at t = 4 and leaves it at once:
  // beta^-1 jumps from 4 to 7, so h = 7 - 4.
  cases.push_back({"interior plateau", Curve::affine(0.0, 0.5), stair, 3.0});
  cases.push_back({"flat tail", Curve::affine(0.0, 1e-10), flat_tail,
                   std::nullopt});
  return cases;
}

TEST(HDeviation, KernelTakesTheRightLimitAtAPlateau) {
  for (const auto& c : plateau_cases()) {
    const auto h = h_deviation(c.alpha, c.beta);
    ASSERT_EQ(h.has_value(), c.want.has_value()) << c.what;
    if (h) {
      EXPECT_DOUBLE_EQ(*h, *c.want) << c.what;
    }
  }
}

TEST(HDeviation, ReferenceTakesTheRightLimitAtAPlateau) {
  for (const auto& c : plateau_cases()) {
    const auto h = reference::h_deviation(c.alpha, c.beta);
    ASSERT_EQ(h.has_value(), c.want.has_value()) << c.what;
    if (h) {
      EXPECT_DOUBLE_EQ(*h, *c.want) << c.what;
    }
  }
}

TEST(VDeviation, TokenBucketRateLatencyClosedForm) {
  // v(gamma_{b,r}, beta_{R,T}) = b + r*T for r <= R.
  const Curve alpha = Curve::affine(8.0, 0.5);
  const Curve beta = Curve::rate_latency(2.0, 10.0);
  const auto v = v_deviation(alpha, beta);
  ASSERT_TRUE(v.has_value());
  EXPECT_NEAR(*v, 8.0 + 0.5 * 10.0, 1e-9);
}

TEST(ResidualBlind, RateLatencyMinusTokenBucket) {
  // Leftover of beta_{R,T} under gamma_{b,r} cross traffic is
  // beta_{R-r, T'} with T' where R(t-T) - (b + rt) = 0.
  const Curve beta = Curve::rate_latency(4.0, 2.0);
  const Curve cross = Curve::affine(6.0, 1.0);
  const Curve res = residual_blind(beta, cross);
  // Zero until 4(t-2) = 6 + t  =>  3t = 14  =>  t = 14/3.
  EXPECT_DOUBLE_EQ(res.eval(0.0), 0.0);
  EXPECT_NEAR(res.eval(14.0 / 3.0), 0.0, 1e-9);
  EXPECT_NEAR(res.eval(14.0 / 3.0 + 3.0), 9.0, 1e-9);  // slope 3 after
  EXPECT_NEAR(res.final_slope(), 3.0, 1e-12);
  EXPECT_TRUE(res.is_convex());
}

TEST(ResidualBlind, SaturatedServerLeavesNothing) {
  const Curve beta = Curve::rate_latency(2.0, 1.0);
  const Curve cross = Curve::affine(0.0, 2.5);
  const Curve res = residual_blind(beta, cross);
  for (double x : {0.0, 10.0, 100.0}) EXPECT_DOUBLE_EQ(res.eval(x), 0.0);
}

TEST(Bounds, DelayBoundAsTime) {
  const auto d = delay_bound(Curve::affine(8.0, 0.5),
                             Curve::rate_latency(2.0, 10.0));
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(*d, Time::from_ns(14.0));
}

TEST(Bounds, E2eDelayPayBurstsOnlyOnce) {
  // Two rate-latency hops: composed bound T1+T2+b/R beats the sum of
  // per-hop bounds (which would pay the burst twice).
  const Curve alpha = Curve::affine(10.0, 0.5);
  const Curve b1 = Curve::rate_latency(2.0, 3.0);
  const Curve b2 = Curve::rate_latency(2.0, 4.0);
  const auto composed = delay_bound(alpha, convolve(b1, b2));
  ASSERT_TRUE(composed.has_value());
  EXPECT_EQ(*composed, Time::from_ns(3.0 + 4.0 + 10.0 / 2.0));
  const auto hop1 = delay_bound(alpha, b1);
  const auto out1 = deconvolve(alpha, b1);
  ASSERT_TRUE(hop1 && out1);
  const auto hop2 = delay_bound(*out1, b2);
  ASSERT_TRUE(hop2.has_value());
  EXPECT_LT(*composed, *hop1 + *hop2);
}

TEST(Bounds, OutputArrivalFeedsNextHop) {
  const Curve alpha = Curve::affine(4.0, 1.0);
  const Curve beta = Curve::rate_latency(2.0, 5.0);
  const auto out = deconvolve(alpha, beta);
  ASSERT_TRUE(out.has_value());
  // Burst grew by r*T.
  EXPECT_NEAR(out->value_at_zero(), 4.0 + 1.0 * 5.0, 1e-9);
}

TEST(Shaper, GreedyReleaseConformance) {
  TokenBucketShaper s({4.0, 0.5}, Time::zero());
  // Burst of 4 goes immediately.
  EXPECT_EQ(s.earliest_release(Time::zero()), Time::zero());
  for (int i = 0; i < 4; ++i) s.on_release(Time::zero());
  // The 5th waits 1/0.5 = 2 ns.
  EXPECT_EQ(s.earliest_release(Time::zero()), Time::ns(2));
  s.on_release(Time::ns(2));
  EXPECT_DOUBLE_EQ(s.level(Time::ns(2)), 0.0);
}

TEST(Shaper, LevelCapsAtBurst) {
  TokenBucketShaper s({2.0, 1.0}, Time::zero());
  s.on_release(Time::zero());
  s.on_release(Time::zero());
  EXPECT_DOUBLE_EQ(s.level(Time::ns(100)), 2.0);  // capped, not 100
}

TEST(Shaper, ReconfigurePreservesTokensUpToNewBurst) {
  TokenBucketShaper s({8.0, 1.0}, Time::zero());
  s.reconfigure({2.0, 0.5}, Time::zero());
  EXPECT_DOUBLE_EQ(s.level(Time::zero()), 2.0);
  EXPECT_DOUBLE_EQ(s.params().rate, 0.5);
}

TEST(TokenBucketModel, FromRateMatchesTableIISetup) {
  // 4 Gbps over 64-byte requests = 1 request / 128 ns.
  const auto tb = TokenBucket::from_rate(Rate::gbps(4), 64, 8.0);
  EXPECT_DOUBLE_EQ(tb.burst, 8.0);
  EXPECT_NEAR(tb.rate, 1.0 / 128.0, 1e-12);
}

TEST(ServiceModels, ServiceFromPointsJoinsThem) {
  const Curve c = Curve::from_points({{100.0, 1.0}, {150.0, 2.0}}, 0.02);
  EXPECT_DOUBLE_EQ(c.eval(100.0), 1.0);
  EXPECT_DOUBLE_EQ(c.eval(150.0), 2.0);
  EXPECT_DOUBLE_EQ(c.eval(200.0), 3.0);
}

// Property sweep: for token bucket + rate latency, delay and backlog bounds
// match the closed forms across a parameter grid.
struct BoundCase {
  double b, r, R, T;
};
class ClosedFormBounds : public ::testing::TestWithParam<BoundCase> {};

TEST_P(ClosedFormBounds, MatchTextbook) {
  const auto p = GetParam();
  const Curve alpha = Curve::affine(p.b, p.r);
  const Curve beta = Curve::rate_latency(p.R, p.T);
  const auto h = h_deviation(alpha, beta);
  const auto v = v_deviation(alpha, beta);
  ASSERT_TRUE(h && v);
  EXPECT_NEAR(*h, p.T + p.b / p.R, 1e-9);
  EXPECT_NEAR(*v, p.b + p.r * p.T, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, ClosedFormBounds,
    ::testing::Values(BoundCase{1, 0.1, 1, 0}, BoundCase{8, 0.5, 2, 10},
                      BoundCase{16, 1, 4, 2.5}, BoundCase{100, 0.01, 0.02, 50},
                      BoundCase{0.5, 0.25, 0.25, 1000},
                      BoundCase{64, 2, 8, 12.5}));

}  // namespace
}  // namespace pap::nc
