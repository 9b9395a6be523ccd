// Unit and property tests for piecewise-linear curves.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

#include "nc/arrival.hpp"
#include "nc/batch.hpp"
#include "nc/curve.hpp"

namespace pap::nc {
namespace {

// positive_closure_view over raw segments that may be negative or
// decreasing (no Curve can hold them), copied out as a Curve.
Curve positive_closure(const std::vector<Segment>& raw) {
  Arena arena;
  MutCurveView v =
      alloc_curve_view(arena, static_cast<std::uint32_t>(raw.size()));
  for (const Segment& s : raw) {
    v.x[v.n] = s.x;
    v.y[v.n] = s.y;
    v.slope[v.n] = s.slope;
    ++v.n;
  }
  return to_curve(positive_closure_view(arena, v));
}

Curve convex_minorant(const Curve& c) {
  Arena arena;
  return to_curve(convex_minorant_view(arena, c.view()));
}

TEST(Curve, AffineEval) {
  const Curve c = Curve::affine(8.0, 0.5);
  EXPECT_DOUBLE_EQ(c.eval(0.0), 8.0);
  EXPECT_DOUBLE_EQ(c.eval(10.0), 13.0);
  EXPECT_DOUBLE_EQ(c.value_at_zero(), 8.0);
  EXPECT_DOUBLE_EQ(c.final_slope(), 0.5);
  EXPECT_TRUE(c.is_concave());
  EXPECT_FALSE(c.is_convex());  // burst at 0
}

TEST(Curve, RateLatencyEval) {
  const Curve b = Curve::rate_latency(2.0, 5.0);
  EXPECT_DOUBLE_EQ(b.eval(0.0), 0.0);
  EXPECT_DOUBLE_EQ(b.eval(5.0), 0.0);
  EXPECT_DOUBLE_EQ(b.eval(7.0), 4.0);
  EXPECT_TRUE(b.is_convex());
  EXPECT_FALSE(b.is_concave());
}

TEST(Curve, ZeroLatencyRateLatencyIsAffine) {
  const Curve b = Curve::rate_latency(3.0, 0.0);
  EXPECT_EQ(b.view().n, 1u);
  EXPECT_DOUBLE_EQ(b.eval(2.0), 6.0);
  EXPECT_TRUE(b.is_convex());
  EXPECT_TRUE(b.is_concave());  // a line is both
}

TEST(Curve, FromPointsInterpolates) {
  const Curve c = Curve::from_points({{10.0, 1.0}, {30.0, 2.0}}, 0.1);
  EXPECT_DOUBLE_EQ(c.eval(0.0), 0.0);
  EXPECT_DOUBLE_EQ(c.eval(5.0), 0.5);
  EXPECT_DOUBLE_EQ(c.eval(10.0), 1.0);
  EXPECT_DOUBLE_EQ(c.eval(20.0), 1.5);
  EXPECT_DOUBLE_EQ(c.eval(30.0), 2.0);
  EXPECT_DOUBLE_EQ(c.eval(40.0), 3.0);
}

TEST(Curve, FromPointsWithValueAtZero) {
  const Curve c = Curve::from_points({{0.0, 4.0}, {10.0, 8.0}}, 0.0);
  EXPECT_DOUBLE_EQ(c.value_at_zero(), 4.0);
  EXPECT_DOUBLE_EQ(c.eval(5.0), 6.0);
  EXPECT_DOUBLE_EQ(c.eval(100.0), 8.0);
}

TEST(Curve, InverseBasics) {
  const Curve b = Curve::rate_latency(2.0, 5.0);
  EXPECT_DOUBLE_EQ(*b.inverse(0.0), 0.0);
  EXPECT_DOUBLE_EQ(*b.inverse(4.0), 7.0);
  EXPECT_DOUBLE_EQ(*b.inverse(20.0), 15.0);
}

TEST(Curve, InverseOnPlateau) {
  // Rises to 10 then saturates.
  const Curve c{std::vector<Segment>{{0.0, 0.0, 1.0}, {10.0, 10.0, 0.0}}};
  EXPECT_DOUBLE_EQ(*c.inverse(10.0), 10.0);
  EXPECT_FALSE(c.inverse(10.5).has_value());
}

TEST(Curve, MinOfCrossingCurvesAddsBreakpoint) {
  const Curve a = Curve::affine(10.0, 1.0);
  const Curve b = Curve::affine(0.0, 3.0);  // crosses a at x = 5
  const Curve m = min(a, b);
  EXPECT_DOUBLE_EQ(m.eval(0.0), 0.0);
  EXPECT_DOUBLE_EQ(m.eval(4.0), 12.0);
  EXPECT_DOUBLE_EQ(m.eval(5.0), 15.0);
  EXPECT_DOUBLE_EQ(m.eval(10.0), 20.0);  // follows a after the crossing
  EXPECT_TRUE(m.is_concave());
}

TEST(Curve, MaxOfCurves) {
  const Curve a = Curve::affine(10.0, 1.0);
  const Curve b = Curve::affine(0.0, 3.0);
  const Curve m = combine_pointwise(a, b, CombineOp::kMax);
  EXPECT_DOUBLE_EQ(m.eval(0.0), 10.0);
  EXPECT_DOUBLE_EQ(m.eval(5.0), 15.0);
  EXPECT_DOUBLE_EQ(m.eval(10.0), 30.0);
}

TEST(Curve, AddSumsValuesAndSlopes) {
  const Curve a = Curve::affine(1.0, 2.0);
  const Curve b = Curve::rate_latency(4.0, 3.0);
  const Curve s = combine_pointwise(a, b, CombineOp::kAdd);
  EXPECT_DOUBLE_EQ(s.eval(0.0), 1.0);
  EXPECT_DOUBLE_EQ(s.eval(3.0), 7.0);
  EXPECT_DOUBLE_EQ(s.eval(5.0), 11.0 + 8.0);
}

TEST(Curve, EqualityIsCanonical) {
  // Two representations of the same line compare equal after merging.
  const Curve a{std::vector<Segment>{{0.0, 0.0, 2.0}, {5.0, 10.0, 2.0}}};
  const Curve b = Curve::affine(0.0, 2.0);
  EXPECT_EQ(a, b);
}

// Curve owns its struct-of-arrays storage: view() hands out that storage
// without a copy, and a copied, moved or reassigned curve reads the same
// values from storage of its own.
TEST(Curve, CopiesOwnTheirStorage) {
  const Curve src{std::vector<Segment>{
      {0.0, 1.0, 3.0}, {2.0, 7.0, 1.0}, {5.0, 10.0, 0.5}}};
  const CurveView sv = src.view();
  ASSERT_EQ(sv.n, 3u);
  EXPECT_EQ(src.view().x, sv.x);  // the same storage on every call
  EXPECT_EQ(sv.y, sv.x + 3);      // x | y | slope in one block
  EXPECT_EQ(sv.slope, sv.x + 6);
  const double want[3][3] = {{0.0, 1.0, 3.0}, {2.0, 7.0, 1.0},
                             {5.0, 10.0, 0.5}};
  const auto holds_src = [&want](const Curve& c) {
    const CurveView v = c.view();
    if (v.n != 3) return false;
    for (std::uint32_t i = 0; i < 3; ++i) {
      if (v.x[i] != want[i][0] || v.y[i] != want[i][1] ||
          v.slope[i] != want[i][2]) {
        return false;
      }
    }
    return true;
  };
  const auto disjoint = [](const Curve& a, const Curve& b) {
    const CurveView u = a.view();
    const CurveView v = b.view();
    return u.x + 3 * u.n <= v.x || v.x + 3 * v.n <= u.x;
  };
  ASSERT_TRUE(holds_src(src));

  Curve copy = src;
  EXPECT_TRUE(holds_src(copy));
  EXPECT_TRUE(disjoint(copy, src));

  Curve assigned = Curve::affine(4.0, 2.0);
  assigned = src;
  EXPECT_TRUE(holds_src(assigned));
  EXPECT_TRUE(disjoint(assigned, src));
  EXPECT_TRUE(disjoint(assigned, copy));

  Curve moved = std::move(copy);
  EXPECT_TRUE(holds_src(moved));
  EXPECT_TRUE(disjoint(moved, src));
  EXPECT_TRUE(disjoint(moved, assigned));

  Curve move_assigned = Curve::constant(1.0);
  move_assigned = std::move(assigned);
  EXPECT_TRUE(holds_src(move_assigned));
  EXPECT_TRUE(disjoint(move_assigned, src));
  EXPECT_TRUE(disjoint(move_assigned, moved));

  // Reassigning the copies leaves the original untouched.
  moved = Curve::rate_latency(1.0, 3.0);
  move_assigned = Curve::affine(0.5, 0.25);
  EXPECT_TRUE(holds_src(src));
  EXPECT_EQ(src.view().x, sv.x);
  EXPECT_EQ(moved, Curve::rate_latency(1.0, 3.0));
  EXPECT_EQ(move_assigned, Curve::affine(0.5, 0.25));
}

TEST(Curve, PositiveNondecreasingClosure) {
  // Raw function dips negative then rises: closure clamps at 0, follows.
  std::vector<Segment> raw{{0.0, -5.0, -1.0}, {5.0, -10.0, 2.0}};
  const Curve c = positive_closure(raw);
  EXPECT_DOUBLE_EQ(c.eval(0.0), 0.0);
  EXPECT_DOUBLE_EQ(c.eval(9.9), 0.0);
  EXPECT_DOUBLE_EQ(c.eval(10.0), 0.0);  // crosses zero at x = 10
  EXPECT_DOUBLE_EQ(c.eval(12.0), 4.0);
}

TEST(Curve, ClosureKeepsRunningMaxOverDips) {
  // Rises to 10 at x=10, dips, rises again later: plateau in between.
  std::vector<Segment> raw{
      {0.0, 0.0, 1.0}, {10.0, 10.0, -2.0}, {14.0, 2.0, 3.0}};
  const Curve c = positive_closure(raw);
  EXPECT_DOUBLE_EQ(c.eval(10.0), 10.0);
  EXPECT_DOUBLE_EQ(c.eval(12.0), 10.0);  // plateau
  // Raw catches up with 10 at x where 2 + 3(x-14) = 10 -> x = 16.667
  EXPECT_NEAR(c.eval(17.0), 11.0, 1e-9);
}

TEST(Curve, TokenBucketCurveMatchesDefinition) {
  const TokenBucket tb{8.0, 0.25};
  const Curve c = tb.to_curve();
  EXPECT_DOUBLE_EQ(c.eval(0.0), 8.0);
  EXPECT_DOUBLE_EQ(c.eval(100.0), 33.0);
}

TEST(Curve, MultiTokenBucketIsConcaveMin) {
  // Peak-rate + sustained-rate pair: the min of the two buckets.
  const Curve c = min(TokenBucket{1.0, 1.0}.to_curve(),
                      TokenBucket{20.0, 0.1}.to_curve());
  EXPECT_TRUE(c.is_concave());
  EXPECT_DOUBLE_EQ(c.eval(0.0), 1.0);
  EXPECT_NEAR(c.eval(10.0), 11.0, 1e-9);   // peak branch
  EXPECT_NEAR(c.eval(100.0), 30.0, 1e-9);  // sustained branch
}

TEST(Curve, ConvexMinorantOfConcavePointsIsLine) {
  // Points bending downward: hull is the chord structure below.
  const Curve c = Curve::from_points({{10.0, 10.0}, {20.0, 12.0}}, 0.2);
  const Curve hull = convex_minorant(c);
  EXPECT_TRUE(hull.is_convex());
  for (double x : {0.0, 5.0, 10.0, 15.0, 20.0, 30.0}) {
    EXPECT_LE(hull.eval(x), c.eval(x) + 1e-9) << "x=" << x;
  }
}

TEST(Curve, ConvexMinorantOfConvexIsIdentity) {
  const Curve c = Curve::rate_latency(2.0, 5.0);
  EXPECT_EQ(convex_minorant(c), c);
}

// ---- Parameterized property sweep: min/max/add consistency ----

struct CurvePairCase {
  double b1, r1, b2, r2;
};

class CurveAlgebra : public ::testing::TestWithParam<CurvePairCase> {};

TEST_P(CurveAlgebra, PointwiseOpsAgreeWithEval) {
  const auto p = GetParam();
  const Curve a = Curve::affine(p.b1, p.r1);
  const Curve b = Curve::affine(p.b2, p.r2);
  const Curve mn = min(a, b);
  const Curve mx = combine_pointwise(a, b, CombineOp::kMax);
  const Curve sm = combine_pointwise(a, b, CombineOp::kAdd);
  for (double x = 0.0; x <= 50.0; x += 0.5) {
    const double fa = a.eval(x);
    const double fb = b.eval(x);
    EXPECT_NEAR(mn.eval(x), std::min(fa, fb), 1e-9);
    EXPECT_NEAR(mx.eval(x), std::max(fa, fb), 1e-9);
    EXPECT_NEAR(sm.eval(x), fa + fb, 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Pairs, CurveAlgebra,
    ::testing::Values(CurvePairCase{0, 1, 5, 0.5}, CurvePairCase{10, 2, 3, 3},
                      CurvePairCase{1, 0, 0, 1}, CurvePairCase{7, 7, 7, 7},
                      CurvePairCase{0, 0.1, 100, 0.1},
                      CurvePairCase{2.5, 1.25, 8, 0.75}));

TEST(Curve, SubNanosecondCrossingIsExact) {
  // Regression for the finite-difference crossing probe: two curves that
  // cross 0.25 ns after a shared breakpoint. The merge derives the crossing
  // from the active segment slopes, so the min must introduce a breakpoint
  // at exactly x = 0.25 instead of blurring the corner across a whole
  // nanosecond the way an eval(x + 1.0) probe did.
  const Curve a = Curve::affine(1.0, 1.0);   // 1 + t
  const Curve b = Curve::affine(0.0, 5.0);   // 5t, crosses at t = 0.25
  const Curve m = min(a, b);
  EXPECT_NEAR(m.eval(0.20), 1.00, 1e-12);    // b below a: 5 * 0.2
  EXPECT_NEAR(m.eval(0.25), 1.25, 1e-12);    // the corner itself
  EXPECT_NEAR(m.eval(0.30), 1.30, 1e-12);    // a below b: 1 + 0.3
  bool has_corner = false;
  const CurveView mv = m.view();
  for (std::uint32_t i = 0; i < mv.n; ++i) {
    if (std::fabs(mv.x[i] - 0.25) < 1e-12) has_corner = true;
  }
  EXPECT_TRUE(has_corner) << m.to_string();

  // Same story with segments entirely shorter than a nanosecond.
  const Curve c{std::vector<Segment>{{0.0, 0.0, 8.0}, {0.1, 0.8, 2.0}}};
  const Curve d = Curve::affine(0.5, 3.0);
  const Curve m2 = min(c, d);
  for (double x : {0.0, 0.05, 0.1, 0.13, 0.2, 0.5, 2.0}) {
    EXPECT_NEAR(m2.eval(x), std::min(c.eval(x), d.eval(x)), 1e-12) << x;
  }
}

}  // namespace
}  // namespace pap::nc
