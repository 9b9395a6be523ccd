// Randomized property tests: every optimized NC kernel against its retained
// naive implementation (nc::reference). The rewrites changed the algorithms
// wholesale — two-pointer segment merges, a rotating-tangent deconvolution,
// cursor-driven deviation walks — so the defence is volume: >10,000 seeded
// random concave/convex pairs, including curves with sub-nanosecond segments
// (which the old finite-difference slope probes silently mangled), checked
// for agreement within 1e-6 at every merged breakpoint and at points between
// and beyond them.
//
// Everything is seeded (pap::Rng) and therefore exactly reproducible; on a
// failure, print the case index and re-run with the same seed.
#include <algorithm>
#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "nc/curve.hpp"
#include "nc/ops.hpp"
#include "nc/reference.hpp"

namespace {

using pap::Rng;
using pap::nc::Curve;
using pap::nc::CurveView;
using pap::nc::Segment;

// ---------------------------------------------------------------------------
// Random curve generation
// ---------------------------------------------------------------------------

/// Random segment length; in sub-ns mode most lengths land below 1 ns, the
/// regime where crossing points must come from segment slopes, not from
/// eval(x + 1.0) probes.
double random_length(Rng& rng, bool sub_ns) {
  if (sub_ns) return 0.001 + 0.9 * rng.next_double();
  return 0.5 + 19.5 * rng.next_double();
}

/// Concave arrival curve: burst >= 0, strictly decreasing positive slopes.
Curve random_concave(Rng& rng, bool sub_ns) {
  const int pieces = static_cast<int>(rng.uniform(1, 10));
  std::vector<double> slopes;
  slopes.reserve(static_cast<std::size_t>(pieces));
  double s = 2.0 + 10.0 * rng.next_double();
  for (int i = 0; i < pieces; ++i) {
    slopes.push_back(s);
    s *= 0.3 + 0.6 * rng.next_double();  // strictly decreasing, positive
  }
  std::vector<Segment> segs;
  segs.reserve(slopes.size());
  double x = 0.0;
  double y = rng.chance(0.8) ? 16.0 * rng.next_double() : 0.0;  // burst
  for (double slope : slopes) {
    segs.push_back(Segment{x, y, slope});
    const double len = random_length(rng, sub_ns);
    x += len;
    y += slope * len;
  }
  return Curve{std::move(segs)};
}

/// Convex service curve: f(0) = 0, non-decreasing slopes (possibly an
/// initial latency piece of slope 0).
Curve random_convex(Rng& rng, bool sub_ns) {
  const int pieces = static_cast<int>(rng.uniform(1, 10));
  std::vector<double> slopes;
  slopes.reserve(static_cast<std::size_t>(pieces));
  double s = rng.chance(0.5) ? 0.0 : 0.5 * rng.next_double();
  for (int i = 0; i < pieces; ++i) {
    slopes.push_back(s);
    s += 0.2 + 3.0 * rng.next_double();  // strictly increasing
  }
  std::vector<Segment> segs;
  segs.reserve(slopes.size());
  double x = 0.0;
  double y = 0.0;
  for (double slope : slopes) {
    segs.push_back(Segment{x, y, slope});
    const double len = random_length(rng, sub_ns);
    x += len;
    y += slope * len;
  }
  return Curve{std::move(segs)};
}

// ---------------------------------------------------------------------------
// Curve comparison at merged breakpoints (and between / beyond them)
// ---------------------------------------------------------------------------

std::vector<double> probe_points(const Curve& a, const Curve& b) {
  const CurveView av = a.view();
  const CurveView bv = b.view();
  std::vector<double> xs(av.x, av.x + av.n);
  xs.insert(xs.end(), bv.x, bv.x + bv.n);
  std::sort(xs.begin(), xs.end());
  std::vector<double> out;
  out.reserve(xs.size() * 2 + 2);
  for (std::size_t i = 0; i < xs.size(); ++i) {
    out.push_back(xs[i]);
    if (i + 1 < xs.size() && xs[i + 1] > xs[i]) {
      out.push_back(0.5 * (xs[i] + xs[i + 1]));  // interior of each interval
    }
  }
  const double last = xs.empty() ? 0.0 : xs.back();
  out.push_back(last + 1.0);   // into both tails
  out.push_back(last + 50.0);
  return out;
}

::testing::AssertionResult curves_agree(const Curve& got, const Curve& want,
                                        int case_idx) {
  for (double x : probe_points(got, want)) {
    const double g = got.eval(x);
    const double w = want.eval(x);
    const double tol = 1e-6 * std::max(1.0, std::max(std::fabs(g), std::fabs(w)));
    if (std::fabs(g - w) > tol) {
      return ::testing::AssertionFailure()
             << "case " << case_idx << ": curves disagree at x = " << x
             << ": got " << g << ", want " << w << "\n  got:  "
             << got.to_string() << "\n  want: " << want.to_string();
    }
  }
  return ::testing::AssertionSuccess();
}

double min_of(double u, double v) { return u < v ? u : v; }
double max_of(double u, double v) { return u > v ? u : v; }
double sum_of(double u, double v) { return u + v; }

// ---------------------------------------------------------------------------
// combine_pointwise: min / max / add of random concave-or-convex pairs,
// plus a direct pointwise ground-truth check (3000 pairs -> 9000 combines)
// ---------------------------------------------------------------------------

TEST(NcProperty, CombinePointwiseMatchesReferenceAndGroundTruth) {
  Rng rng(0xC0FFEE01u);
  const int kCases = 3000;
  for (int i = 0; i < kCases; ++i) {
    const bool sub_ns = i % 3 == 0;
    const Curve a =
        rng.chance(0.5) ? random_concave(rng, sub_ns) : random_convex(rng, sub_ns);
    const Curve b =
        rng.chance(0.5) ? random_concave(rng, sub_ns) : random_convex(rng, sub_ns);
    const struct {
      pap::nc::CombineOp op;
      double (*fn)(double, double);
    } ops[] = {{pap::nc::CombineOp::kMin, min_of},
               {pap::nc::CombineOp::kMax, max_of},
               {pap::nc::CombineOp::kAdd, sum_of}};
    for (const auto& [op, fn] : ops) {
      const Curve got = pap::nc::combine_pointwise(a, b, op);
      const Curve want = pap::nc::reference::combine_pointwise(a, b, fn);
      ASSERT_TRUE(curves_agree(got, want, i));
      // Ground truth, independent of either implementation: the combination
      // evaluated pointwise at the probe points.
      for (double x : probe_points(a, b)) {
        const double direct = fn(a.eval(x), b.eval(x));
        const double g = got.eval(x);
        const double tol =
            1e-6 * std::max(1.0, std::max(std::fabs(g), std::fabs(direct)));
        ASSERT_NEAR(g, direct, tol) << "case " << i << " at x = " << x;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// convolve (2000 cases: convex*convex and concave*concave)
// ---------------------------------------------------------------------------

TEST(NcProperty, ConvolveMatchesReference) {
  Rng rng(0xC0FFEE02u);
  const int kCases = 2000;
  for (int i = 0; i < kCases; ++i) {
    const bool sub_ns = i % 3 == 0;
    if (i % 2 == 0) {
      const Curve f = random_convex(rng, sub_ns);
      const Curve g = random_convex(rng, sub_ns);
      ASSERT_TRUE(curves_agree(pap::nc::convolve(f, g),
                               pap::nc::reference::convolve(f, g), i));
    } else {
      const Curve f = random_concave(rng, sub_ns);
      const Curve g = random_concave(rng, sub_ns);
      ASSERT_TRUE(curves_agree(pap::nc::convolve(f, g),
                               pap::nc::reference::convolve(f, g), i));
    }
  }
}

// ---------------------------------------------------------------------------
// deconvolve: rotating-tangent walk vs candidate enumeration (2500 cases)
// ---------------------------------------------------------------------------

TEST(NcProperty, DeconvolveMatchesReference) {
  Rng rng(0xC0FFEE03u);
  const int kCases = 2500;
  int bounded = 0;
  for (int i = 0; i < kCases; ++i) {
    const bool sub_ns = i % 3 == 0;
    const Curve f = random_concave(rng, sub_ns);
    const Curve g = random_convex(rng, sub_ns);
    const auto got = pap::nc::deconvolve(f, g);
    const auto want = pap::nc::reference::deconvolve(f, g);
    ASSERT_EQ(got.has_value(), want.has_value()) << "case " << i;
    if (got) {
      ++bounded;
      ASSERT_TRUE(curves_agree(*got, *want, i));
      // Sanity independent of both implementations: h(t) >= f(t) - g(0) and
      // h dominates f shifted by any fixed u we can cheaply probe.
      const double t = 1.0 + 10.0 * rng.next_double();
      for (double u : {0.0, 0.5, 3.0}) {
        const double lower = f.eval(t + u) - g.eval(u);
        ASSERT_GE(got->eval(t) + 1e-6 * std::max(1.0, std::fabs(lower)), lower)
            << "case " << i;
      }
    }
  }
  // The generators are tuned so a healthy share of pairs is feasible;
  // guard against silently testing nothing.
  EXPECT_GT(bounded, kCases / 4);
}

// ---------------------------------------------------------------------------
// h_deviation / v_deviation (2500 pairs -> 5000 comparisons)
// ---------------------------------------------------------------------------

TEST(NcProperty, DeviationsMatchReference) {
  Rng rng(0xC0FFEE04u);
  const int kCases = 2500;
  int bounded = 0;
  for (int i = 0; i < kCases; ++i) {
    const bool sub_ns = i % 3 == 0;
    const Curve alpha = random_concave(rng, sub_ns);
    const Curve beta = random_convex(rng, sub_ns);

    const auto h_got = pap::nc::h_deviation(alpha, beta);
    const auto h_want = pap::nc::reference::h_deviation(alpha, beta);
    ASSERT_EQ(h_got.has_value(), h_want.has_value()) << "case " << i;
    if (h_got) {
      ++bounded;
      const double tol =
          1e-6 * std::max(1.0, std::max(std::fabs(*h_got), std::fabs(*h_want)));
      ASSERT_NEAR(*h_got, *h_want, tol) << "case " << i;
    }

    const auto v_got = pap::nc::v_deviation(alpha, beta);
    const auto v_want = pap::nc::reference::v_deviation(alpha, beta);
    ASSERT_EQ(v_got.has_value(), v_want.has_value()) << "case " << i;
    if (v_got) {
      const double tol =
          1e-6 * std::max(1.0, std::max(std::fabs(*v_got), std::fabs(*v_want)));
      ASSERT_NEAR(*v_got, *v_want, tol) << "case " << i;
    }
  }
  EXPECT_GT(bounded, kCases / 4);
}

}  // namespace
