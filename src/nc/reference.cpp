// Verbatim copies of the pre-optimization kernels. See reference.hpp for
// why these are kept. Each function body below is the original
// implementation from curve.cpp / ops.cpp at the time the optimized
// rewrites landed; only namespacing, helper wiring and the reads of the
// curve storage (now through Curve::view) changed.
#include "nc/reference.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>

#include "common/check.hpp"

namespace pap::nc::reference {

namespace {

constexpr double kEps = 1e-9;

bool nearly_equal(double a, double b) {
  const double scale = std::max({1.0, std::fabs(a), std::fabs(b)});
  return std::fabs(a - b) <= kEps * scale;
}

/// Finite derivative pieces of a curve: (slope, length). The tail is
/// reported separately via final_slope().
std::vector<std::pair<double, double>> finite_pieces(const Curve& c) {
  std::vector<std::pair<double, double>> pieces;
  const CurveView v = c.view();
  for (std::uint32_t i = 0; i + 1 < v.n; ++i) {
    pieces.emplace_back(v.slope[i], v.x[i + 1] - v.x[i]);
  }
  return pieces;
}

Curve convolve_convex(const Curve& f, const Curve& g) {
  PAP_CHECK_MSG(f.value_at_zero() <= kEps && g.value_at_zero() <= kEps,
                "convex convolution expects service curves with f(0) = 0");
  auto pieces = finite_pieces(f);
  auto more = finite_pieces(g);
  pieces.insert(pieces.end(), more.begin(), more.end());
  std::sort(pieces.begin(), pieces.end());
  const double tail = std::min(f.final_slope(), g.final_slope());
  std::vector<Segment> out;
  double x = 0.0;
  double y = 0.0;
  for (const auto& [slope, len] : pieces) {
    if (slope >= tail - kEps) break;  // absorbed by the infinite tail
    out.push_back(Segment{x, y, slope});
    x += len;
    y += slope * len;
  }
  out.push_back(Segment{x, y, tail});
  return Curve{std::move(out)};
}

}  // namespace

std::vector<Segment> combine_raw(const Curve& a, const Curve& b,
                                 double (*combine)(double, double)) {
  // Union of breakpoints.
  std::vector<double> xs;
  const CurveView av = a.view();
  const CurveView bv = b.view();
  xs.insert(xs.end(), av.x, av.x + av.n);
  xs.insert(xs.end(), bv.x, bv.x + bv.n);
  std::sort(xs.begin(), xs.end());
  xs.erase(std::unique(xs.begin(), xs.end(),
                       [](double u, double v) { return nearly_equal(u, v); }),
           xs.end());

  // Insert crossing points so the combination is linear on each interval.
  std::vector<double> all = xs;
  auto slope_at = [](const Curve& c, double x) {
    const CurveView v = c.view();
    const double* it = std::upper_bound(v.x, v.x + v.n, x);
    return v.slope[it - v.x - 1];
  };
  for (std::size_t i = 0; i < xs.size(); ++i) {
    const double x1 = xs[i];
    const double fa = a.eval(x1);
    const double fb = b.eval(x1);
    const double sa = slope_at(a, x1);
    const double sb = slope_at(b, x1);
    if (nearly_equal(sa, sb)) continue;
    const double xc = x1 + (fb - fa) / (sa - sb);
    const double x2 = (i + 1 < xs.size())
                          ? xs[i + 1]
                          : std::numeric_limits<double>::infinity();
    if (xc > x1 + kEps && xc < x2 - kEps) all.push_back(xc);
  }
  std::sort(all.begin(), all.end());
  all.erase(std::unique(all.begin(), all.end(),
                        [](double u, double v) { return nearly_equal(u, v); }),
            all.end());

  std::vector<Segment> out;
  out.reserve(all.size());
  for (std::size_t i = 0; i < all.size(); ++i) {
    const double x = all[i];
    const double v = combine(a.eval(x), b.eval(x));
    double slope;
    if (i + 1 < all.size()) {
      const double xn = all[i + 1];
      slope = (combine(a.eval(xn), b.eval(xn)) - v) / (xn - x);
    } else {
      // Final unbounded interval: no crossings remain beyond x, so the
      // winner is stable; probe one unit ahead.
      const double v1 = combine(a.eval(x + 1.0), b.eval(x + 1.0));
      slope = v1 - v;
    }
    out.push_back(Segment{x, v, slope});
  }
  return out;
}

Curve combine_pointwise(const Curve& a, const Curve& b,
                        double (*combine)(double, double)) {
  return Curve{reference::combine_raw(a, b, combine)};
}

Curve convolve(const Curve& f, const Curve& g) {
  if (f.is_convex() && g.is_convex()) return convolve_convex(f, g);
  if (f.is_concave() && g.is_concave()) {
    return reference::combine_pointwise(
        f, g, [](double u, double v) { return std::min(u, v); });
  }
  PAP_UNREACHABLE(
      "convolve: supported shapes are convex*convex (service) and "
      "concave*concave (arrival)");
}

std::optional<Curve> deconvolve(const Curve& f, const Curve& g) {
  PAP_CHECK_MSG(f.is_concave(), "deconvolve expects a concave arrival curve");
  PAP_CHECK_MSG(g.is_convex(), "deconvolve expects a convex service curve");
  if (f.final_slope() > g.final_slope() + kEps) return std::nullopt;

  // The result is concave piecewise-linear; all of its breakpoints lie in
  // { a_x - b_x >= 0 } for breakpoints a_x of f and b_x of g. Evaluate the
  // exact supremum at every candidate t and interpolate.
  const CurveView fv = f.view();
  const CurveView gv = g.view();
  const std::vector<double> f_bps(fv.x, fv.x + fv.n);
  const std::vector<double> g_bps(gv.x, gv.x + gv.n);

  std::vector<double> ts{0.0};
  for (double a : f_bps) {
    for (double b : g_bps) {
      if (a - b > kEps) ts.push_back(a - b);
    }
    if (a > kEps) ts.push_back(a);
  }
  std::sort(ts.begin(), ts.end());
  ts.erase(std::unique(ts.begin(), ts.end(),
                       [](double u, double v) { return std::fabs(u - v) < kEps; }),
           ts.end());

  auto sup_at = [&](double t) {
    // h(u) = f(t+u) - g(u) is concave in u; its maximum is attained at a
    // slope-change point: u in g's breakpoints or u = a_x - t.
    double best = f.eval(t) - g.eval(0.0);
    for (double b : g_bps) {
      best = std::max(best, f.eval(t + b) - g.eval(b));
    }
    for (double a : f_bps) {
      if (a >= t) best = std::max(best, f.eval(a) - g.eval(a - t));
    }
    return best;
  };

  std::vector<std::pair<double, double>> pts;
  pts.reserve(ts.size());
  for (double t : ts) pts.emplace_back(t, std::max(0.0, sup_at(t)));
  return Curve::from_points(pts, f.final_slope());
}

namespace {

/// sup{s : beta(s) <= v} where beta holds a plateau at level v (within
/// kEps) and alpha rises right after the candidate or v lies above the
/// plateau; -1 when that does not apply, +inf when the plateau never ends.
double plateau_exit(const Curve& beta, double v, bool rising) {
  const CurveView b = beta.view();
  std::uint32_t flat = b.n;
  for (std::uint32_t i = 0; i < b.n; ++i) {
    if (b.slope[i] <= 0.0 && nearly_equal(b.y[i], v)) flat = i;
  }
  if (flat == b.n || !(rising || v > b.y[flat])) return -1.0;
  if (flat + 1 == b.n) return std::numeric_limits<double>::infinity();
  const std::uint32_t next = flat + 1;
  return v <= b.y[next] ? b.x[next]
                        : b.x[next] + (v - b.y[next]) / b.slope[next];
}

/// Slope of the segment of c active at t (the one right after t).
double slope_after(const Curve& c, double t) {
  const CurveView v = c.view();
  double slope = v.slope[0];
  for (std::uint32_t i = 0; i < v.n; ++i) {
    if (v.x[i] <= t) slope = v.slope[i];
  }
  return slope;
}

}  // namespace

std::optional<double> h_deviation(const Curve& alpha, const Curve& beta) {
  if (alpha.final_slope() > beta.final_slope() + kEps) return std::nullopt;

  // Candidate abscissae: alpha's breakpoints plus the first times alpha
  // reaches each of beta's breakpoint values; between them
  // t -> beta^{-1}(alpha(t)) - t is linear.
  const CurveView av = alpha.view();
  const CurveView bv = beta.view();
  std::vector<double> ts(av.x, av.x + av.n);
  for (std::uint32_t i = 0; i < bv.n; ++i) {
    if (auto t = alpha.inverse(bv.y[i])) ts.push_back(*t);
  }
  std::sort(ts.begin(), ts.end());
  ts.erase(std::unique(ts.begin(), ts.end(),
                       [](double u, double v) { return std::fabs(u - v) < kEps; }),
           ts.end());

  double worst = 0.0;
  for (double t : ts) {
    const auto x = beta.inverse(alpha.eval(t));
    if (!x) {
      // beta saturates below alpha(t): only bounded if alpha also saturates
      // at or below beta's plateau, which the slope check above did not
      // exclude. Report unbounded.
      return std::nullopt;
    }
    worst = std::max(worst, *x - t);
    // Right after t, beta^{-1}(alpha) jumps past any plateau at alpha(t).
    const double exit =
        plateau_exit(beta, alpha.eval(t), slope_after(alpha, t) > 0.0);
    if (std::isinf(exit)) return std::nullopt;
    worst = std::max(worst, exit - t);
  }
  return worst;
}

std::optional<double> v_deviation(const Curve& alpha, const Curve& beta) {
  if (alpha.final_slope() > beta.final_slope() + kEps) return std::nullopt;
  const CurveView av = alpha.view();
  const CurveView bv = beta.view();
  std::vector<double> xs(av.x, av.x + av.n);
  xs.insert(xs.end(), bv.x, bv.x + bv.n);
  std::sort(xs.begin(), xs.end());
  double worst = 0.0;
  for (double x : xs) worst = std::max(worst, alpha.eval(x) - beta.eval(x));
  return worst;
}

}  // namespace pap::nc::reference
