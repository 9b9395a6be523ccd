#include "nc/curve.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>

#include "common/check.hpp"
#include "nc/adapter.hpp"
#include "nc/batch.hpp"

namespace pap::nc {

namespace {

constexpr double kEps = 1e-9;

bool nearly_equal(double a, double b) {
  const double scale = std::max({1.0, std::fabs(a), std::fabs(b)});
  return std::fabs(a - b) <= kEps * scale;
}

// Shape classification tolerates slope wobble well above the value
// tolerance: residual/closure arithmetic on segments with large x can
// leave adjacent slopes out of order by ~1e-9 (Δy rounding divided by a
// merely large Δx), and the convex convolution (batch.cpp) sorts pieces by
// slope anyway, so sub-tolerance disorder never changes which algorithm is
// correct — a strict gate only turns float noise into a crash.
constexpr double kShapeEps = 1e-6;

}  // namespace

double CurveView::eval(double t) const {
  PAP_CHECK(t >= 0.0);
  const double* it = std::upper_bound(x, x + n, t);
  const std::uint32_t i = static_cast<std::uint32_t>(it - x) - 1;
  return y[i] + slope[i] * (t - x[i]);
}

bool CurveView::is_concave() const {
  for (std::uint32_t i = 1; i < n; ++i) {
    if (slope[i] > slope[i - 1] + kShapeEps) return false;
  }
  return true;
}

bool CurveView::is_convex() const {
  if (y[0] > kEps) return false;
  for (std::uint32_t i = 1; i < n; ++i) {
    if (slope[i] < slope[i - 1] - kShapeEps) return false;
  }
  return true;
}

Curve::Curve(const std::vector<Segment>& segments)
    : Curve(static_cast<std::uint32_t>(segments.size())) {
  const auto n = static_cast<std::uint32_t>(segments.size());
  double* p = soa_.data();
  MutCurveView m{p, p + n, p + 2 * static_cast<std::size_t>(n), n, n};
  for (std::uint32_t i = 0; i < n; ++i) {
    m.x[i] = segments[i].x;
    m.y[i] = segments[i].y;
    m.slope[i] = segments[i].slope;
  }
  normalize_view(&m);
  if (m.n < n) {
    // Close the gaps the compaction left behind x and y; each block moves
    // to a lower address, so forward copies are safe.
    std::copy(m.y, m.y + m.n, p + m.n);
    std::copy(m.slope, m.slope + m.n, p + 2 * static_cast<std::size_t>(m.n));
    soa_.resize(3 * static_cast<std::size_t>(m.n));
  }
}

Curve to_curve(CurveView v) {
  PAP_CHECK_MSG(v.n > 0, "curve needs at least one segment");
  Curve c(v.n);
  double* p = c.soa_.data();
  std::copy(v.x, v.x + v.n, p);
  std::copy(v.y, v.y + v.n, p + v.n);
  std::copy(v.slope, v.slope + v.n, p + 2 * static_cast<std::size_t>(v.n));
  return c;
}

// The named constructors run the view builders of batch.hpp in the
// adapter arena and copy the result out.

Curve Curve::affine(double value0, double slope) {
  return to_curve(affine_view(detail::adapter_arena(), value0, slope));
}

Curve Curve::constant(double value) { return affine(value, 0.0); }

Curve Curve::rate_latency(double rate, double latency) {
  return to_curve(rate_latency_view(detail::adapter_arena(), rate, latency));
}

Curve Curve::from_points(const std::vector<std::pair<double, double>>& points,
                         double final_slope) {
  Arena& arena = detail::adapter_arena();
  const auto n = static_cast<std::uint32_t>(points.size());
  double* px = arena.alloc<double>(n);
  double* py = arena.alloc<double>(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    px[i] = points[i].first;
    py[i] = points[i].second;
  }
  return to_curve(from_points_view(arena, px, py, n, final_slope));
}

// Out of line so that CurveView::eval inlines here: the reference oracles
// evaluate curves in their inner loops.
double Curve::eval(double x) const { return view().eval(x); }

std::optional<double> Curve::inverse(double y) const {
  const CurveView v = view();
  if (y <= v.y[0]) return 0.0;
  for (std::uint32_t i = 0; i < v.n; ++i) {
    const bool last = (i + 1 == v.n);
    const double end_value =
        last ? std::numeric_limits<double>::infinity()
             : v.y[i] + v.slope[i] * (v.x[i + 1] - v.x[i]);
    if (y <= end_value + kEps) {
      if (v.slope[i] <= 0.0) {
        // Flat segment: y is only reached if it equals the plateau value;
        // otherwise keep scanning (the next segment starts higher).
        if (y <= v.y[i] + kEps) return v.x[i];
        if (last) return std::nullopt;
        continue;
      }
      if (y <= v.y[i]) return v.x[i];
      return v.x[i] + (y - v.y[i]) / v.slope[i];
    }
  }
  return std::nullopt;
}

Curve combine_pointwise(const Curve& a, const Curve& b, CombineOp op) {
  return to_curve(
      combine_view(detail::adapter_arena(), a.view(), b.view(), op));
}

Curve min(const Curve& a, const Curve& b) {
  return combine_pointwise(a, b, CombineOp::kMin);
}

std::string Curve::to_string() const {
  const CurveView v = view();
  std::ostringstream os;
  os << "{";
  for (std::uint32_t i = 0; i < v.n; ++i) {
    if (i) os << ", ";
    os << "(x=" << v.x[i] << ", y=" << v.y[i] << ", m=" << v.slope[i] << ")";
  }
  os << "}";
  return os.str();
}

bool operator==(const Curve& a, const Curve& b) {
  const CurveView u = a.view();
  const CurveView v = b.view();
  if (u.n != v.n) return false;
  for (std::uint32_t i = 0; i < u.n; ++i) {
    if (!nearly_equal(u.x[i], v.x[i]) || !nearly_equal(u.y[i], v.y[i]) ||
        !nearly_equal(u.slope[i], v.slope[i])) {
      return false;
    }
  }
  return true;
}

}  // namespace pap::nc
