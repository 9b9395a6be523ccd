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

double seg_eval(const Segment& s, double x) { return s.y + s.slope * (x - s.x); }

}  // namespace

Curve::Curve() : segments_{Segment{0.0, 0.0, 0.0}} {}

Curve::Curve(std::vector<Segment> segments) : segments_(std::move(segments)) {
  normalize();
}

void Curve::normalize() {
  PAP_CHECK_MSG(!segments_.empty(), "curve needs at least one segment");
  PAP_CHECK_MSG(nearly_equal(segments_.front().x, 0.0),
                "first segment must start at x = 0");
  segments_.front().x = 0.0;
  for (std::size_t i = 0; i < segments_.size(); ++i) {
    PAP_CHECK_MSG(segments_[i].y >= -kEps, "curve must be non-negative");
    PAP_CHECK_MSG(segments_[i].slope >= -kEps, "curve must be non-decreasing");
    if (segments_[i].y < 0.0) segments_[i].y = 0.0;
    if (segments_[i].slope < 0.0) segments_[i].slope = 0.0;
    if (i + 1 < segments_.size()) {
      PAP_CHECK_MSG(segments_[i + 1].x > segments_[i].x + kEps ||
                        nearly_equal(segments_[i + 1].x, segments_[i].x),
                    "breakpoints must be increasing");
      PAP_CHECK_MSG(
          nearly_equal(seg_eval(segments_[i], segments_[i + 1].x),
                       segments_[i + 1].y),
          "curve must be continuous");
    }
  }
  // Drop zero-width segments, then merge collinear neighbours — two
  // sequential in-place compaction passes (the write index never overtakes
  // the read index), so construction allocates nothing beyond the caller's
  // segment vector.
  std::size_t w = 0;
  for (std::size_t i = 0; i < segments_.size(); ++i) {
    const Segment s = segments_[i];
    if (w > 0 && nearly_equal(s.x, segments_[w - 1].x)) {
      segments_[w - 1] = s;  // later definition wins on a zero-width span
      if (w == 1) segments_[0].x = 0.0;
      continue;
    }
    segments_[w++] = s;
  }
  const std::size_t cleaned = w;
  w = 0;
  for (std::size_t i = 0; i < cleaned; ++i) {
    if (w > 0 && nearly_equal(segments_[w - 1].slope, segments_[i].slope)) {
      continue;  // same line continues; keep the earlier anchor
    }
    segments_[w++] = segments_[i];
  }
  segments_.resize(w);
}

Curve Curve::affine(double value0, double slope) {
  return Curve{{Segment{0.0, value0, slope}}};
}

Curve Curve::constant(double value) { return affine(value, 0.0); }

Curve Curve::rate_latency(double rate, double latency) {
  PAP_CHECK(rate >= 0.0 && latency >= 0.0);
  if (latency <= 0.0) return affine(0.0, rate);
  return Curve{{Segment{0.0, 0.0, 0.0}, Segment{latency, 0.0, rate}}};
}

Curve Curve::from_points(const std::vector<std::pair<double, double>>& points,
                         double final_slope) {
  PAP_CHECK_MSG(!points.empty(), "need at least one point");
  std::vector<Segment> segs;
  segs.reserve(points.size() + 1);
  double px = 0.0;
  double py = 0.0;
  if (nearly_equal(points.front().first, 0.0)) {
    py = points.front().second;
  }
  for (std::size_t i = 0; i < points.size(); ++i) {
    const auto [x, y] = points[i];
    if (nearly_equal(x, 0.0)) continue;  // handled as value at 0
    PAP_CHECK_MSG(x > px, "point abscissae must be strictly increasing");
    PAP_CHECK_MSG(y >= py - kEps, "point values must be non-decreasing");
    segs.push_back(Segment{px, py, (y - py) / (x - px)});
    px = x;
    py = y;
  }
  segs.push_back(Segment{px, py, final_slope});
  return Curve{std::move(segs)};
}

double Curve::eval(double x) const {
  PAP_CHECK(x >= 0.0);
  // Find the last segment with start <= x.
  auto it = std::upper_bound(
      segments_.begin(), segments_.end(), x,
      [](double v, const Segment& s) { return v < s.x; });
  --it;
  return seg_eval(*it, x);
}

std::optional<double> Curve::inverse(double y) const {
  if (y <= segments_.front().y) return 0.0;
  for (std::size_t i = 0; i < segments_.size(); ++i) {
    const Segment& s = segments_[i];
    const bool last = (i + 1 == segments_.size());
    const double end_value =
        last ? std::numeric_limits<double>::infinity()
             : seg_eval(s, segments_[i + 1].x);
    if (y <= end_value + kEps) {
      if (s.slope <= 0.0) {
        // Flat segment: y is only reached if it equals the plateau value;
        // otherwise keep scanning (the next segment starts higher).
        if (y <= s.y + kEps) return s.x;
        if (last) return std::nullopt;
        continue;
      }
      if (y <= s.y) return s.x;
      return s.x + (y - s.y) / s.slope;
    }
  }
  return std::nullopt;
}

// Shape classification tolerates slope wobble well above the value
// tolerance: residual/closure arithmetic on segments with large x can
// leave adjacent slopes out of order by ~1e-9 (Δy rounding divided by a
// merely large Δx), and the convex convolution (batch.cpp) sorts pieces by
// slope anyway, so sub-tolerance disorder never changes which algorithm is
// correct — a strict gate only turns float noise into a crash.
constexpr double kShapeEps = 1e-6;

bool Curve::is_concave() const {
  for (std::size_t i = 1; i < segments_.size(); ++i) {
    if (segments_[i].slope > segments_[i - 1].slope + kShapeEps) return false;
  }
  return true;
}

bool Curve::is_convex() const {
  if (segments_.front().y > kEps) return false;
  for (std::size_t i = 1; i < segments_.size(); ++i) {
    if (segments_[i].slope < segments_[i - 1].slope - kShapeEps) return false;
  }
  return true;
}

Curve combine_pointwise(const Curve& a, const Curve& b, CombineOp op) {
  Arena& arena = detail::adapter_arena();
  return to_curve(combine_view(arena, to_view(arena, a), to_view(arena, b), op));
}

Curve min(const Curve& a, const Curve& b) {
  return combine_pointwise(a, b, CombineOp::kMin);
}

Curve max(const Curve& a, const Curve& b) {
  return combine_pointwise(a, b, CombineOp::kMax);
}

Curve add(const Curve& a, const Curve& b) {
  return combine_pointwise(a, b, CombineOp::kAdd);
}

Curve Curve::scaled(double k) const {
  PAP_CHECK(k >= 0.0);
  std::vector<Segment> segs = segments_;
  for (auto& s : segs) {
    s.y *= k;
    s.slope *= k;
  }
  return Curve{std::move(segs)};
}

Curve Curve::shifted_right(double dx) const {
  PAP_CHECK(dx >= 0.0);
  if (dx == 0.0) return *this;
  PAP_CHECK_MSG(value_at_zero() <= kEps,
                "shifting a curve with a burst at 0 would create a jump");
  std::vector<Segment> segs;
  segs.reserve(segments_.size() + 1);
  segs.push_back(Segment{0.0, 0.0, 0.0});
  for (const auto& s : segments_) segs.push_back(Segment{s.x + dx, s.y, s.slope});
  return Curve{std::move(segs)};
}

std::string Curve::to_string() const {
  std::ostringstream os;
  os << "{";
  for (std::size_t i = 0; i < segments_.size(); ++i) {
    const auto& s = segments_[i];
    if (i) os << ", ";
    os << "(x=" << s.x << ", y=" << s.y << ", m=" << s.slope << ")";
  }
  os << "}";
  return os.str();
}

bool operator==(const Curve& a, const Curve& b) {
  if (a.segments_.size() != b.segments_.size()) return false;
  for (std::size_t i = 0; i < a.segments_.size(); ++i) {
    if (!nearly_equal(a.segments_[i].x, b.segments_[i].x) ||
        !nearly_equal(a.segments_[i].y, b.segments_[i].y) ||
        !nearly_equal(a.segments_[i].slope, b.segments_[i].slope)) {
      return false;
    }
  }
  return true;
}

}  // namespace pap::nc
