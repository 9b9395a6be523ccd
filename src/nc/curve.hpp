// Piecewise-linear curves for Network Calculus (Section IV of the paper).
//
// A `Curve` is a non-negative, non-decreasing, continuous piecewise-linear
// function f: [0, inf) -> [0, inf) with finitely many segments; the last
// segment extends to infinity with its slope. Arrival curves carry their
// burst as the value at t = 0 (right-continuous convention, standard for
// computing deviations); service curves start at f(0) = 0.
//
// Units: the x axis is time in nanoseconds; the y axis is "work" in
// whatever unit the caller chose (bytes for NoC links, requests for the
// DRAM controller service curve of Sec. IV-A). Operations never mix units —
// that discipline is on the caller, as in the paper.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace pap::nc {

struct CurveView;

/// One linear piece: on [x, next.x) the curve is y + slope * (t - x).
struct Segment {
  double x = 0.0;      ///< start abscissa (ns)
  double y = 0.0;      ///< value at x
  double slope = 0.0;  ///< units per ns
};

class Curve {
 public:
  /// The zero function.
  Curve();

  /// Build from explicit segments. Enforces the class invariants
  /// (x strictly increasing starting at 0, continuity, non-decreasing,
  /// non-negative); collinear pieces are merged.
  explicit Curve(std::vector<Segment> segments);

  /// Affine curve f(t) = value0 + slope * t  (token bucket when value0 > 0).
  static Curve affine(double value0, double slope);

  /// Constant function.
  static Curve constant(double value);

  /// f(t) = 0 for t <= latency, then rate * (t - latency). The canonical
  /// rate-latency service curve beta_{R,T}.
  static Curve rate_latency(double rate, double latency);

  /// Piecewise-linear interpolation from (0, 0) through `points`
  /// (x strictly increasing, values non-decreasing), extended beyond the
  /// last point with `final_slope`. This is how the DRAM WCD analysis turns
  /// its (t_N, N) points into a service curve ("the curve that joins points
  /// (t_N, N)"). If the first point has x == 0 its y becomes the value at 0.
  static Curve from_points(const std::vector<std::pair<double, double>>& points,
                           double final_slope);

  double eval(double x) const;

  /// First x with f(x) >= y, or nullopt if y is never reached.
  std::optional<double> inverse(double y) const;

  const std::vector<Segment>& segments() const { return segments_; }
  double value_at_zero() const { return segments_.front().y; }
  double final_slope() const { return segments_.back().slope; }

  /// Largest abscissa at which the description changes (0 for affine).
  double last_breakpoint() const { return segments_.back().x; }

  bool is_concave() const;  ///< slopes non-increasing
  bool is_convex() const;   ///< slopes non-decreasing and f(0) == 0

  /// Pointwise combinations.
  friend Curve min(const Curve& a, const Curve& b);
  friend Curve max(const Curve& a, const Curve& b);
  friend Curve add(const Curve& a, const Curve& b);

  /// f scaled on the y axis (k >= 0).
  Curve scaled(double k) const;

  /// f shifted right by dx >= 0 (f(t - dx) for t >= dx, 0 before) — used to
  /// add a latency term to a service curve.
  Curve shifted_right(double dx) const;

  std::string to_string() const;

  /// Exact equality of the canonical representation.
  friend bool operator==(const Curve& a, const Curve& b);

  /// Copies a kernel result out without re-validating it (batch.hpp).
  friend Curve to_curve(CurveView v);

 private:
  struct Canonical {};
  /// Adopts segments that already satisfy the invariants.
  Curve(std::vector<Segment> segments, Canonical)
      : segments_(std::move(segments)) {}

  void normalize();
  // Invariant: non-empty; segments_[0].x == 0; x strictly increasing;
  // continuous; non-decreasing; non-negative.
  std::vector<Segment> segments_;
};

// Namespace-scope declarations of the pointwise combinations (the in-class
// friend declarations alone are only found via ADL).
Curve min(const Curve& a, const Curve& b);
Curve max(const Curve& a, const Curve& b);
Curve add(const Curve& a, const Curve& b);

/// The pointwise combination operators. kSub yields a raw difference that
/// may be negative or decreasing; only residual_blind uses it, through
/// positive_closure_view (batch.hpp).
enum class CombineOp : std::uint8_t { kMin, kMax, kAdd, kSub };

/// Merge the breakpoint sets of two curves and apply `op` linearly on each
/// elementary interval, adding the points where the two inputs cross.
/// `op` is kMin, kMax or kAdd. Runs combine_view (batch.hpp), the one
/// implementation; nc::reference::combine_pointwise is its test oracle.
Curve combine_pointwise(const Curve& a, const Curve& b, CombineOp op);

}  // namespace pap::nc
