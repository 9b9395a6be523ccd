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

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace pap::nc {

/// One linear piece: on [x, next.x) the curve is y + slope * (t - x).
/// The input form of Curve's checked constructor; Curve itself stores
/// its segments as three parallel arrays.
struct Segment {
  double x = 0.0;      ///< start abscissa (ns)
  double y = 0.0;      ///< value at x
  double slope = 0.0;  ///< units per ns
};

/// Non-owning struct-of-arrays curve: segment i covers [x[i], x[i+1]) with
/// value y[i] + slope[i] * (t - x[i]); the last segment extends to
/// infinity. The NC kernels (batch.hpp) run on views. A view points into a
/// Curve's own storage (Curve::view) or into arena storage (batch.hpp);
/// it holds the Curve invariants whenever it came out of a Curve, a
/// builder or a kernel, while raw combine output inside the kernels may
/// violate them.
struct CurveView {
  const double* x = nullptr;
  const double* y = nullptr;
  const double* slope = nullptr;
  std::uint32_t n = 0;

  bool empty() const { return n == 0; }
  double value_at_zero() const { return y[0]; }
  double final_slope() const { return slope[n - 1]; }
  double last_breakpoint() const { return x[n - 1]; }

  /// Binary search for the active segment.
  double eval(double t) const;

  bool is_concave() const;  ///< slopes non-increasing
  bool is_convex() const;   ///< slopes non-decreasing and f(0) == 0
};

class Curve {
 public:
  /// Build from explicit segments. Enforces the class invariants
  /// (x strictly increasing starting at 0, continuity, non-decreasing,
  /// non-negative); collinear pieces are merged (normalize_view).
  explicit Curve(const std::vector<Segment>& segments);

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

  /// The curve's own storage, without a copy. Valid while the curve lives
  /// and is not assigned to.
  CurveView view() const {
    const auto n = static_cast<std::uint32_t>(soa_.size() / 3);
    const double* p = soa_.data();
    return CurveView{p, p + n, p + 2 * static_cast<std::size_t>(n), n};
  }

  double eval(double x) const;

  /// First x with f(x) >= y, or nullopt if y is never reached.
  std::optional<double> inverse(double y) const;

  double value_at_zero() const { return view().value_at_zero(); }
  double final_slope() const { return view().final_slope(); }

  /// Largest abscissa at which the description changes (0 for affine).
  double last_breakpoint() const { return view().last_breakpoint(); }

  bool is_concave() const { return view().is_concave(); }
  bool is_convex() const { return view().is_convex(); }

  /// Pointwise minimum.
  friend Curve min(const Curve& a, const Curve& b);

  std::string to_string() const;

  /// Exact equality of the canonical representation.
  friend bool operator==(const Curve& a, const Curve& b);

  friend Curve to_curve(CurveView v);

 private:
  /// Storage for `n` segments, for the caller to fill.
  explicit Curve(std::uint32_t n) : soa_(3 * static_cast<std::size_t>(n)) {}

  // One allocation: x[0, n) | y[n, 2n) | slope[2n, 3n). Invariant: n > 0;
  // x[0] == 0; x strictly increasing; continuous; non-decreasing;
  // non-negative.
  std::vector<double> soa_;
};

/// Copies a view out as an owning Curve, without re-validating it: `v`
/// must satisfy the Curve invariants, as every builder and kernel output
/// (batch.hpp) does. This is how a result outlives its arena.
Curve to_curve(CurveView v);

// Namespace-scope declaration of min (the in-class friend declaration
// alone is only found via ADL).
Curve min(const Curve& a, const Curve& b);

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
