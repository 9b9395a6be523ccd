// The NC kernels: the one implementation of each min-plus algorithm the
// library uses, on struct-of-arrays curves (CurveView, curve.hpp).
//
// The kernels below are the only bodies of pointwise combination, positive
// closure, blind residual, convolution, deconvolution, horizontal/vertical
// deviation and the convex minorant. The Curve API (curve.hpp min and
// combine_pointwise, ops.hpp) is a thin adapter over them: it passes each
// argument's own storage (Curve::view) to the kernel and copies only the
// result out. core::E2eAnalysis runs its whole fixpoint on views directly.
// The naive originals survive only as test oracles in nc::reference
// (tests/nc_property_test.cpp, tests/nc_batch_test.cpp).
//
// Ownership rules:
//  * CurveView does not own. A view of a Curve is valid while that curve
//    lives unassigned; a view of arena storage is valid only while its
//    arena epoch is unchanged (Arena::epoch()). Do not hold arena views
//    across Arena::reset().
//  * Kernels write their result into the arena passed in and return a view
//    of it; inputs and outputs may live in the same arena (outputs never
//    alias inputs — each kernel allocates fresh storage).
//  * To keep a result past the arena, copy it out with to_curve().
#pragma once

#include <cstdint>
#include <optional>

#include "nc/arena.hpp"
#include "nc/curve.hpp"

namespace pap::nc {

/// Mutable view over storage under construction (arena storage, or a
/// Curve's own while its constructor normalizes it); `cap` is the
/// allocated segment capacity, `n` the used prefix. Converts to CurveView.
struct MutCurveView {
  double* x = nullptr;
  double* y = nullptr;
  double* slope = nullptr;
  std::uint32_t n = 0;
  std::uint32_t cap = 0;

  operator CurveView() const { return CurveView{x, y, slope, n}; }
};

/// One contiguous SoA allocation for up to `cap` segments.
inline MutCurveView alloc_curve_view(Arena& arena, std::uint32_t cap) {
  double* p = arena.alloc<double>(3 * static_cast<std::size_t>(cap));
  return MutCurveView{p, p + cap, p + 2 * static_cast<std::size_t>(cap), 0,
                      cap};
}

/// Brings raw segments to the Curve invariants in place: validates them
/// (PAP_CHECK), clamps -kEps noise, drops zero-width segments (later
/// definition wins) and merges collinear neighbours (earlier anchor wins).
void normalize_view(MutCurveView* v);

/// The builders behind the Curve named constructors (canonical normalized
/// representation).
CurveView affine_view(Arena& arena, double value0, double slope);
CurveView constant_view(Arena& arena, double value);
CurveView rate_latency_view(Arena& arena, double rate, double latency);

/// Curve::from_points over parallel coordinate arrays.
CurveView from_points_view(Arena& arena, const double* px, const double* py,
                           std::uint32_t npoints, double final_slope);

/// Pointwise combination: a single-pass two-pointer merge, O(n + m), with
/// crossings derived exactly from the active segment pair, plus the Curve
/// invariants (min, max, add).
CurveView combine_view(Arena& arena, CurveView a, CurveView b, CombineOp op);

/// Running max with 0 of a raw piecewise-linear function: the
/// non-negative, non-decreasing closure [f]^+ behind residual services.
CurveView positive_closure_view(Arena& arena, CurveView raw);

/// Blind-multiplexing residual service [beta - cross]^+ (ops.hpp
/// residual_blind).
CurveView residual_blind_view(Arena& arena, CurveView beta, CurveView cross);

/// Min-plus convolution for convex*convex and concave*concave (ops.hpp
/// convolve).
CurveView convolve_view(Arena& arena, CurveView f, CurveView g);

/// Min-plus deconvolution of a concave f by a convex g (ops.hpp
/// deconvolve); returns false (and an empty *out) when the supremum is
/// unbounded.
bool deconvolve_view(Arena& arena, CurveView f, CurveView g, CurveView* out);

/// Horizontal / vertical deviation (ops.hpp) — allocation-free, O(n + m).
std::optional<double> h_deviation_view(CurveView alpha, CurveView beta);
std::optional<double> v_deviation_view(CurveView alpha, CurveView beta);

/// Greatest convex curve below c: convexity is what end-to-end
/// convolution needs, and the minorant stays a valid (lower) service curve.
CurveView convex_minorant_view(Arena& arena, CurveView c);

}  // namespace pap::nc
