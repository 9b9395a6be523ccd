// The NC kernels: struct-of-arrays curves over arena storage, and the one
// implementation of each min-plus algorithm the library uses.
//
// A CurveView is the SoA form of Curve: three parallel spans (x, y, slope)
// over storage the caller controls — almost always an Arena (arena.hpp).
// The kernels below are the only bodies of pointwise combination, positive
// closure, blind residual, convolution, deconvolution, horizontal/vertical
// deviation and the convex minorant. The Curve API (curve.hpp min/max/add,
// ops.hpp, service.hpp convex_minorant) is a thin adapter over them: copy
// in, run the kernel, copy out. core::E2eAnalysis runs its whole fixpoint
// on views directly. The naive originals survive only as test oracles in
// nc::reference (tests/nc_property_test.cpp, tests/nc_batch_test.cpp).
//
// The batched entry points (combine_all / deconvolve_all / deviations_all)
// process N curve pairs per call over CurveBatch storage: one bump
// allocation per output curve, no invariant re-validation per intermediate,
// and the combine operator resolved at compile time (template dispatch, not
// a runtime switch per point) so the inner loops stay tight.
//
// Ownership rules:
//  * CurveView does not own; it is valid only while its arena epoch is
//    unchanged (Arena::epoch()). Do not hold views across Arena::reset().
//  * Kernels write their result into the arena passed in and return a view
//    of it; inputs and outputs may live in the same arena (outputs never
//    alias inputs — each kernel allocates fresh storage).
//  * To keep a result past the arena, copy it out with to_curve().
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "nc/arena.hpp"
#include "nc/curve.hpp"

namespace pap::nc {

/// Non-owning SoA curve: segment i covers [x[i], x[i+1]) with value
/// y[i] + slope[i] * (t - x[i]); the last segment extends to infinity.
/// Invariants are those of Curve (x[0] == 0, continuous, non-decreasing,
/// non-negative) whenever the view came out of a builder or kernel below;
/// raw combine output (combine_raw_view) may violate them.
struct CurveView {
  const double* x = nullptr;
  const double* y = nullptr;
  const double* slope = nullptr;
  std::uint32_t n = 0;

  bool empty() const { return n == 0; }
  double value_at_zero() const { return y[0]; }
  double final_slope() const { return slope[n - 1]; }
  double last_breakpoint() const { return x[n - 1]; }

  /// Same result as Curve::eval — binary search for the active segment.
  double eval(double t) const;

  /// Same result as Curve::inverse.
  std::optional<double> inverse(double v) const;

  bool is_concave() const;  ///< same test as Curve::is_concave
  bool is_convex() const;   ///< same test as Curve::is_convex
};

/// Mutable view over freshly allocated (arena) storage; `cap` is the
/// allocated segment capacity, `n` the used prefix. Converts to CurveView.
struct MutCurveView {
  double* x = nullptr;
  double* y = nullptr;
  double* slope = nullptr;
  std::uint32_t n = 0;
  std::uint32_t cap = 0;

  operator CurveView() const { return CurveView{x, y, slope, n}; }
  CurveView view() const { return CurveView{x, y, slope, n}; }
};

/// One contiguous SoA allocation for up to `cap` segments.
inline MutCurveView alloc_curve_view(Arena& arena, std::uint32_t cap) {
  double* p = arena.alloc<double>(3 * static_cast<std::size_t>(cap));
  return MutCurveView{p, p + cap, p + 2 * static_cast<std::size_t>(cap), 0,
                      cap};
}

/// In-place Curve::normalize(): validates the invariants (same PAP_CHECKs),
/// clamps -kEps noise, drops zero-width segments (later definition wins)
/// and merges collinear neighbours (earlier anchor wins).
void normalize_view(MutCurveView* v);

/// Copy a Curve's segments into arena SoA storage. Inline: every Curve-API
/// adapter pays it once per argument.
inline CurveView to_view(Arena& arena, const Curve& c) {
  const auto& segs = c.segments();
  const auto n = static_cast<std::uint32_t>(segs.size());
  MutCurveView m = alloc_curve_view(arena, n);
  for (std::uint32_t i = 0; i < n; ++i) {
    m.x[i] = segs[i].x;
    m.y[i] = segs[i].y;
    m.slope[i] = segs[i].slope;
  }
  m.n = n;
  return m;
}

/// Materialize a view as an owning Curve (allocates; for results that must
/// outlive the arena). `v` must satisfy the Curve invariants — any builder
/// or kernel output except combine_raw_view — and is copied as is, without
/// a second normalization pass.
Curve to_curve(CurveView v);

/// Builders matching the Curve named constructors (canonical normalized
/// representation, bit-identical to e.g. to_view(arena, Curve::affine(...))).
CurveView affine_view(Arena& arena, double value0, double slope);
CurveView constant_view(Arena& arena, double value);
CurveView rate_latency_view(Arena& arena, double rate, double latency);

/// Curve::from_points over parallel coordinate arrays.
CurveView from_points_view(Arena& arena, const double* px, const double* py,
                           std::uint32_t npoints, double final_slope);

/// Pointwise combination without the Curve invariants: a single-pass
/// two-pointer merge, O(n + m), with crossings derived exactly from the
/// active segment pair. The result may be negative/decreasing for kSub
/// (feed it to positive_closure_view).
CurveView combine_raw_view(Arena& arena, CurveView a, CurveView b,
                           CombineOp op);

/// combine_raw_view plus the Curve invariants (min, max, add).
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

/// Greatest convex curve below c (service.hpp convex_minorant).
CurveView convex_minorant_view(Arena& arena, CurveView c);

// ---------------------------------------------------------------------------
// Batched multi-curve storage and entry points
// ---------------------------------------------------------------------------

/// A sequence of curves over one arena. The view list itself is a plain
/// std::vector so a batch can be reused across arena epochs: clear() after
/// Arena::reset() keeps the vector capacity, so steady-state refills make
/// no heap allocation.
class CurveBatch {
 public:
  CurveBatch() = default;
  explicit CurveBatch(Arena* arena) : arena_(arena) {}

  /// (Re)bind the arena new curves are copied into. Views already stored
  /// keep pointing at whatever arena they came from.
  void attach(Arena* arena) { arena_ = arena; }
  Arena* arena() const { return arena_; }

  void clear() { views_.clear(); }
  void reserve(std::size_t count) { views_.reserve(count); }
  std::size_t size() const { return views_.size(); }
  bool empty() const { return views_.empty(); }

  /// Deep-copy `c` into the batch's arena.
  void push_back(const Curve& c);

  /// Store a view as-is (no copy); the caller guarantees its storage
  /// outlives the batch's use.
  void push_back(CurveView v) { views_.push_back(v); }

  CurveView operator[](std::size_t i) const { return views_[i]; }
  const std::vector<CurveView>& views() const { return views_; }

 private:
  Arena* arena_ = nullptr;
  std::vector<CurveView> views_;
};

/// out[i] = combine(a[i], b[i]) with Curve invariants, for all i in one
/// call. `out` is cleared first; its stored views live in `arena`.
void combine_all(Arena& arena, const CurveBatch& a, const CurveBatch& b,
                 CombineOp op, CurveBatch* out);

/// out[i] = deconvolve(f[i], g[i]), or an empty view when pair i is
/// unbounded. Returns the number of bounded results.
std::size_t deconvolve_all(Arena& arena, const CurveBatch& f,
                           const CurveBatch& g, CurveBatch* out);

/// Horizontal and vertical deviation of one (alpha, beta) pair; *_bounded
/// false means the corresponding deviation is unbounded (the value field is
/// then meaningless).
struct Deviations {
  double h = 0.0;
  double v = 0.0;
  bool h_bounded = false;
  bool v_bounded = false;
};

/// out->at(i) = {h_deviation(alpha[i], beta[i]), v_deviation(...)} for all
/// pairs in one call. Allocation-free once `out` has capacity.
void deviations_all(const CurveBatch& alpha, const CurveBatch& beta,
                    std::vector<Deviations>* out);

}  // namespace pap::nc
