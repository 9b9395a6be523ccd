#include "nc/batch.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "common/check.hpp"

namespace pap::nc {

namespace {

constexpr double kEps = 1e-9;
constexpr double kInf = std::numeric_limits<double>::infinity();

bool nearly_equal(double a, double b) {
  const double scale = std::max({1.0, std::fabs(a), std::fabs(b)});
  return std::fabs(a - b) <= kEps * scale;
}

// Segment i of v evaluated at t — the one evaluation expression every
// kernel here shares with Curve::eval, so values agree bit for bit.
double seg_eval(CurveView v, std::uint32_t i, double t) {
  return v.y[i] + v.slope[i] * (t - v.x[i]);
}

template <CombineOp Op>
double combine2(double u, double v) {
  if constexpr (Op == CombineOp::kMin) {
    return std::min(u, v);
  } else if constexpr (Op == CombineOp::kMax) {
    return std::max(u, v);
  } else if constexpr (Op == CombineOp::kAdd) {
    return u + v;
  } else {
    return u - v;
  }
}

// Double the capacity of an under-construction view. The old storage stays
// in the arena (bump allocators never free), but growth is exceptionally
// rare: capacities below are sized from proven output bounds and only a
// pathological near-tie cascade in combine can exceed them.
void grow_view(Arena& arena, MutCurveView* v) {
  const std::uint32_t cap = v->cap ? v->cap * 2 : 4;
  MutCurveView bigger = alloc_curve_view(arena, cap);
  std::copy(v->x, v->x + v->n, bigger.x);
  std::copy(v->y, v->y + v->n, bigger.y);
  std::copy(v->slope, v->slope + v->n, bigger.slope);
  bigger.n = v->n;
  *v = bigger;
}

void push_seg(Arena& arena, MutCurveView* v, double x, double y, double slope) {
  if (v->n == v->cap) grow_view(arena, v);
  v->x[v->n] = x;
  v->y[v->n] = y;
  v->slope[v->n] = slope;
  ++v->n;
}

/// Stateful evaluation cursor: remembers the segment the previous query
/// landed in, so a non-decreasing sequence of eval() / inverse() calls costs
/// amortized O(1) per query — the access pattern of the deviation walks.
/// Backward jumps fall back to a fresh search; results are bit-identical to
/// CurveView::eval / inverse.
struct ViewCursor {
  CurveView c;
  std::uint32_t ei = 0;  ///< eval cursor: last segment evaluated
  std::uint32_t ii = 0;  ///< inverse cursor: last segment answering

  double eval(double t) {
    PAP_CHECK(t >= 0.0);
    if (t < c.x[ei]) {
      const double* it = std::upper_bound(c.x, c.x + c.n, t);
      ei = static_cast<std::uint32_t>(it - c.x) - 1;
    } else {
      while (ei + 1 < c.n && c.x[ei + 1] <= t) ++ei;
    }
    return seg_eval(c, ei, t);
  }

  std::optional<double> inverse(double v) {
    if (v <= c.y[0]) return 0.0;
    if (v < c.y[ii]) ii = 0;  // far backward jump: restart the scan
    // Step back while an earlier segment could still answer this query, so
    // the resumed scan matches the full scan on boundaries and plateaus.
    while (ii > 0 && v <= c.y[ii] + kEps) --ii;
    for (; ii < c.n; ++ii) {
      const bool last = (ii + 1 == c.n);
      const double end_value = last ? kInf : seg_eval(c, ii, c.x[ii + 1]);
      if (v <= end_value + kEps) {
        if (c.slope[ii] <= 0.0) {
          if (v <= c.y[ii] + kEps) return c.x[ii];
          if (last) return std::nullopt;
          continue;
        }
        if (v <= c.y[ii]) return c.x[ii];
        return c.x[ii] + (v - c.y[ii]) / c.slope[ii];
      }
    }
    ii = c.n - 1;
    return std::nullopt;
  }
};

template <CombineOp Op>
MutCurveView combine_raw_mut(Arena& arena, CurveView a, CurveView b) {
  // Single-pass two-pointer merge over both segment lists, O(n + m). On
  // every elementary interval both inputs are linear; the crossing of the
  // two active lines (if it falls strictly inside) is computed exactly from
  // the segment pair, so the combination stays linear on each emitted
  // piece and segments shorter than a nanosecond are handled exactly. Each
  // iteration emits one segment and advances past a breakpoint or a
  // crossing, so 2*(n+m)+2 covers the output without growth in all but
  // adversarial near-tie inputs. The naive breakpoint-sort version is
  // nc::reference::combine_raw.
  MutCurveView out = alloc_curve_view(arena, 2 * (a.n + b.n) + 2);
  std::uint32_t ia = 0;
  std::uint32_t ib = 0;
  double x = 0.0;
  for (;;) {
    const double va = seg_eval(a, ia, x);
    const double vb = seg_eval(b, ib, x);
    const double sa = a.slope[ia];
    const double sb = b.slope[ib];
    const double xa = (ia + 1 < a.n) ? a.x[ia + 1] : kInf;
    const double xb = (ib + 1 < b.n) ? b.x[ib + 1] : kInf;
    const double x2 = std::min(xa, xb);

    // Exact crossing of the active lines strictly inside (x, x2):
    // va + sa*d = vb + sb*d  =>  d = (vb - va) / (sa - sb).
    double xc = kInf;
    if (!nearly_equal(sa, sb)) {
      const double cand = x + (vb - va) / (sa - sb);
      if (cand > x + kEps && cand < x2 - kEps) xc = cand;
    }
    const double xe = std::min(x2, xc);

    const double v = combine2<Op>(va, vb);
    double slope;
    if (xe < kInf) {
      // Bounded piece: slope from the exact values at both ends, taken from
      // whichever segment is active *at* xe (matching eval(xe)).
      const double vae = (xe >= xa) ? a.y[ia + 1] : seg_eval(a, ia, xe);
      const double vbe = (xe >= xb) ? b.y[ib + 1] : seg_eval(b, ib, xe);
      slope = (combine2<Op>(vae, vbe) - v) / (xe - x);
    } else {
      // Final ray: any tail crossing was split out above, so a one-unit
      // probe of the active lines is exact for min, max and sums.
      slope = combine2<Op>(seg_eval(a, ia, x + 1.0), seg_eval(b, ib, x + 1.0)) -
              v;
    }
    push_seg(arena, &out, x, v, slope);

    if (xe == kInf) break;
    x = xe;
    // Near-coincident breakpoints (within kEps) advance together.
    if (ia + 1 < a.n && (xe >= xa || nearly_equal(xe, xa))) ++ia;
    if (ib + 1 < b.n && (xe >= xb || nearly_equal(xe, xb))) ++ib;
  }
  return out;
}

MutCurveView combine_raw_dispatch(Arena& arena, CurveView a, CurveView b,
                                  CombineOp op) {
  switch (op) {
    case CombineOp::kMin:
      return combine_raw_mut<CombineOp::kMin>(arena, a, b);
    case CombineOp::kMax:
      return combine_raw_mut<CombineOp::kMax>(arena, a, b);
    case CombineOp::kAdd:
      return combine_raw_mut<CombineOp::kAdd>(arena, a, b);
    case CombineOp::kSub:
      return combine_raw_mut<CombineOp::kSub>(arena, a, b);
  }
  PAP_CHECK(false);
  return MutCurveView{};
}

MutCurveView positive_closure_mut(Arena& arena, CurveView raw) {
  // Sweep left to right keeping the running maximum `best` of max(f, 0).
  // Invariant at the start of each interval: f(x) <= best, because best is
  // the supremum of a continuous f over [0, x] (clamped at 0).
  PAP_CHECK(raw.n > 0);
  PAP_CHECK_MSG(nearly_equal(raw.x[0], 0.0), "raw curve must start at 0");
  MutCurveView out = alloc_curve_view(arena, 2 * raw.n + 2);
  double best = std::max(0.0, raw.y[0]);
  push_seg(arena, &out, 0.0, best, 0.0);
  for (std::uint32_t i = 0; i < raw.n; ++i) {
    const bool last = (i + 1 == raw.n);
    if (raw.slope[i] <= 0.0) continue;  // f stays below best: flat closure
    const double x_end = last ? kInf : raw.x[i + 1];
    const double v_end =
        last ? kInf : raw.y[i] + raw.slope[i] * (x_end - raw.x[i]);
    if (v_end <= best + kEps) continue;  // never overtakes within the span
    // Crossing point where f catches up with the running max.
    const double xc = raw.y[i] >= best
                          ? raw.x[i]
                          : raw.x[i] + (best - raw.y[i]) / raw.slope[i];
    push_seg(arena, &out, xc, best, raw.slope[i]);
    if (last) break;
    best = v_end;
    // After the span the next piece may dip below: anchor a plateau.
    push_seg(arena, &out, x_end, best, 0.0);
  }
  normalize_view(&out);
  return out;
}

CurveView convolve_convex_view(Arena& arena, CurveView f, CurveView g) {
  // Convex service-curve concatenation: the finite (slope, length) pieces
  // of both curves merged in slope order, cut off where the smaller final
  // slope takes over.
  PAP_CHECK_MSG(f.value_at_zero() <= kEps && g.value_at_zero() <= kEps,
                "convex convolution expects service curves with f(0) = 0");
  const std::size_t np =
      static_cast<std::size_t>(f.n - 1) + static_cast<std::size_t>(g.n - 1);
  auto* pieces = arena.alloc<std::pair<double, double>>(np);
  std::size_t k = 0;
  for (std::uint32_t i = 0; i + 1 < f.n; ++i) {
    pieces[k++] = {f.slope[i], f.x[i + 1] - f.x[i]};
  }
  for (std::uint32_t i = 0; i + 1 < g.n; ++i) {
    pieces[k++] = {g.slope[i], g.x[i + 1] - g.x[i]};
  }
  std::sort(pieces, pieces + np);
  const double tail = std::min(f.final_slope(), g.final_slope());
  MutCurveView out = alloc_curve_view(arena, static_cast<std::uint32_t>(np) + 1);
  double x = 0.0;
  double y = 0.0;
  for (std::size_t p = 0; p < np; ++p) {
    const double slope = pieces[p].first;
    const double len = pieces[p].second;
    if (slope >= tail - kEps) break;  // absorbed by the infinite tail
    push_seg(arena, &out, x, y, slope);
    x += len;
    y += slope * len;
  }
  push_seg(arena, &out, x, y, tail);
  normalize_view(&out);
  return out;
}

}  // namespace

double CurveView::eval(double t) const {
  PAP_CHECK(t >= 0.0);
  const double* it = std::upper_bound(x, x + n, t);
  const std::uint32_t i = static_cast<std::uint32_t>(it - x) - 1;
  return y[i] + slope[i] * (t - x[i]);
}

std::optional<double> CurveView::inverse(double v) const {
  if (v <= y[0]) return 0.0;
  for (std::uint32_t i = 0; i < n; ++i) {
    const bool last = (i + 1 == n);
    const double end_value = last ? kInf : seg_eval(*this, i, x[i + 1]);
    if (v <= end_value + kEps) {
      if (slope[i] <= 0.0) {
        if (v <= y[i] + kEps) return x[i];
        if (last) return std::nullopt;
        continue;
      }
      if (v <= y[i]) return x[i];
      return x[i] + (v - y[i]) / slope[i];
    }
  }
  return std::nullopt;
}

// Same tests as Curve::is_concave/is_convex, including the looser shape
// tolerance (see curve.cpp kShapeEps): slope order noise from closure
// arithmetic must classify, not crash.
constexpr double kShapeEps = 1e-6;

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

void normalize_view(MutCurveView* v) {
  // In-place Curve::normalize() in one pass: segment i is validated and
  // clamped (identical checks, against the raw segment i + 1), then fed to
  // two chained compactions — drop zero-width segments (later definition
  // wins), then merge collinear neighbours (earlier anchor wins). The
  // latest survivor of the first stays pending in registers until the next
  // segment shows it is final. Writes land strictly below the read index,
  // so the arrays compact in place.
  double* x = v->x;
  double* y = v->y;
  double* sl = v->slope;
  const std::uint32_t n = v->n;
  PAP_CHECK_MSG(n > 0, "curve needs at least one segment");
  PAP_CHECK_MSG(nearly_equal(x[0], 0.0), "first segment must start at x = 0");
  x[0] = 0.0;
  std::uint32_t w = 0;  // segments kept after both compactions
  std::uint32_t d = 0;  // segments left after dropping zero-width ones
  double px = 0.0;      // the last of those, still replaceable
  double py = 0.0;
  double ps = 0.0;
  const auto keep = [&] {
    if (w > 0 && nearly_equal(sl[w - 1], ps)) return;  // same line continues
    x[w] = px;
    y[w] = py;
    sl[w] = ps;
    ++w;
  };
  for (std::uint32_t i = 0; i < n; ++i) {
    const double xi = x[i];
    double yi = y[i];
    double si = sl[i];
    PAP_CHECK_MSG(yi >= -kEps, "curve must be non-negative");
    PAP_CHECK_MSG(si >= -kEps, "curve must be non-decreasing");
    if (yi < 0.0) yi = 0.0;
    if (si < 0.0) si = 0.0;
    if (i + 1 < n) {
      PAP_CHECK_MSG(x[i + 1] > xi + kEps || nearly_equal(x[i + 1], xi),
                    "breakpoints must be increasing");
      PAP_CHECK_MSG(nearly_equal(yi + si * (x[i + 1] - xi), y[i + 1]),
                    "curve must be continuous");
    }
    if (d > 0 && nearly_equal(xi, px)) {
      px = (d == 1) ? 0.0 : xi;  // zero-width span: the later segment wins
      py = yi;
      ps = si;
      continue;
    }
    if (d > 0) keep();
    px = xi;
    py = yi;
    ps = si;
    ++d;
  }
  keep();
  v->n = w;
}

Curve to_curve(CurveView v) {
  PAP_CHECK_MSG(v.n > 0, "curve needs at least one segment");
  std::vector<Segment> segs(v.n);
  for (std::uint32_t i = 0; i < v.n; ++i) {
    segs[i] = Segment{v.x[i], v.y[i], v.slope[i]};
  }
  return Curve{std::move(segs), Curve::Canonical{}};
}

CurveView affine_view(Arena& arena, double value0, double slope) {
  MutCurveView m = alloc_curve_view(arena, 1);
  m.x[0] = 0.0;
  m.y[0] = value0;
  m.slope[0] = slope;
  m.n = 1;
  normalize_view(&m);
  return m;
}

CurveView constant_view(Arena& arena, double value) {
  return affine_view(arena, value, 0.0);
}

CurveView rate_latency_view(Arena& arena, double rate, double latency) {
  PAP_CHECK(rate >= 0.0 && latency >= 0.0);
  if (latency <= 0.0) return affine_view(arena, 0.0, rate);
  MutCurveView m = alloc_curve_view(arena, 2);
  m.x[0] = 0.0;
  m.y[0] = 0.0;
  m.slope[0] = 0.0;
  m.x[1] = latency;
  m.y[1] = 0.0;
  m.slope[1] = rate;
  m.n = 2;
  normalize_view(&m);
  return m;
}

CurveView from_points_view(Arena& arena, const double* px, const double* py,
                           std::uint32_t npoints, double final_slope) {
  PAP_CHECK_MSG(npoints > 0, "need at least one point");
  MutCurveView out = alloc_curve_view(arena, npoints + 1);
  double ax = 0.0;
  double ay = 0.0;
  if (nearly_equal(px[0], 0.0)) ay = py[0];
  for (std::uint32_t i = 0; i < npoints; ++i) {
    const double bx = px[i];
    const double by = py[i];
    if (nearly_equal(bx, 0.0)) continue;  // handled as value at 0
    PAP_CHECK_MSG(bx > ax, "point abscissae must be strictly increasing");
    PAP_CHECK_MSG(by >= ay - kEps, "point values must be non-decreasing");
    out.x[out.n] = ax;
    out.y[out.n] = ay;
    out.slope[out.n] = (by - ay) / (bx - ax);
    ++out.n;
    ax = bx;
    ay = by;
  }
  out.x[out.n] = ax;
  out.y[out.n] = ay;
  out.slope[out.n] = final_slope;
  ++out.n;
  normalize_view(&out);
  return out;
}

CurveView combine_raw_view(Arena& arena, CurveView a, CurveView b,
                           CombineOp op) {
  return combine_raw_dispatch(arena, a, b, op);
}

CurveView combine_view(Arena& arena, CurveView a, CurveView b, CombineOp op) {
  MutCurveView raw = combine_raw_dispatch(arena, a, b, op);
  normalize_view(&raw);
  return raw;
}

CurveView positive_closure_view(Arena& arena, CurveView raw) {
  return positive_closure_mut(arena, raw);
}

CurveView residual_blind_view(Arena& arena, CurveView beta, CurveView cross) {
  // The *raw* subtraction (which may dip negative / decrease) feeds the
  // closure directly, without an intermediate normalization.
  MutCurveView raw = combine_raw_mut<CombineOp::kSub>(arena, beta, cross);
  return positive_closure_mut(arena, raw);
}

CurveView convolve_view(Arena& arena, CurveView f, CurveView g) {
  if (f.is_convex() && g.is_convex()) return convolve_convex_view(arena, f, g);
  if (f.is_concave() && g.is_concave()) {
    return combine_view(arena, f, g, CombineOp::kMin);
  }
  PAP_CHECK_MSG(false,
                "convolve: supported shapes are convex*convex (service) and "
                "concave*concave (arrival)");
  return CurveView{};
}

bool deconvolve_view(Arena& arena, CurveView f, CurveView g, CurveView* out) {
  // Rotating-tangent walk, O(n + m). For concave f and convex g the
  // objective phi_t(u) = f(t+u) - g(u) is concave in u, so the smallest
  // maximizer u*(t) is characterised by the slope sandwich
  //     f'((t+u)^+) <= g'(u^+)   and   f'((t+u)^-) >= g'(u^-).
  // As t grows, u*(t) only decreases and s*(t) = t + u*(t) only increases,
  // so one pointer descends g's pieces while the other ascends f's pieces
  // and every breakpoint is visited at most once. The enumeration version
  // (~cubic in the segment count) is nc::reference::deconvolve.
  PAP_CHECK_MSG(f.is_concave(), "deconvolve expects a concave arrival curve");
  PAP_CHECK_MSG(g.is_convex(), "deconvolve expects a convex service curve");
  *out = CurveView{};
  if (f.final_slope() > g.final_slope() + kEps) return false;

  const std::uint32_t nf = f.n;
  const std::uint32_t ng = g.n;

  // u0 = u*(0): the smallest u with f'(u^+) <= g'(u^+), found by walking
  // the merged breakpoints while f' still exceeds g'.
  std::uint32_t i = 0;  // f piece containing s = t + u (right piece)
  std::uint32_t j = 0;  // g piece with g.x[j] <= u
  double u0 = 0.0;
  while (f.slope[i] > g.slope[j] + kEps) {
    const double xa = (i + 1 < nf) ? f.x[i + 1] : kInf;
    const double xb = (j + 1 < ng) ? g.x[j + 1] : kInf;
    if (xa == kInf && xb == kInf) break;  // tolerance tie between the tails
    u0 = std::min(xa, xb);
    if (i + 1 < nf && f.x[i + 1] <= u0) ++i;
    if (j + 1 < ng && g.x[j + 1] <= u0) ++j;
  }

  double t = 0.0;
  double s = u0;
  double u = u0;
  double h = std::max(0.0, f.eval(u0) - g.eval(u0));

  // Every retreat lands on a strictly earlier g breakpoint and every
  // advance consumes an f piece, so nf + ng + 2 points always suffice.
  const std::uint32_t cap = nf + ng + 2;
  double* px = arena.alloc<double>(cap);
  double* py = arena.alloc<double>(cap);
  std::uint32_t k = 0;
  px[k] = t;
  py[k] = h;
  ++k;
  for (;;) {
    if (u > 0.0) {
      // Left piece of g at u: the piece strictly containing (u - eps).
      std::uint32_t jl = j;
      if (jl > 0 && g.x[jl] >= u) --jl;
      const double gl = g.slope[jl];
      if (gl >= f.slope[i]) {
        // Retreat u to that piece's start; h grows at g's slope there.
        const double du = u - g.x[jl];
        t += du;
        h += gl * du;
        u = g.x[jl];
        j = jl;
        PAP_CHECK(k < cap);
        px[k] = t;
        py[k] = h;
        ++k;
        continue;
      }
    }
    // Advance s through f's piece i; h grows at f's slope there.
    if (i + 1 == nf) break;  // tail: h follows f's final slope forever
    const double ds = f.x[i + 1] - s;
    t += ds;
    h += f.slope[i] * ds;
    s = f.x[i + 1];
    ++i;
    PAP_CHECK(k < cap);
    px[k] = t;
    py[k] = h;
    ++k;
  }
  *out = from_points_view(arena, px, py, k, f.final_slope());
  return true;
}

std::optional<double> h_deviation_view(CurveView alpha, CurveView beta) {
  // Candidates: alpha's breakpoints plus the first times alpha reaches each
  // of beta's breakpoint values; between them t -> beta^-1(alpha(t)) - t
  // is linear. They are generated in merged (sorted) order, so all three
  // curve lookups ride cursors and the scan is O(n + m).
  if (alpha.final_slope() > beta.final_slope() + kEps) return std::nullopt;

  ViewCursor alpha_inv{alpha};
  ViewCursor alpha_ev{alpha};
  ViewCursor beta_inv{beta};

  double worst = 0.0;
  std::uint32_t ia = 0;
  std::uint32_t ib = 0;
  std::optional<double> tb;
  bool tb_computed = false;
  while (ia < alpha.n || ib < beta.n) {
    if (!tb_computed && ib < beta.n) {
      tb = alpha_inv.inverse(beta.y[ib]);
      tb_computed = true;
      if (!tb) {
        // alpha plateaus below this level: no time ever reaches it.
        ib = beta.n;
        continue;
      }
    }
    double t;
    if (ib >= beta.n || (ia < alpha.n && alpha.x[ia] <= *tb)) {
      t = alpha.x[ia++];
    } else {
      t = *tb;
      ++ib;
      tb_computed = false;
    }
    const auto bx = beta_inv.inverse(alpha_ev.eval(t));
    if (!bx) return std::nullopt;  // beta saturates below alpha(t)
    worst = std::max(worst, *bx - t);
  }
  return worst;
}

std::optional<double> v_deviation_view(CurveView alpha, CurveView beta) {
  // The difference is linear between merged breakpoints, so its sup sits
  // on one of them: a two-pointer merge with cursor evals, O(n + m).
  if (alpha.final_slope() > beta.final_slope() + kEps) return std::nullopt;
  ViewCursor ac{alpha};
  ViewCursor bc{beta};
  double worst = 0.0;
  std::uint32_t ia = 0;
  std::uint32_t ib = 0;
  while (ia < alpha.n || ib < beta.n) {
    double t;
    if (ib >= beta.n || (ia < alpha.n && alpha.x[ia] <= beta.x[ib])) {
      t = alpha.x[ia++];
    } else {
      t = beta.x[ib++];
    }
    worst = std::max(worst, ac.eval(t) - bc.eval(t));
  }
  return worst;
}

CurveView convex_minorant_view(Arena& arena, CurveView c) {
  // Andrew's monotone chain lower hull over the (already x-sorted)
  // breakpoints. The tail keeps the curve's final slope, which must not be
  // below the hull's last slope for convexity: drop hull points until it
  // attaches convexly.
  double* hx = arena.alloc<double>(c.n);
  double* hy = arena.alloc<double>(c.n);
  std::uint32_t hn = 0;
  const auto cross = [](double ox, double oy, double ax, double ay, double bx,
                        double by) {
    return (ax - ox) * (by - oy) - (ay - oy) * (bx - ox);
  };
  for (std::uint32_t i = 0; i < c.n; ++i) {
    const double px = c.x[i];
    const double py = c.y[i];
    while (hn >= 2 && cross(hx[hn - 2], hy[hn - 2], hx[hn - 1], hy[hn - 1], px,
                            py) <= 0.0) {
      --hn;
    }
    hx[hn] = px;
    hy[hn] = py;
    ++hn;
  }
  const double tail = c.final_slope();
  while (hn >= 2) {
    const double m = (hy[hn - 1] - hy[hn - 2]) / (hx[hn - 1] - hx[hn - 2]);
    if (m <= tail + 1e-12) break;
    --hn;
  }
  MutCurveView out = alloc_curve_view(arena, hn);
  for (std::uint32_t i = 0; i < hn; ++i) {
    const double slope = (i + 1 < hn)
                             ? (hy[i + 1] - hy[i]) / (hx[i + 1] - hx[i])
                             : tail;
    out.x[i] = hx[i];
    out.y[i] = hy[i];
    out.slope[i] = slope;
  }
  out.n = hn;
  normalize_view(&out);
  return out;
}

void CurveBatch::push_back(const Curve& c) {
  PAP_CHECK_MSG(arena_ != nullptr, "CurveBatch has no arena to copy into");
  views_.push_back(to_view(*arena_, c));
}

namespace {

template <CombineOp Op>
void combine_all_impl(Arena& arena, const CurveBatch& a, const CurveBatch& b,
                      CurveBatch* out) {
  const std::size_t count = a.size();
  for (std::size_t i = 0; i < count; ++i) {
    MutCurveView raw = combine_raw_mut<Op>(arena, a[i], b[i]);
    normalize_view(&raw);
    out->push_back(raw.view());
  }
}

}  // namespace

void combine_all(Arena& arena, const CurveBatch& a, const CurveBatch& b,
                 CombineOp op, CurveBatch* out) {
  PAP_CHECK(a.size() == b.size());
  out->clear();
  out->reserve(a.size());
  switch (op) {
    case CombineOp::kMin:
      combine_all_impl<CombineOp::kMin>(arena, a, b, out);
      break;
    case CombineOp::kMax:
      combine_all_impl<CombineOp::kMax>(arena, a, b, out);
      break;
    case CombineOp::kAdd:
      combine_all_impl<CombineOp::kAdd>(arena, a, b, out);
      break;
    case CombineOp::kSub:
      combine_all_impl<CombineOp::kSub>(arena, a, b, out);
      break;
  }
}

std::size_t deconvolve_all(Arena& arena, const CurveBatch& f,
                           const CurveBatch& g, CurveBatch* out) {
  PAP_CHECK(f.size() == g.size());
  out->clear();
  out->reserve(f.size());
  std::size_t bounded = 0;
  for (std::size_t i = 0; i < f.size(); ++i) {
    CurveView result;
    if (deconvolve_view(arena, f[i], g[i], &result)) ++bounded;
    out->push_back(result);
  }
  return bounded;
}

void deviations_all(const CurveBatch& alpha, const CurveBatch& beta,
                    std::vector<Deviations>* out) {
  PAP_CHECK(alpha.size() == beta.size());
  out->clear();
  out->reserve(alpha.size());
  for (std::size_t i = 0; i < alpha.size(); ++i) {
    Deviations d;
    if (const auto h = h_deviation_view(alpha[i], beta[i])) {
      d.h = *h;
      d.h_bounded = true;
    }
    if (const auto v = v_deviation_view(alpha[i], beta[i])) {
      d.v = *v;
      d.v_bounded = true;
    }
    out->push_back(d);
  }
}

}  // namespace pap::nc
