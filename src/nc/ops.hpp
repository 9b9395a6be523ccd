// Min-plus algebra operations on curves.
//
// These are the composition tools the paper leans on: "The strength of NC
// lies in the fact that service curves are composable: one can determine an
// end-to-end service guarantee by composing per-node service curves"
// (Sec. IV). The E2E admission control of Sec. V uses exactly this to chain
// the NoC and DRAM guarantees.
//
// Each function here is a thin adapter: it copies its Curve arguments into
// a private scratch arena, runs the matching view kernel of batch.hpp (the
// one implementation of each algorithm) and copies the result out. Callers
// that chain many operations should use the view kernels directly.
#pragma once

#include <optional>

#include "nc/curve.hpp"

namespace pap::nc {

/// Min-plus convolution (f ⊗ g)(t) = inf_{0<=s<=t} f(s) + g(t-s).
///
/// Handled shapes (sufficient for this library, checked at runtime):
///  * both convex with f(0) = g(0) = 0  — service-curve concatenation;
///    computed exactly by merging segments in slope order.
///  * both concave                      — arrival-curve combination;
///    equals min(f, g) when each passes through a common origin burst,
///    and in general min here since we use the right-continuous burst
///    convention (standard result for concave arrival curves).
Curve convolve(const Curve& f, const Curve& g);

/// Min-plus deconvolution (f ⊘ g)(t) = sup_{u>=0} f(t+u) - g(u).
///
/// Requires f concave (arrival) and g convex (service) with bounded result
/// (f.final_slope() <= g.final_slope()); returns the output arrival curve
/// alpha* of a flow alpha=f crossing a server beta=g. Returns nullopt when
/// the supremum is unbounded.
std::optional<Curve> deconvolve(const Curve& f, const Curve& g);

/// Horizontal deviation h(alpha, beta): the worst-case delay bound of a
/// flow constrained by `alpha` served with guarantee `beta` (FIFO per-flow).
/// In nanoseconds; nullopt when unbounded (alpha's long-term rate exceeds
/// beta's).
std::optional<double> h_deviation(const Curve& alpha, const Curve& beta);

/// Vertical deviation v(alpha, beta): the worst-case backlog bound, in work
/// units; nullopt when unbounded.
std::optional<double> v_deviation(const Curve& alpha, const Curve& beta);

/// Residual ("leftover") service under blind multiplexing: the service that
/// remains for a flow of interest when a server beta is shared with cross
/// traffic bounded by alpha_cross:  [beta - alpha_cross]^+ with
/// non-decreasing closure.
Curve residual_blind(const Curve& beta, const Curve& alpha_cross);

}  // namespace pap::nc
