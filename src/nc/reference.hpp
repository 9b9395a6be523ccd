// Retained naive implementations of the Network Calculus kernels.
//
// Every operation that was rewritten for performance (the view kernels of
// batch.cpp, which the Curve API runs) keeps its original, obviously-correct
// implementation here, for two purposes:
//  * the randomized equivalence suite (tests/nc_property_test.cpp) pits the
//    optimized kernels against these over thousands of seeded random curve
//    pairs, so the speedups are provably behavior-preserving;
//  * the perf-regression harness (bench/perf_report) benchmarks optimized
//    vs. reference so the speedup ratio is tracked in BENCH_nc.json and can
//    be gated machine-independently in CI (tools/bench_compare.py).
//
// Complexity of the originals, for the record:
//  * combine_raw / combine_pointwise: O((n+m) log(n+m)) breakpoint sort
//    plus an O(log) `eval` per merged breakpoint, with an `eval(x + 1.0)`
//    finite-difference probe for the final slope;
//  * deconvolve: O(n*m) candidate abscissae, each paying an O(n+m) exact
//    supremum scan — ~cubic in the segment count;
//  * h_deviation / v_deviation: O((n+m) log(n+m)) candidate enumeration
//    with an O(log)-searched eval/inverse per candidate.
//
// Do not optimize this file: its value is being the plain original. New
// behavior goes in the optimized kernels and must keep matching these on
// the shapes both support. A soundness fix goes into both, so the oracle
// keeps checking the corrected result (h_deviation's right-hand limit at
// a plateau of beta is the one such fix).
#pragma once

#include <optional>
#include <vector>

#include "nc/curve.hpp"

namespace pap::nc::reference {

/// Original breakpoint-union combination (sort + per-point eval).
std::vector<Segment> combine_raw(const Curve& a, const Curve& b,
                                 double (*combine)(double, double));

/// Same, with the Curve invariants enforced on the result.
Curve combine_pointwise(const Curve& a, const Curve& b,
                        double (*combine)(double, double));

/// Original min-plus convolution (convex*convex and concave*concave).
Curve convolve(const Curve& f, const Curve& g);

/// Original min-plus deconvolution via candidate-abscissa enumeration.
std::optional<Curve> deconvolve(const Curve& f, const Curve& g);

/// Original horizontal deviation via per-candidate inverse searches, plus
/// the right-hand limit where alpha rises off a plateau level of beta.
std::optional<double> h_deviation(const Curve& alpha, const Curve& beta);

/// Original vertical deviation via per-breakpoint eval searches.
std::optional<double> v_deviation(const Curve& alpha, const Curve& beta);

}  // namespace pap::nc::reference
