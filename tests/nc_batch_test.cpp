// NC kernel and arena tests (nc/arena.hpp, nc/batch.hpp).
//
// Two layers of defence:
//  * seeded property tests (>10k cases across the suite) pin the view
//    kernels (combine_view / deconvolve_view / h_ and v_deviation_view)
//    against the per-call Curve API — an adapter that runs the same kernel
//    on each curve's own storage, so the two must agree bit for bit — and
//    against the retained nc::reference oracles at the looser tolerance the
//    property suite uses (the references keep the old finite-difference
//    probes);
//  * arena-contract tests: epoch bump on reset, storage reuse without fresh
//    blocks, no aliasing between kernel outputs and inputs, and per-thread
//    isolation of thread_arena() under concurrent workers (the sweep
//    runner's --jobs shape).
//
// The file also hosts the zero-steady-state-allocation assertion for
// core::E2eAnalysis::e2e_bounds_into, via a TU-local replacement of the
// global operator new that counts heap allocations. The replacement is
// compiled out under ASan/TSan (the sanitizers own operator new there; this
// binary still runs under them for memory-safety, and the counting
// assertion is skipped).
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <optional>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "core/e2e_analysis.hpp"
#include "nc/arena.hpp"
#include "nc/batch.hpp"
#include "nc/curve.hpp"
#include "nc/ops.hpp"
#include "nc/reference.hpp"
#include "noc/topology.hpp"

// ---------------------------------------------------------------------------
// Heap allocation counter (zero-steady-state-allocation assertion)
// ---------------------------------------------------------------------------

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define PAP_NO_ALLOC_COUNTING 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define PAP_NO_ALLOC_COUNTING 1
#endif
#endif

namespace {
std::atomic<std::uint64_t> g_heap_allocs{0};
}  // namespace

#ifndef PAP_NO_ALLOC_COUNTING

void* operator new(std::size_t size) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return operator new(size); }
void* operator new(std::size_t size, std::align_val_t al) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  const auto a = static_cast<std::size_t>(al);
  const std::size_t rounded = (size + a - 1) / a * a;
  if (void* p = std::aligned_alloc(a, rounded ? rounded : a)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size, std::align_val_t al) {
  return operator new(size, al);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

#endif  // PAP_NO_ALLOC_COUNTING

namespace {

using pap::Rng;
using pap::nc::Arena;
using pap::nc::CombineOp;
using pap::nc::Curve;
using pap::nc::CurveView;
using pap::nc::MutCurveView;
using pap::nc::Segment;

// ---------------------------------------------------------------------------
// Random curve generation (same distributions as tests/nc_property_test.cpp,
// including the sub-nanosecond-segment regime)
// ---------------------------------------------------------------------------

double random_length(Rng& rng, bool sub_ns) {
  if (sub_ns) return 0.001 + 0.9 * rng.next_double();
  return 0.5 + 19.5 * rng.next_double();
}

Curve random_concave(Rng& rng, bool sub_ns) {
  const int pieces = static_cast<int>(rng.uniform(1, 10));
  std::vector<double> slopes;
  slopes.reserve(static_cast<std::size_t>(pieces));
  double s = 2.0 + 10.0 * rng.next_double();
  for (int i = 0; i < pieces; ++i) {
    slopes.push_back(s);
    s *= 0.3 + 0.6 * rng.next_double();
  }
  std::vector<Segment> segs;
  segs.reserve(slopes.size());
  double x = 0.0;
  double y = rng.chance(0.8) ? 16.0 * rng.next_double() : 0.0;
  for (double slope : slopes) {
    segs.push_back(Segment{x, y, slope});
    const double len = random_length(rng, sub_ns);
    x += len;
    y += slope * len;
  }
  return Curve{std::move(segs)};
}

Curve random_convex(Rng& rng, bool sub_ns) {
  const int pieces = static_cast<int>(rng.uniform(1, 10));
  std::vector<double> slopes;
  slopes.reserve(static_cast<std::size_t>(pieces));
  double s = rng.chance(0.5) ? 0.0 : 0.5 * rng.next_double();
  for (int i = 0; i < pieces; ++i) {
    slopes.push_back(s);
    s += 0.2 + 3.0 * rng.next_double();
  }
  std::vector<Segment> segs;
  segs.reserve(slopes.size());
  double x = 0.0;
  double y = 0.0;
  for (double slope : slopes) {
    segs.push_back(Segment{x, y, slope});
    const double len = random_length(rng, sub_ns);
    x += len;
    y += slope * len;
  }
  return Curve{std::move(segs)};
}

// ---------------------------------------------------------------------------
// Comparison helpers
// ---------------------------------------------------------------------------

std::vector<double> probe_points(const Curve& a, const Curve& b) {
  const CurveView av = a.view();
  const CurveView bv = b.view();
  std::vector<double> xs(av.x, av.x + av.n);
  xs.insert(xs.end(), bv.x, bv.x + bv.n);
  std::sort(xs.begin(), xs.end());
  std::vector<double> out;
  out.reserve(xs.size() * 2 + 2);
  for (std::size_t i = 0; i < xs.size(); ++i) {
    out.push_back(xs[i]);
    if (i + 1 < xs.size() && xs[i + 1] > xs[i]) {
      out.push_back(0.5 * (xs[i] + xs[i + 1]));
    }
  }
  const double last = xs.empty() ? 0.0 : xs.back();
  out.push_back(last + 1.0);
  out.push_back(last + 50.0);
  return out;
}

/// Kernel output vs the per-call Curve API: both run the same kernel on the
/// same input values, so every breakpoint coordinate must agree bit for bit.
::testing::AssertionResult view_matches_curve(CurveView got,
                                              const Curve& want,
                                              int case_idx) {
  const CurveView w = want.view();
  if (got.n != w.n) {
    return ::testing::AssertionFailure()
           << "case " << case_idx << ": segment count " << got.n << " vs "
           << w.n << "\n  want: " << want.to_string();
  }
  for (std::uint32_t i = 0; i < got.n; ++i) {
    if (got.x[i] != w.x[i] || got.y[i] != w.y[i] ||
        got.slope[i] != w.slope[i]) {
      return ::testing::AssertionFailure()
             << "case " << case_idx << ": segment " << i << " is ("
             << got.x[i] << ", " << got.y[i] << ", " << got.slope[i]
             << "), want (" << w.x[i] << ", " << w.y[i] << ", "
             << w.slope[i] << ")";
    }
  }
  return ::testing::AssertionSuccess();
}

/// Kernel output vs the retained naive oracle, at the tolerance the
/// property suite uses (the reference keeps the old finite-difference slope
/// probes).
::testing::AssertionResult view_matches_reference(CurveView got,
                                                  const Curve& want,
                                                  int case_idx) {
  const Curve got_curve = pap::nc::to_curve(got);
  for (double x : probe_points(got_curve, want)) {
    const double g = got_curve.eval(x);
    const double w = want.eval(x);
    const double tol =
        1e-6 * std::max(1.0, std::max(std::fabs(g), std::fabs(w)));
    if (std::fabs(g - w) > tol) {
      return ::testing::AssertionFailure()
             << "case " << case_idx << ": disagrees with reference at x = "
             << x << ": got " << g << ", want " << w;
    }
  }
  return ::testing::AssertionSuccess();
}

double min_of(double u, double v) { return u < v ? u : v; }
double max_of(double u, double v) { return u > v ? u : v; }
double sum_of(double u, double v) { return u + v; }

Curve random_curve(Rng& rng, bool sub_ns) {
  return rng.chance(0.5) ? random_concave(rng, sub_ns)
                         : random_convex(rng, sub_ns);
}

/// A copy of `c` in arena storage, the way the e2e analysis keeps its
/// inputs next to its intermediates.
CurveView copy_to(Arena& arena, const Curve& c) {
  const CurveView v = c.view();
  MutCurveView m = pap::nc::alloc_curve_view(arena, v.n);
  std::copy(v.x, v.x + v.n, m.x);
  std::copy(v.y, v.y + v.n, m.y);
  std::copy(v.slope, v.slope + v.n, m.slope);
  m.n = v.n;
  return m;
}

// ---------------------------------------------------------------------------
// combine_view: 1500 random pairs x 3 ops (4500 combine cases)
// ---------------------------------------------------------------------------

TEST(NcBatch, CombineAllMatchesScalarAndReference) {
  Rng rng(0xBA7C4001u);
  const int kCases = 1500;
  const struct {
    CombineOp op;
    double (*fn)(double, double);
  } kOps[] = {{CombineOp::kMin, min_of},
              {CombineOp::kMax, max_of},
              {CombineOp::kAdd, sum_of}};
  Arena arena;
  for (int i = 0; i < kCases; ++i) {
    const bool sub_ns = i % 3 == 0;
    const Curve a = random_curve(rng, sub_ns);
    const Curve b = random_curve(rng, sub_ns);
    for (const auto& o : kOps) {
      arena.reset();
      const CurveView got =
          pap::nc::combine_view(arena, a.view(), b.view(), o.op);
      const Curve scalar = pap::nc::combine_pointwise(a, b, o.op);
      ASSERT_TRUE(view_matches_curve(got, scalar, i));
      const Curve ref = pap::nc::reference::combine_pointwise(a, b, o.fn);
      ASSERT_TRUE(view_matches_reference(got, ref, i));
    }
  }
}

// ---------------------------------------------------------------------------
// deconvolve_view: 3000 concave/convex pairs
// ---------------------------------------------------------------------------

TEST(NcBatch, DeconvolveAllMatchesScalarAndReference) {
  Rng rng(0xBA7C4002u);
  const int kCases = 3000;
  Arena arena;
  int bounded = 0;
  for (int i = 0; i < kCases; ++i) {
    const bool sub_ns = i % 3 == 0;
    const Curve f = random_concave(rng, sub_ns);
    const Curve g = random_convex(rng, sub_ns);
    arena.reset();
    CurveView got;
    const bool got_bounded =
        pap::nc::deconvolve_view(arena, f.view(), g.view(), &got);
    ASSERT_EQ(got.empty(), !got_bounded) << "case " << i;
    const auto scalar = pap::nc::deconvolve(f, g);
    ASSERT_EQ(got_bounded, scalar.has_value()) << "case " << i;
    if (!scalar) continue;
    ++bounded;
    ASSERT_TRUE(view_matches_curve(got, *scalar, i));
    const auto ref = pap::nc::reference::deconvolve(f, g);
    ASSERT_TRUE(ref.has_value()) << "case " << i;
    ASSERT_TRUE(view_matches_reference(got, *ref, i));
  }
  EXPECT_GT(bounded, kCases / 4);  // the suite must exercise both
}

// ---------------------------------------------------------------------------
// h_deviation_view / v_deviation_view: 3000 (alpha, beta) pairs
// ---------------------------------------------------------------------------

TEST(NcBatch, DeviationsAllMatchesScalarAndReference) {
  Rng rng(0xBA7C4003u);
  const int kCases = 3000;
  int bounded = 0;
  for (int i = 0; i < kCases; ++i) {
    const bool sub_ns = i % 3 == 0;
    const Curve alpha = random_concave(rng, sub_ns);
    const Curve beta = random_convex(rng, sub_ns);
    const auto h = pap::nc::h_deviation_view(alpha.view(), beta.view());
    const auto v = pap::nc::v_deviation_view(alpha.view(), beta.view());
    ASSERT_EQ(h, pap::nc::h_deviation(alpha, beta)) << "case " << i;
    ASSERT_EQ(v, pap::nc::v_deviation(alpha, beta)) << "case " << i;
    const auto h_ref = pap::nc::reference::h_deviation(alpha, beta);
    const auto v_ref = pap::nc::reference::v_deviation(alpha, beta);
    ASSERT_EQ(h.has_value(), h_ref.has_value()) << "case " << i;
    ASSERT_EQ(v.has_value(), v_ref.has_value()) << "case " << i;
    if (h) {
      ++bounded;
      ASSERT_NEAR(*h, *h_ref, 1e-6 * std::max(1.0, std::fabs(*h_ref)))
          << "case " << i;
    }
    if (v) {
      ASSERT_NEAR(*v, *v_ref, 1e-6 * std::max(1.0, std::fabs(*v_ref)))
          << "case " << i;
    }
  }
  EXPECT_GT(bounded, kCases / 4);
}

// ---------------------------------------------------------------------------
// Arena contract
// ---------------------------------------------------------------------------

TEST(NcBatch, ArenaResetBumpsEpochAndReusesStorage) {
  Arena arena;
  const std::uint64_t e0 = arena.epoch();
  double* p1 = arena.alloc<double>(128);
  ASSERT_NE(p1, nullptr);
  EXPECT_EQ(arena.bytes_in_use(), 128 * sizeof(double));
  const std::size_t reserved = arena.bytes_reserved();

  arena.reset();
  EXPECT_GT(arena.epoch(), e0);  // stale views are detectable by epoch
  EXPECT_EQ(arena.bytes_in_use(), 0u);
  EXPECT_EQ(arena.bytes_reserved(), reserved);  // reset frees nothing

  // A bump allocator rewound to the start hands back the same storage: the
  // whole point of the epoch contract is that old views silently alias it.
  double* p2 = arena.alloc<double>(128);
  EXPECT_EQ(p2, p1);

  arena.release();
  EXPECT_EQ(arena.bytes_reserved(), 0u);
  EXPECT_EQ(arena.bytes_in_use(), 0u);
}

TEST(NcBatch, ArenaGrowsAcrossBlocksWithoutInvalidatingEarlierAllocations) {
  Arena arena(1 << 8);  // tiny first block forces growth
  std::vector<double*> ptrs;
  for (int i = 0; i < 64; ++i) {
    double* p = arena.alloc<double>(97);
    for (int k = 0; k < 97; ++k) p[k] = i * 1000.0 + k;
    ptrs.push_back(p);
  }
  for (int i = 0; i < 64; ++i) {
    for (int k = 0; k < 97; ++k) {
      ASSERT_EQ(ptrs[i][k], i * 1000.0 + k) << "allocation " << i;
    }
  }
}

TEST(NcBatch, BatchOutputsAliasNeitherInputsNorEachOther) {
  // Inputs and outputs share one arena — the e2e analysis does exactly
  // this — so overlapping storage would silently corrupt results. Run every
  // kernel call first, then compare against the Curve API: any
  // cross-output write would surface as a late mismatch.
  Rng rng(0xBA7C4005u);
  Arena arena;
  std::vector<Curve> sa;
  std::vector<Curve> sb;
  std::vector<CurveView> a;
  std::vector<CurveView> b;
  const int kN = 64;
  for (int i = 0; i < kN; ++i) {
    sa.push_back(random_curve(rng, i % 3 == 0));
    sb.push_back(random_curve(rng, i % 3 == 0));
    a.push_back(copy_to(arena, sa.back()));
    b.push_back(copy_to(arena, sb.back()));
  }
  std::vector<CurveView> out;
  for (int i = 0; i < kN; ++i) {
    out.push_back(pap::nc::combine_view(arena, a[i], b[i], CombineOp::kMin));
  }

  // Used storage ranges [x, x + n) of all views must be pairwise disjoint.
  std::vector<std::pair<const double*, const double*>> spans;
  auto add_span = [&spans](CurveView v) {
    if (v.n == 0) return;
    spans.emplace_back(v.x, v.x + v.n);
    spans.emplace_back(v.y, v.y + v.n);
    spans.emplace_back(v.slope, v.slope + v.n);
  };
  for (int i = 0; i < kN; ++i) {
    add_span(a[i]);
    add_span(b[i]);
    add_span(out[i]);
  }
  std::sort(spans.begin(), spans.end());
  for (std::size_t i = 1; i < spans.size(); ++i) {
    ASSERT_LE(spans[i - 1].second, spans[i].first)
        << "overlapping arena spans";
  }

  // Late value check: every output still matches its Curve API result
  // after all other pairs were processed.
  for (int i = 0; i < kN; ++i) {
    const Curve scalar = pap::nc::min(sa[i], sb[i]);
    ASSERT_TRUE(view_matches_curve(out[i], scalar, i));
  }
}

TEST(NcBatch, ThreadLocalArenasAreIsolated) {
  // The sweep runner hands each worker thread its own thread_arena(); the
  // curves a worker builds must be unaffected by other workers hammering
  // theirs concurrently.
  const int kThreads = 4;
  const int kCasesPerThread = 200;
  std::vector<const Arena*> arena_addr(kThreads, nullptr);
  std::vector<int> mismatches(kThreads, 0);
  std::vector<std::thread> pool;
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([t, &arena_addr, &mismatches] {
      Arena& arena = pap::nc::thread_arena();
      arena_addr[t] = &arena;
      Rng rng(0xBA7C5000u + static_cast<std::uint64_t>(t));
      for (int i = 0; i < kCasesPerThread; ++i) {
        arena.reset();
        const Curve a = random_curve(rng, i % 3 == 0);
        const Curve b = random_curve(rng, i % 3 == 0);
        const CurveView av = copy_to(arena, a);
        const CurveView bv = copy_to(arena, b);
        const CurveView got =
            pap::nc::combine_view(arena, av, bv, CombineOp::kAdd);
        const Curve want = pap::nc::combine_pointwise(a, b, CombineOp::kAdd);
        if (!view_matches_curve(got, want, i)) ++mismatches[t];
      }
      pap::nc::thread_arena().release();
    });
  }
  for (auto& th : pool) th.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(mismatches[t], 0) << "thread " << t;
    for (int u = t + 1; u < kThreads; ++u) {
      EXPECT_NE(arena_addr[t], arena_addr[u])
          << "threads " << t << " and " << u << " shared an arena";
    }
  }
}

// ---------------------------------------------------------------------------
// Zero steady-state allocation: a warmed e2e_bounds_into decision runs
// entirely on the arena + reused output storage
// ---------------------------------------------------------------------------

TEST(NcBatch, E2eBoundsSteadyStateMakesNoHeapAllocations) {
#ifdef PAP_NO_ALLOC_COUNTING
  GTEST_SKIP() << "allocation counting disabled under sanitizers";
#else
  pap::core::PlatformModel m;
  m.noc.cols = 4;
  m.noc.rows = 4;
  pap::core::E2eAnalysis e(std::move(m));
  pap::noc::Mesh2D mesh(4, 4);
  std::vector<pap::core::AppRequirement> flows;
  for (int i = 0; i < 12; ++i) {
    pap::core::AppRequirement a;
    a.app = static_cast<pap::noc::AppId>(i + 1);
    a.name = "flow" + std::to_string(i);
    a.traffic = pap::nc::TokenBucket{
        1.0 + static_cast<double>(i % 3),
        0.0005 + 0.0001 * static_cast<double>(i % 4)};
    a.src = mesh.node(i % 4, (i / 4) % 4);
    a.dst = mesh.node(3 - i % 4, (i * 2) % 4);
    a.deadline = pap::Time::us(50);
    a.uses_dram = (i % 3 == 0);
    flows.push_back(std::move(a));
  }
  std::vector<std::optional<pap::Time>> bounds;

  // Warm-up: grows the thread arena to the decision's peak footprint and
  // brings `bounds` to capacity.
  e.e2e_bounds_into(flows, &bounds);
  e.e2e_bounds_into(flows, &bounds);
  for (const auto& b : bounds) ASSERT_TRUE(b.has_value());

  const std::uint64_t before = g_heap_allocs.load(std::memory_order_relaxed);
  for (int i = 0; i < 5; ++i) e.e2e_bounds_into(flows, &bounds);
  const std::uint64_t after = g_heap_allocs.load(std::memory_order_relaxed);
  EXPECT_EQ(after, before)
      << "a warmed e2e_bounds_into decision heap-allocated "
      << (after - before) / 5.0 << " times per call";

  // The bounds must still be the real analysis results.
  std::vector<std::optional<pap::Time>> scalar;
  e.e2e_bounds_into(flows, &scalar);
  ASSERT_EQ(bounds.size(), scalar.size());
  for (std::size_t i = 0; i < bounds.size(); ++i) {
    ASSERT_EQ(bounds[i].has_value(), scalar[i].has_value());
    if (bounds[i]) {
      EXPECT_EQ(*bounds[i], *scalar[i]);
    }
  }
#endif
}

}  // namespace
