// Arena/batch NC engine tests (nc/arena.hpp, nc/batch.hpp).
//
// Two layers of defence:
//  * seeded property tests (>10k cases across the suite) pin the batched
//    entry points (combine_all / deconvolve_all / deviations_all) against
//    the per-call Curve API — a copy-in/copy-out adapter over the same
//    kernels, so the two must agree at every breakpoint (asserted to 1e-9,
//    in practice bitwise) — and against the retained nc::reference oracles
//    at the looser tolerance the property suite uses (the references keep
//    the old finite-difference probes);
//  * arena-contract tests: epoch bump on reset, storage reuse without fresh
//    blocks, no aliasing between batch outputs and inputs, and per-thread
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
using pap::nc::CurveBatch;
using pap::nc::CurveView;
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
  std::vector<double> xs;
  for (const auto& s : a.segments()) xs.push_back(s.x);
  for (const auto& s : b.segments()) xs.push_back(s.x);
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

/// Batch entry point vs the per-call Curve API: both run the same kernel,
/// so segment counts must match and every breakpoint coordinate must agree
/// to 1e-9 (in practice: bitwise).
::testing::AssertionResult view_matches_scalar(CurveView got,
                                               const Curve& want,
                                               int case_idx) {
  if (got.n != want.segments().size()) {
    return ::testing::AssertionFailure()
           << "case " << case_idx << ": segment count " << got.n << " vs "
           << want.segments().size() << "\n  want: " << want.to_string();
  }
  for (std::uint32_t i = 0; i < got.n; ++i) {
    const Segment& w = want.segments()[i];
    const double scale =
        std::max(1.0, std::max(std::fabs(w.x), std::fabs(w.y)));
    if (std::fabs(got.x[i] - w.x) > 1e-9 * scale ||
        std::fabs(got.y[i] - w.y) > 1e-9 * scale ||
        std::fabs(got.slope[i] - w.slope) > 1e-9 * scale) {
      return ::testing::AssertionFailure()
             << "case " << case_idx << ": segment " << i << " is ("
             << got.x[i] << ", " << got.y[i] << ", " << got.slope[i]
             << "), want (" << w.x << ", " << w.y << ", " << w.slope << ")";
    }
  }
  return ::testing::AssertionSuccess();
}

/// Batch vs the retained naive oracle, at the tolerance the property
/// suite uses (the reference keeps the old finite-difference slope probes).
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

// ---------------------------------------------------------------------------
// combine_all: 1500 random pairs x 3 ops, processed in batch chunks
// (4500 combine cases)
// ---------------------------------------------------------------------------

TEST(NcBatch, CombineAllMatchesScalarAndReference) {
  Rng rng(0xBA7C4001u);
  const int kChunks = 15;
  const int kChunk = 100;
  Arena inputs;
  Arena arena;
  CurveBatch a(&inputs);
  CurveBatch b(&inputs);
  CurveBatch out;
  int case_idx = 0;
  for (int chunk = 0; chunk < kChunks; ++chunk) {
    std::vector<Curve> sa;
    std::vector<Curve> sb;
    inputs.reset();
    a.clear();
    b.clear();
    for (int i = 0; i < kChunk; ++i) {
      const bool sub_ns = (case_idx + i) % 3 == 0;
      sa.push_back(random_curve(rng, sub_ns));
      sb.push_back(random_curve(rng, sub_ns));
      a.push_back(sa.back());
      b.push_back(sb.back());
    }
    const struct {
      CombineOp op;
      double (*fn)(double, double);
    } kOps[] = {{CombineOp::kMin, min_of},
                {CombineOp::kMax, max_of},
                {CombineOp::kAdd, sum_of}};
    for (const auto& o : kOps) {
      arena.reset();
      pap::nc::combine_all(arena, a, b, o.op, &out);
      ASSERT_EQ(out.size(), static_cast<std::size_t>(kChunk));
      for (int i = 0; i < kChunk; ++i) {
        const Curve scalar = pap::nc::combine_pointwise(sa[i], sb[i], o.op);
        ASSERT_TRUE(view_matches_scalar(out[i], scalar, case_idx + i));
        const Curve ref =
            pap::nc::reference::combine_pointwise(sa[i], sb[i], o.fn);
        ASSERT_TRUE(view_matches_reference(out[i], ref, case_idx + i));
      }
    }
    case_idx += kChunk;
  }
}

// ---------------------------------------------------------------------------
// deconvolve_all: 3000 concave/convex pairs in batch chunks
// ---------------------------------------------------------------------------

TEST(NcBatch, DeconvolveAllMatchesScalarAndReference) {
  Rng rng(0xBA7C4002u);
  const int kChunks = 30;
  const int kChunk = 100;
  Arena inputs;
  Arena arena;
  CurveBatch f(&inputs);
  CurveBatch g(&inputs);
  CurveBatch out;
  int case_idx = 0;
  int bounded = 0;
  for (int chunk = 0; chunk < kChunks; ++chunk) {
    std::vector<Curve> sf;
    std::vector<Curve> sg;
    inputs.reset();
    f.clear();
    g.clear();
    for (int i = 0; i < kChunk; ++i) {
      const bool sub_ns = (case_idx + i) % 3 == 0;
      sf.push_back(random_concave(rng, sub_ns));
      sg.push_back(random_convex(rng, sub_ns));
      f.push_back(sf.back());
      g.push_back(sg.back());
    }
    arena.reset();
    const std::size_t got_bounded = pap::nc::deconvolve_all(arena, f, g, &out);
    ASSERT_EQ(out.size(), static_cast<std::size_t>(kChunk));
    std::size_t want_bounded = 0;
    for (int i = 0; i < kChunk; ++i) {
      const auto scalar = pap::nc::deconvolve(sf[i], sg[i]);
      ASSERT_EQ(out[i].empty(), !scalar.has_value()) << "case " << case_idx + i;
      if (!scalar) continue;
      ++want_bounded;
      ++bounded;
      ASSERT_TRUE(view_matches_scalar(out[i], *scalar, case_idx + i));
      const auto ref = pap::nc::reference::deconvolve(sf[i], sg[i]);
      ASSERT_TRUE(ref.has_value()) << "case " << case_idx + i;
      ASSERT_TRUE(view_matches_reference(out[i], *ref, case_idx + i));
    }
    ASSERT_EQ(got_bounded, want_bounded);
    case_idx += kChunk;
  }
  EXPECT_GT(bounded, (kChunks * kChunk) / 4);  // the suite must exercise both
}

// ---------------------------------------------------------------------------
// deviations_all: 3000 (alpha, beta) pairs
// ---------------------------------------------------------------------------

TEST(NcBatch, DeviationsAllMatchesScalarAndReference) {
  Rng rng(0xBA7C4003u);
  const int kChunks = 30;
  const int kChunk = 100;
  Arena inputs;
  CurveBatch alpha(&inputs);
  CurveBatch beta(&inputs);
  std::vector<pap::nc::Deviations> devs;
  int case_idx = 0;
  int bounded = 0;
  for (int chunk = 0; chunk < kChunks; ++chunk) {
    std::vector<Curve> sa;
    std::vector<Curve> sb;
    inputs.reset();
    alpha.clear();
    beta.clear();
    for (int i = 0; i < kChunk; ++i) {
      const bool sub_ns = (case_idx + i) % 3 == 0;
      sa.push_back(random_concave(rng, sub_ns));
      sb.push_back(random_convex(rng, sub_ns));
      alpha.push_back(sa.back());
      beta.push_back(sb.back());
    }
    pap::nc::deviations_all(alpha, beta, &devs);
    ASSERT_EQ(devs.size(), static_cast<std::size_t>(kChunk));
    for (int i = 0; i < kChunk; ++i) {
      const auto h = pap::nc::h_deviation(sa[i], sb[i]);
      const auto v = pap::nc::v_deviation(sa[i], sb[i]);
      ASSERT_EQ(devs[i].h_bounded, h.has_value()) << "case " << case_idx + i;
      ASSERT_EQ(devs[i].v_bounded, v.has_value()) << "case " << case_idx + i;
      if (h) {
        ++bounded;
        const double tol = 1e-9 * std::max(1.0, std::fabs(*h));
        ASSERT_NEAR(devs[i].h, *h, tol) << "case " << case_idx + i;
        const auto ref = pap::nc::reference::h_deviation(sa[i], sb[i]);
        ASSERT_TRUE(ref.has_value()) << "case " << case_idx + i;
        ASSERT_NEAR(devs[i].h, *ref,
                    1e-6 * std::max(1.0, std::fabs(*ref)))
            << "case " << case_idx + i;
      }
      if (v) {
        const double tol = 1e-9 * std::max(1.0, std::fabs(*v));
        ASSERT_NEAR(devs[i].v, *v, tol) << "case " << case_idx + i;
        const auto ref = pap::nc::reference::v_deviation(sa[i], sb[i]);
        ASSERT_TRUE(ref.has_value()) << "case " << case_idx + i;
        ASSERT_NEAR(devs[i].v, *ref,
                    1e-6 * std::max(1.0, std::fabs(*ref)))
            << "case " << case_idx + i;
      }
    }
    case_idx += kChunk;
  }
  EXPECT_GT(bounded, (kChunks * kChunk) / 4);
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
  // this — so overlapping storage would silently corrupt results. Compute
  // scalar expectations first, run the whole batch, then compare: any
  // cross-output write would surface as a late mismatch.
  Rng rng(0xBA7C4005u);
  Arena arena;
  CurveBatch a(&arena);
  CurveBatch b(&arena);
  CurveBatch out;
  std::vector<Curve> sa;
  std::vector<Curve> sb;
  const int kN = 64;
  for (int i = 0; i < kN; ++i) {
    sa.push_back(random_curve(rng, i % 3 == 0));
    sb.push_back(random_curve(rng, i % 3 == 0));
    a.push_back(sa.back());
    b.push_back(sb.back());
  }
  pap::nc::combine_all(arena, a, b, CombineOp::kMin, &out);
  ASSERT_EQ(out.size(), static_cast<std::size_t>(kN));

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

  // Late value check: every output still matches its scalar expectation
  // after all other pairs were processed.
  for (int i = 0; i < kN; ++i) {
    const Curve scalar = pap::nc::min(sa[i], sb[i]);
    ASSERT_TRUE(view_matches_scalar(out[i], scalar, i));
  }
}

TEST(NcBatch, ThreadLocalArenasAreIsolated) {
  // The sweep runner hands each worker thread its own thread_arena(); the
  // batches a worker builds must be unaffected by other workers hammering
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
        const CurveView av = pap::nc::to_view(arena, a);
        const CurveView bv = pap::nc::to_view(arena, b);
        const CurveView got =
            pap::nc::combine_view(arena, av, bv, CombineOp::kAdd);
        const Curve want = pap::nc::combine_pointwise(a, b, CombineOp::kAdd);
        if (!view_matches_scalar(got, want, i)) ++mismatches[t];
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

std::vector<pap::core::AppRequirement> e2e_flows() {
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
  return flows;
}

TEST(NcBatch, E2eBoundsSteadyStateMakesNoHeapAllocations) {
#ifdef PAP_NO_ALLOC_COUNTING
  GTEST_SKIP() << "allocation counting disabled under sanitizers";
#else
  pap::core::PlatformModel m;
  m.noc.cols = 4;
  m.noc.rows = 4;
  pap::core::E2eAnalysis e(std::move(m));
  const auto flows = e2e_flows();
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
    if (bounds[i]) EXPECT_EQ(*bounds[i], *scalar[i]);
  }
#endif
}

}  // namespace
