// Shared microbenchmark definitions (google-benchmark): the paper claims the
// WCD bounding algorithm is "computationally inexpensive (milliseconds at
// most), hence could also be done online if required (e.g., for admission
// control)". These benches substantiate that claim for our implementation,
// plus the NC primitives, the DES kernel that everything runs on and one SoC
// simulation on top of it.
//
// Included by two binaries:
//  * micro_nc_ops — plain BENCHMARK_MAIN() CLI for interactive use;
//  * perf_report  — programmatic runner that writes BENCH_nc.json and
//    BENCH_sim.json for the perf-regression harness (tools/bench_compare.py).
//
// Every optimized kernel is benchmarked next to its retained naive
// implementation (nc::reference::*, WcdAnalysis::service_curve_reference):
// the optimized/reference ratio is machine-independent, which is what CI
// gates on — absolute nanoseconds from shared runners are only recorded for
// the trajectory.
#pragma once

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "common/units.hpp"
#include "core/e2e_analysis.hpp"
#include "dram/timing.hpp"
#include "dram/wcd.hpp"
#include "nc/bounds.hpp"
#include "nc/ops.hpp"
#include "nc/reference.hpp"
#include "noc/topology.hpp"
#include "platform/scenario.hpp"
#include "scenario/generate.hpp"
#include "scenario/run.hpp"
#include "sim/kernel.hpp"

namespace pap_bench {

using namespace pap;

// ---------------------------------------------------------------------------
// Curve fixtures: many-segment concave arrival / convex service pairs, where
// the complexity gap between the merge-walk kernels and the enumeration
// reference actually shows. 48 pieces each keeps the reference runnable.
// ---------------------------------------------------------------------------

inline nc::Curve many_segment_concave(int pieces) {
  std::vector<nc::Segment> segs;
  segs.reserve(static_cast<std::size_t>(pieces));
  double x = 0.0;
  double y = 4.0;  // burst
  for (int i = 0; i < pieces; ++i) {
    const double slope = 1.0 + (pieces - i) * 0.5;  // strictly decreasing
    segs.push_back(nc::Segment{x, y, slope});
    const double len = 1.0 + 0.25 * (i % 4);
    x += len;
    y += slope * len;
  }
  return nc::Curve{std::move(segs)};
}

inline nc::Curve many_segment_convex(int pieces) {
  std::vector<nc::Segment> segs;
  segs.reserve(static_cast<std::size_t>(pieces));
  double x = 0.0;
  double y = 0.0;
  for (int i = 0; i < pieces; ++i) {
    const double slope = 0.25 * i;  // non-decreasing from 0 (latency piece)
    segs.push_back(nc::Segment{x, y, slope});
    const double len = 1.0 + 0.5 * (i % 3);
    x += len;
    y += slope * len;
  }
  return nc::Curve{std::move(segs)};
}

constexpr int kCurvePieces = 48;

inline dram::ControllerParams bench_controller() {
  return dram::ControllerConfig{}
      .n_cap(16)
      .watermarks(55, 28)
      .n_wd(16)
      .build()
      .value();
}

// ---------------------------------------------------------------------------
// WCD analysis
// ---------------------------------------------------------------------------

inline void BM_WcdBoundsSingleRow(benchmark::State& state) {
  const auto t = dram::ddr3_1600();
  const auto c = bench_controller();
  for (auto _ : state) {
    auto b = dram::table2_row(t, c, 6.0, 13);
    benchmark::DoNotOptimize(b);
  }
}
BENCHMARK(BM_WcdBoundsSingleRow);

inline void BM_WcdServiceCurve(benchmark::State& state) {
  const auto t = dram::ddr3_1600();
  const auto c = bench_controller();
  dram::WcdAnalysis a(t, c, nc::TokenBucket::from_rate(Rate::gbps(5), 64, 8));
  const auto depth = static_cast<int>(state.range(0));
  for (auto _ : state) {
    auto curve = a.service_curve(depth);
    benchmark::DoNotOptimize(curve);
  }
}
BENCHMARK(BM_WcdServiceCurve)->Arg(8)->Arg(32)->Arg(128);

inline void BM_WcdServiceCurveReference(benchmark::State& state) {
  const auto t = dram::ddr3_1600();
  const auto c = bench_controller();
  dram::WcdAnalysis a(t, c, nc::TokenBucket::from_rate(Rate::gbps(5), 64, 8));
  const auto depth = static_cast<int>(state.range(0));
  for (auto _ : state) {
    auto curve = a.service_curve_reference(depth);
    benchmark::DoNotOptimize(curve);
  }
}
BENCHMARK(BM_WcdServiceCurveReference)->Arg(8)->Arg(32)->Arg(128);

// ---------------------------------------------------------------------------
// NC curve algebra: optimized vs reference
// ---------------------------------------------------------------------------

inline void BM_NcConvolveConvex(benchmark::State& state) {
  const auto b1 = nc::Curve::rate_latency(2.0, 3.0);
  const auto b2 = nc::Curve::rate_latency(1.5, 7.0);
  for (auto _ : state) {
    auto c = nc::convolve(b1, b2);
    benchmark::DoNotOptimize(c);
  }
}
BENCHMARK(BM_NcConvolveConvex);

inline void BM_NcCombine(benchmark::State& state) {
  const auto a = many_segment_concave(kCurvePieces);
  const auto b = nc::Curve::affine(30.0, 2.0);
  for (auto _ : state) {
    auto c = nc::min(a, b);
    benchmark::DoNotOptimize(c);
  }
}
BENCHMARK(BM_NcCombine);

inline void BM_NcCombineReference(benchmark::State& state) {
  const auto a = many_segment_concave(kCurvePieces);
  const auto b = nc::Curve::affine(30.0, 2.0);
  for (auto _ : state) {
    auto c = nc::reference::combine_pointwise(
        a, b, [](double u, double v) { return u < v ? u : v; });
    benchmark::DoNotOptimize(c);
  }
}
BENCHMARK(BM_NcCombineReference);

inline void BM_NcDeconvolve(benchmark::State& state) {
  const auto f = many_segment_concave(kCurvePieces);
  const auto g = many_segment_convex(kCurvePieces);
  for (auto _ : state) {
    auto c = nc::deconvolve(f, g);
    benchmark::DoNotOptimize(c);
  }
}
BENCHMARK(BM_NcDeconvolve);

inline void BM_NcDeconvolveReference(benchmark::State& state) {
  const auto f = many_segment_concave(kCurvePieces);
  const auto g = many_segment_convex(kCurvePieces);
  for (auto _ : state) {
    auto c = nc::reference::deconvolve(f, g);
    benchmark::DoNotOptimize(c);
  }
}
BENCHMARK(BM_NcDeconvolveReference);

inline void BM_NcHDeviation(benchmark::State& state) {
  const auto alpha = many_segment_concave(kCurvePieces);
  const auto beta = many_segment_convex(kCurvePieces);
  for (auto _ : state) {
    auto d = nc::h_deviation(alpha, beta);
    benchmark::DoNotOptimize(d);
  }
}
BENCHMARK(BM_NcHDeviation);

inline void BM_NcHDeviationReference(benchmark::State& state) {
  const auto alpha = many_segment_concave(kCurvePieces);
  const auto beta = many_segment_convex(kCurvePieces);
  for (auto _ : state) {
    auto d = nc::reference::h_deviation(alpha, beta);
    benchmark::DoNotOptimize(d);
  }
}
BENCHMARK(BM_NcHDeviationReference);

inline void BM_NcVDeviation(benchmark::State& state) {
  const auto alpha = many_segment_concave(kCurvePieces);
  const auto beta = many_segment_convex(kCurvePieces);
  for (auto _ : state) {
    auto d = nc::v_deviation(alpha, beta);
    benchmark::DoNotOptimize(d);
  }
}
BENCHMARK(BM_NcVDeviation);

inline void BM_NcVDeviationReference(benchmark::State& state) {
  const auto alpha = many_segment_concave(kCurvePieces);
  const auto beta = many_segment_convex(kCurvePieces);
  for (auto _ : state) {
    auto d = nc::reference::v_deviation(alpha, beta);
    benchmark::DoNotOptimize(d);
  }
}
BENCHMARK(BM_NcVDeviationReference);

inline void BM_NcDelayBound(benchmark::State& state) {
  const auto alpha = nc::Curve::affine(8.0, 0.5);
  const auto beta = nc::Curve::rate_latency(2.0, 10.0);
  for (auto _ : state) {
    auto d = nc::delay_bound(alpha, beta);
    benchmark::DoNotOptimize(d);
  }
}
BENCHMARK(BM_NcDelayBound);

inline void BM_NcResidualBlind(benchmark::State& state) {
  const auto beta = nc::Curve::rate_latency(4.0, 2.0);
  const auto cross = nc::Curve::affine(6.0, 1.0);
  for (auto _ : state) {
    auto r = nc::residual_blind(beta, cross);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_NcResidualBlind);

// ---------------------------------------------------------------------------
// End-to-end admission analysis: the one-pass arena path (e2e_bounds_into,
// shared fixpoint, zero steady-state allocation) against the flow-by-flow
// scalar form an unbatched admission controller would run.
// ---------------------------------------------------------------------------

inline std::vector<core::AppRequirement> bench_flows() {
  noc::Mesh2D mesh(4, 4);
  std::vector<core::AppRequirement> flows;
  flows.reserve(12);
  for (int i = 0; i < 12; ++i) {
    core::AppRequirement a;
    a.app = static_cast<noc::AppId>(i + 1);
    a.name = "bench" + std::to_string(i);
    a.traffic = nc::TokenBucket{1.0 + static_cast<double>(i % 3),
                                0.0005 + 0.0001 * static_cast<double>(i % 4)};
    a.src = mesh.node(i % 4, (i / 4) % 4);
    a.dst = mesh.node(3 - i % 4, (i * 2) % 4);
    a.deadline = Time::us(50);
    a.uses_dram = (i % 3 == 0);
    flows.push_back(std::move(a));
  }
  return flows;
}

inline void BM_E2eBoundsBatch(benchmark::State& state) {
  core::PlatformModel m;
  m.noc.cols = 4;
  m.noc.rows = 4;
  core::E2eAnalysis e(std::move(m));
  const auto flows = bench_flows();
  std::vector<std::optional<Time>> bounds;
  for (auto _ : state) {
    e.e2e_bounds_into(flows, &bounds);
    benchmark::DoNotOptimize(bounds.data());
  }
}
BENCHMARK(BM_E2eBoundsBatch);

inline void BM_E2eBoundsPerFlow(benchmark::State& state) {
  core::PlatformModel m;
  m.noc.cols = 4;
  m.noc.rows = 4;
  core::E2eAnalysis e(std::move(m));
  const auto flows = bench_flows();
  for (auto _ : state) {
    for (const auto& f : flows) {
      auto b = e.e2e_bound(f, flows);
      benchmark::DoNotOptimize(b);
    }
  }
}
BENCHMARK(BM_E2eBoundsPerFlow);

/// n flows in link-disjoint 2x2-router tiles of six (bench/admission_churn's
/// layout) on the smallest even square mesh that fits, every 12th flow on
/// DRAM at rates the controller sustains up to n = 10^4. `side` receives
/// the mesh edge.
inline std::vector<core::AppRequirement> tiled_flows(int n, int* side) {
  const int tiles = (n + 5) / 6;
  const int per_side =
      static_cast<int>(std::ceil(std::sqrt(static_cast<double>(tiles))));
  *side = 2 * per_side;
  noc::Mesh2D mesh(*side, *side);
  static constexpr int kRoutes[6][4] = {{0, 0, 1, 0}, {1, 0, 1, 1},
                                        {1, 1, 0, 1}, {0, 1, 0, 0},
                                        {0, 0, 1, 1}, {1, 1, 0, 0}};
  std::vector<core::AppRequirement> flows;
  flows.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    const int bx = 2 * ((i / 6) % per_side);
    const int by = 2 * ((i / 6) / per_side);
    const int* r = kRoutes[i % 6];
    core::AppRequirement a;
    a.app = static_cast<noc::AppId>(i + 1);
    a.name = "tiled" + std::to_string(i);
    a.uses_dram = i % 12 == 11;
    a.traffic =
        a.uses_dram
            ? nc::TokenBucket{0.5, 2e-8 * static_cast<double>(1 + i % 3)}
            : nc::TokenBucket{1.0 + i % 6, 0.001 + 0.0005 * (i % 6)};
    a.src = mesh.node(bx + r[0], by + r[1]);
    a.dst = mesh.node(bx + r[2], by + r[3]);
    a.deadline = Time::ms(100);
    flows.push_back(std::move(a));
  }
  return flows;
}

/// BM_E2eBoundsBatch as a curve over n: one e2e_bounds_into pass, the
/// per-decision cost of the batch admission engine at n resident flows.
inline void BM_E2eBoundsBatchScaled(benchmark::State& state) {
  int side = 0;
  const auto flows = tiled_flows(static_cast<int>(state.range(0)), &side);
  core::PlatformModel m;
  m.noc.cols = side;
  m.noc.rows = side;
  core::E2eAnalysis e(std::move(m));
  std::vector<std::optional<Time>> bounds;
  for (auto _ : state) {
    e.e2e_bounds_into(flows, &bounds);
    benchmark::DoNotOptimize(bounds.data());
  }
  state.counters["bounded"] = static_cast<double>(std::count_if(
      bounds.begin(), bounds.end(),
      [](const std::optional<Time>& b) { return b.has_value(); }));
}
BENCHMARK(BM_E2eBoundsBatchScaled)
    ->Name("BM_E2eBoundsBatch")
    ->Arg(1000)
    ->Arg(10000);

// ---------------------------------------------------------------------------
// DES kernel
// ---------------------------------------------------------------------------

inline void BM_KernelEventThroughput(benchmark::State& state) {
  for (auto _ : state) {
    sim::Kernel k;
    const int n = 10'000;
    int fired = 0;
    for (int i = 0; i < n; ++i) {
      k.schedule_at(Time::ns(i), [&fired] { ++fired; });
    }
    k.run();
    benchmark::DoNotOptimize(fired);
  }
}
BENCHMARK(BM_KernelEventThroughput);

inline void BM_KernelCancelHeavy(benchmark::State& state) {
  // Timeout pattern: every event gets a guard scheduled far in the future
  // that is cancelled before it can fire. Exercises O(log n) in-place
  // removal; the old tombstone scheme paid for every cancelled guard again
  // at pop time.
  for (auto _ : state) {
    sim::Kernel k;
    const int n = 10'000;
    int fired = 0;
    std::vector<sim::EventId> guards;
    guards.reserve(n);
    for (int i = 0; i < n; ++i) {
      k.schedule_at(Time::ns(i), [&fired] { ++fired; });
      guards.push_back(
          k.schedule_at(Time::ns(1'000'000 + i), [&fired] { ++fired; }));
    }
    for (auto id : guards) k.cancel(id);
    k.run();
    benchmark::DoNotOptimize(fired);
  }
}
BENCHMARK(BM_KernelCancelHeavy);

inline void BM_KernelSameTimestampBurst(benchmark::State& state) {
  // Many events per timestamp: run() drains each timestamp as one batch.
  for (auto _ : state) {
    sim::Kernel k;
    const int ticks = 100;
    const int per_tick = 100;
    int fired = 0;
    for (int t = 0; t < ticks; ++t) {
      for (int i = 0; i < per_tick; ++i) {
        k.schedule_at(Time::ns(t), [&fired] { ++fired; }, i % 3);
      }
    }
    k.run();
    benchmark::DoNotOptimize(fired);
  }
}
BENCHMARK(BM_KernelSameTimestampBurst);

// ---------------------------------------------------------------------------
// SoC simulator: one generated scenario end to end (L1 -> DSU L3 -> Memguard
// -> FR-FCFS DRAM on the event kernel). Besides the time per run, reports
// `ns_per_access`: host nanoseconds per simulated memory access, and
// `events_per_access`: kernel events per simulated memory access, a
// deterministic count.
// ---------------------------------------------------------------------------

inline void BM_SocGeneratedMember(benchmark::State& state) {
  const scenario::Scenario member =
      scenario::generate_scenario("hog_mix", 2021, 0).value();
  std::uint64_t accesses = 0;
  std::uint64_t events = 0;
  for (auto _ : state) {
    const platform::ScenarioResult r =
        platform::run_scenario(member.soc, member.name).value();
    accesses = r.rt_latency.count() + r.hog_accesses + r.trace_accesses;
    events = r.kernel_events;
    benchmark::DoNotOptimize(accesses);
  }
  // Seconds per (iteration x accesses), scaled so the counter reads in ns.
  state.counters["ns_per_access"] = benchmark::Counter(
      static_cast<double>(accesses) * 1e-9,
      benchmark::Counter::kIsIterationInvariantRate |
          benchmark::Counter::kInvert);
  state.counters["events_per_access"] =
      static_cast<double>(events) / static_cast<double>(accesses);
}
BENCHMARK(BM_SocGeneratedMember);

}  // namespace pap_bench
