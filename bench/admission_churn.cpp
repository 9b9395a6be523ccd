// admission_churn — acceptance gate and scaling bench for the incremental
// admission engine (src/admit) under sustained flow churn.
//
// Three sections:
//
//   1. Determinism sweep (exp::Runner): seeded churn histories run through
//      both engines as sweep points. Metrics are deterministic only —
//      decision counters plus an order-sensitive FNV hash over every grant
//      bound (ps) and rejection string — so the JSONL (written
//      without_timing) must be byte-identical for any --jobs value; the CI
//      churn job asserts that with `cmp`, and this binary asserts that the
//      incremental and batch points of each seed carry identical metrics.
//
//   2. Scaling gate: N resident flows laid out in disjoint 2x2-router
//      tiles (6 flows per tile) on a mesh sized to fit, then churned —
//      release + re-admit of a seeded flow — with per-decision latency
//      measured. Because tiles are disjoint, every decision's dirty
//      component is one tile: per-decision work must be O(1) in N, gated
//      here as mean-per-decision at 10^5 flows within 4x of 10^4 (no
//      O(flows) growth). The batch oracle's per-decision cost IS one full
//      e2e_bounds_into pass over the resident set, measured directly at
//      10^4 — and the same pass, run over the churned engine's canonical
//      flow order at 10^4 and at 10^5, must reproduce every cached bound
//      ps-exact. Releases and re-admits over 50 warm tiles are also timed
//      apart (medians, BM_AdmitRelease and BM_AdmitRequest at 10^5): a
//      release only unregisters its flow and the re-admit re-proves its
//      component, so a release must cost at most a quarter of a re-admit.
//
//   3. DRAM scaling: d DRAM users on link-disjoint one-hop paths, churned.
//      Every admission changes the DRAM population, so it re-derives all d
//      DRAM bounds (a release defers that to the next decision);
//      BM_AdmitChurnDram/{250,1000,2000,4000} record the per-decision
//      cost, which must grow about linearly in d, and the churned bounds
//      must match one batch pass ps-exact.
//
// Set PAP_CHURN_FULL=1 to extend the curve to 10^6 flows (minutes of fill;
// off by default and in CI). Results go to BENCH_admit.json in the
// pap-bench-v1 schema consumed by tools/bench_compare.py; the committed
// baseline lives at the repo root next to BENCH_nc.json / BENCH_serve.json.
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "admit/incremental.hpp"
#include "common/stats.hpp"
#include "core/admission.hpp"
#include "exp/runner.hpp"
#include "exp/sink.hpp"
#include "noc/topology.hpp"

using namespace pap;

namespace {

using Clock = std::chrono::steady_clock;

struct BenchRow {
  std::string name;
  double real_ns = 0.0;  // per decision
  long long iterations = 0;
};

int g_failures = 0;

void check(bool ok, const std::string& what) {
  std::printf("  [%s] %s\n", ok ? "PASS" : "FAIL", what.c_str());
  if (!ok) ++g_failures;
}

// ---------------------------------------------------------------------------
// Section 1: determinism sweep.

core::AppRequirement make_app(noc::AppId id, double burst, double rate,
                              noc::NodeId src, noc::NodeId dst, Time deadline,
                              bool dram = false) {
  core::AppRequirement a;
  a.app = id;
  a.name = "app" + std::to_string(id);
  a.traffic = nc::TokenBucket{burst, rate};
  a.src = src;
  a.dst = dst;
  a.deadline = deadline;
  a.uses_dram = dram;
  return a;
}

/// One seeded churn history against one engine; every metric is a pure
/// function of (seed, decisions) — identical for both engines by the
/// exactness contract, which the caller asserts.
exp::Result churn_point(const exp::Params& p) {
  const auto seed = static_cast<std::uint32_t>(p.get_int("seed"));
  const long decisions = p.get_int("decisions");
  const bool incremental = p.get_string("engine") == "incremental";

  core::PlatformModel m;
  m.noc.cols = 8;
  m.noc.rows = 8;
  core::AdmissionController ac(m, incremental
                                      ? core::AdmissionEngine::kIncremental
                                      : core::AdmissionEngine::kBatch);
  noc::Mesh2D mesh(8, 8);

  constexpr int kApps = 48;
  std::uint32_t lcg = seed * 2654435761u + 1u;
  auto next = [&lcg] { return lcg = lcg * 1664525u + 1013904223u; };
  std::uint64_t hash = 1469598103934665603ull;  // FNV-1a over outcomes
  auto mix = [&hash](std::uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      hash ^= (v >> (8 * b)) & 0xff;
      hash *= 1099511628211ull;
    }
  };
  std::uint64_t releases_ok = 0;
  for (long i = 0; i < decisions; ++i) {
    const auto app = static_cast<noc::AppId>(1 + next() % kApps);
    if (next() % 3 == 0) {
      const Status s = ac.release(app);
      if (s.is_ok()) ++releases_ok;
      mix(s.is_ok() ? 1 : 2);
    } else {
      const double rate = 0.002 + 0.002 * static_cast<double>(next() % 12);
      const double burst = 1.0 + static_cast<double>(next() % 6);
      const auto src = mesh.node(static_cast<int>(next() % 8),
                                 static_cast<int>(next() % 8));
      const auto dst = mesh.node(static_cast<int>(next() % 8),
                                 static_cast<int>(next() % 8));
      const Time deadline = Time::from_ns(
          600.0 + 200.0 * static_cast<double>(next() % 8));
      const bool dram = next() % 5 == 0;
      const auto g = ac.request(
          make_app(app, burst, rate, src, dst, deadline, dram));
      if (g) {
        mix(3);
        mix(static_cast<std::uint64_t>(g.value().e2e_bound.picos()));
      } else {
        mix(4);
        for (char c : g.error_message()) {
          mix(static_cast<std::uint64_t>(static_cast<unsigned char>(c)));
        }
      }
    }
  }

  exp::Result out("churn");
  out.set("admissions", static_cast<std::int64_t>(ac.admissions()));
  out.set("rejections", static_cast<std::int64_t>(ac.rejections()));
  out.set("releases", static_cast<std::int64_t>(releases_ok));
  out.set("live", static_cast<std::int64_t>(ac.size()));
  out.set("outcome_hash", static_cast<std::int64_t>(hash));
  return out;
}

bool run_determinism_sweep(const exp::CliOptions& cli) {
  exp::Experiment experiment{"admission_churn", churn_point};
  const long decisions = cli.smoke ? 400 : 1200;
  const auto sweep = exp::SweepBuilder{}
                         .axis("seed", {std::int64_t{11}, std::int64_t{23},
                                        std::int64_t{47}})
                         .axis("engine", {std::string("incremental"),
                                          std::string("batch")})
                         .axis("decisions", {std::int64_t{decisions}})
                         .build()
                         .value();
  exp::CsvSink csv(cli.out_dir + "/admission_churn.csv");
  exp::JsonlSink jsonl(cli.out_dir + "/admission_churn.jsonl");
  jsonl.without_timing();
  exp::Runner runner(exp::to_runner_options(cli));
  runner.add_sink(&csv).add_sink(&jsonl);
  const auto summary = runner.run(experiment, sweep);

  // Points alternate (seed, incremental), (seed, batch) in submission
  // order; each engine pair must carry identical deterministic metrics.
  bool engines_identical = true;
  for (std::size_t i = 0; i + 1 < summary.points.size(); i += 2) {
    if (!(summary.result(i) == summary.result(i + 1))) {
      engines_identical = false;
      std::printf("  seed pair at point %zu diverged between engines\n", i);
    }
  }
  check(engines_identical,
        "incremental and batch sweep points metric-identical per seed");
  std::printf("%s\n", summary.timing_summary().c_str());
  return engines_identical;
}

// ---------------------------------------------------------------------------
// Section 2: scaling gate on disjoint tiles.

/// Flows of tile t on a mesh of `side` routers: 6 flows between the four
/// routers of the 2x2 block at (2*(t % tiles_per_side), 2*(t /
/// tiles_per_side)). XY routing never leaves the block, so tiles are
/// link-disjoint and every churn decision's dirty component lies in one
/// tile.
struct TileLayout {
  int tiles = 0;
  int tiles_per_side = 0;
  int side = 0;  // routers per mesh edge
};

TileLayout layout_for(long nflows) {
  TileLayout l;
  l.tiles = static_cast<int>((nflows + 5) / 6);
  l.tiles_per_side =
      static_cast<int>(std::ceil(std::sqrt(static_cast<double>(l.tiles))));
  l.side = 2 * l.tiles_per_side;
  return l;
}

core::AppRequirement tile_flow(const noc::Mesh2D& mesh, const TileLayout& l,
                               int tile, int f) {
  const int bx = 2 * (tile % l.tiles_per_side);
  const int by = 2 * (tile / l.tiles_per_side);
  // Six routes over the block's four routers. Routes 0, 1, 4 share links
  // and so do 2, 3, 5: two components of three flows (not six independent
  // flows), and nothing shared outside the block.
  static constexpr int kRoutes[6][4] = {{0, 0, 1, 0}, {1, 0, 1, 1},
                                        {1, 1, 0, 1}, {0, 1, 0, 0},
                                        {0, 0, 1, 1}, {1, 1, 0, 0}};
  const auto id = static_cast<noc::AppId>(1 + tile * 6 + f);
  return make_app(id, 1.0 + f, 0.001 + 0.0005 * f,
                  mesh.node(bx + kRoutes[f][0], by + kRoutes[f][1]),
                  mesh.node(bx + kRoutes[f][2], by + kRoutes[f][3]),
                  Time::us(5));
}

struct ScaleResult {
  double fill_ns_per_flow = 0.0;
  double churn_ns_per_decision = 0.0;
  double release_ns = 0.0;  // median release on a warm tile
  double request_ns = 0.0;  // median re-admit on a warm tile
  long long churn_decisions = 0;
  long long resident = 0;
};

/// Fill `nflows` (rounded up to whole tiles), then churn: release +
/// re-admit a seeded flow, 2 decisions per round. With `oracle_check` the
/// post-churn cached bounds are re-derived by one batch e2e_bounds_into
/// pass over the engine's current flow order and must match ps-exact —
/// the full exactness contract, paid once (a batch pass takes a few ms at
/// 10^4 flows and tens of ms at 10^5).
bool scale_point(long nflows, long rounds, bool oracle_check,
                 ScaleResult* out) {
  const TileLayout l = layout_for(nflows);
  core::PlatformModel m;
  m.noc.cols = l.side;
  m.noc.rows = l.side;
  admit::IncrementalAdmission engine(m);
  noc::Mesh2D mesh(l.side, l.side);

  const long long resident = static_cast<long long>(l.tiles) * 6;
  const auto fill0 = Clock::now();
  for (int t = 0; t < l.tiles; ++t) {
    for (int f = 0; f < 6; ++f) {
      const auto g = engine.request(tile_flow(mesh, l, t, f));
      if (!g) {
        std::printf("  fill failed at tile %d flow %d: %s\n", t, f,
                    g.error_message().c_str());
        return false;
      }
    }
  }
  out->fill_ns_per_flow =
      std::chrono::duration<double, std::nano>(Clock::now() - fill0).count() /
      static_cast<double>(resident);
  out->resident = resident;

  std::uint32_t lcg = 0xc0ffee11u;
  auto next = [&lcg] { return lcg = lcg * 1664525u + 1013904223u; };
  const auto churn0 = Clock::now();
  for (long r = 0; r < rounds; ++r) {
    const int t = static_cast<int>(next() % static_cast<std::uint32_t>(l.tiles));
    const int f = static_cast<int>(next() % 6);
    const auto req = tile_flow(mesh, l, t, f);
    if (!engine.release(req.app).is_ok()) return false;
    if (!engine.request(req)) return false;
  }
  out->churn_decisions = 2 * rounds;
  out->churn_ns_per_decision =
      std::chrono::duration<double, std::nano>(Clock::now() - churn0).count() /
      static_cast<double>(out->churn_decisions);

  // Releases and re-admits timed apart, over the first 50 tiles only. With
  // those tiles in cache this measures each call's own work; on a cold tile
  // the misses fall on whichever call touches it first, the release.
  LatencyHistogram release_ps;
  LatencyHistogram request_ps;
  const auto since = [](Clock::time_point t0, Clock::time_point t1) {
    return Time::ps(
        std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count() *
        1000);
  };
  const auto warm_tiles = static_cast<std::uint32_t>(std::min(l.tiles, 50));
  for (long r = 0; r < rounds; ++r) {
    const int t = static_cast<int>(next() % warm_tiles);
    const int f = static_cast<int>(next() % 6);
    const auto req = tile_flow(mesh, l, t, f);
    const auto t0 = Clock::now();
    if (!engine.release(req.app).is_ok()) return false;
    const auto t1 = Clock::now();
    if (!engine.request(req)) return false;
    release_ps.add(since(t0, t1));
    request_ps.add(since(t1, Clock::now()));
  }
  out->release_ns =
      static_cast<double>(release_ps.percentile(50).picos()) / 1e3;
  out->request_ns =
      static_cast<double>(request_ps.percentile(50).picos()) / 1e3;

  const auto stats = engine.stats();
  std::printf("  n=%lld: fill %.0f ns/flow, churn %.0f ns/decision "
              "(%lld decisions, last dirty %llu flows / %llu links); "
              "warm tiles: release %.0f ns, re-admit %.0f ns (medians)\n",
              out->resident, out->fill_ns_per_flow,
              out->churn_ns_per_decision, out->churn_decisions,
              static_cast<unsigned long long>(stats.last_dirty_flows),
              static_cast<unsigned long long>(stats.last_dirty_links),
              out->release_ns, out->request_ns);
  check(stats.diverged_flows == 0, "no diverged components under churn");

  if (oracle_check) {
    // The exactness contract after arbitrary churn: one batch pass over
    // the engine's current flows (its canonical admission order) must
    // reproduce every cached bound bit for bit.
    const auto flows = engine.flows();
    std::vector<std::optional<Time>> oracle;
    engine.analysis().e2e_bounds_into(flows, &oracle);
    bool exact = true;
    for (std::size_t i = 0; i < flows.size(); ++i) {
      const auto cached = engine.current_bound(flows[i].app);
      if (!cached.has_value() || !oracle[i].has_value() ||
          cached->picos() != oracle[i]->picos()) {
        exact = false;
      }
    }
    check(exact, "post-churn cached bounds match the batch oracle ps-exact "
                 "(n=" + std::to_string(out->resident) + ")");
  }
  return true;
}

/// DRAM-coupled churn: `ndram` DRAM users, each on its own one-hop path
/// between two adjacent routers, so the flows share no NoC link and every
/// decision's work is the DRAM refresh — every resident DRAM bound is
/// re-derived against the changed population. Users come in three (b, r)
/// contract classes at a tenth of the rates of perfbench's admit_churn
/// DRAM users. The controller saturates near 560 users at perfbench's
/// rates and near 4100 at these, so d = 4000 runs close to saturation.
/// Fill, then churn (release + re-admit a seeded flow, 2 decisions per
/// round), then check every cached bound against one batch pass ps-exact.
bool dram_scale_point(long ndram, long rounds, ScaleResult* out) {
  int side = 2;
  while ((side / 2) * side < ndram) side += 2;
  core::PlatformModel m;
  m.noc.cols = side;
  m.noc.rows = side;
  admit::IncrementalAdmission engine(m);
  noc::Mesh2D mesh(side, side);
  const int per_row = side / 2;
  const auto flow = [&](long k) {
    const int x = 2 * static_cast<int>(k % per_row);
    const int y = static_cast<int>(k / per_row);
    return make_app(static_cast<noc::AppId>(1 + k), 1.0,
                    1e-7 * static_cast<double>(1 + k % 3), mesh.node(x, y),
                    mesh.node(x + 1, y), Time::ms(100), /*dram=*/true);
  };

  const auto fill0 = Clock::now();
  for (long k = 0; k < ndram; ++k) {
    const auto g = engine.request(flow(k));
    if (!g) {
      std::printf("  dram fill failed at flow %ld: %s\n", k,
                  g.error_message().c_str());
      return false;
    }
  }
  out->fill_ns_per_flow =
      std::chrono::duration<double, std::nano>(Clock::now() - fill0).count() /
      static_cast<double>(ndram);
  out->resident = ndram;

  std::uint32_t lcg = 0xd1a2b3c4u;
  auto next = [&lcg] { return lcg = lcg * 1664525u + 1013904223u; };
  const auto churn0 = Clock::now();
  for (long r = 0; r < rounds; ++r) {
    const auto req = flow(static_cast<long>(next() % ndram));
    if (!engine.release(req.app).is_ok()) return false;
    if (!engine.request(req)) return false;
  }
  out->churn_decisions = 2 * rounds;
  out->churn_ns_per_decision =
      std::chrono::duration<double, std::nano>(Clock::now() - churn0).count() /
      static_cast<double>(out->churn_decisions);
  std::printf("  d=%ld: fill %.0f ns/flow, churn %.0f ns/decision "
              "(%lld decisions)\n",
              ndram, out->fill_ns_per_flow, out->churn_ns_per_decision,
              out->churn_decisions);

  const auto flows = engine.flows();
  std::vector<std::optional<Time>> oracle;
  engine.analysis().e2e_bounds_into(flows, &oracle);
  bool exact = flows.size() == static_cast<std::size_t>(ndram);
  for (std::size_t i = 0; exact && i < flows.size(); ++i) {
    const auto cached = engine.current_bound(flows[i].app);
    exact = cached.has_value() && oracle[i].has_value() &&
            cached->picos() == oracle[i]->picos();
  }
  check(exact, "post-churn DRAM bounds match the batch oracle ps-exact (d=" +
                   std::to_string(ndram) + ")");
  return true;
}

/// The batch oracle's per-decision cost: one full e2e_bounds_into pass
/// over the same resident set (that is what every kBatch decision runs).
double batch_decision_ns(long nflows, int passes) {
  const TileLayout l = layout_for(nflows);
  core::PlatformModel m;
  m.noc.cols = l.side;
  m.noc.rows = l.side;
  core::E2eAnalysis analysis(m);
  noc::Mesh2D mesh(l.side, l.side);
  std::vector<core::AppRequirement> flows;
  flows.reserve(static_cast<std::size_t>(l.tiles) * 6);
  for (int t = 0; t < l.tiles; ++t) {
    for (int f = 0; f < 6; ++f) flows.push_back(tile_flow(mesh, l, t, f));
  }
  std::vector<std::optional<Time>> bounds;
  double total_ns = 0.0;
  for (int p = 0; p < passes; ++p) {
    const auto t0 = Clock::now();
    analysis.e2e_bounds_into(flows, &bounds);
    total_ns +=
        std::chrono::duration<double, std::nano>(Clock::now() - t0).count();
  }
  std::size_t proven = 0;
  for (const auto& b : bounds) proven += b.has_value() ? 1 : 0;
  check(proven == flows.size(), "batch oracle proves every resident flow");
  return total_ns / static_cast<double>(passes);
}

bool write_report(const std::string& path, const std::vector<BenchRow>& rows) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) {
    std::fprintf(stderr, "admission_churn: cannot write %s\n", path.c_str());
    return false;
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"schema\": \"pap-bench-v1\",\n");
  std::fprintf(f, "  \"suite\": \"admit\",\n");
  std::fprintf(f, "  \"build_type\": \"%s\",\n", PAP_BUILD_TYPE);
  std::fprintf(f, "  \"benchmarks\": [\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const auto& r = rows[i];
    std::fprintf(f,
                 "    {\"name\": \"%s\", \"real_ns\": %.6g, "
                 "\"cpu_ns\": %.6g, \"iterations\": %lld}%s\n",
                 r.name.c_str(), r.real_ns, r.real_ns, r.iterations,
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n");
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::printf("admission_churn: wrote %s\n", path.c_str());
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  const auto cli = exp::parse_cli(argc, argv);

  std::printf("== churn determinism sweep (both engines) ==\n");
  run_determinism_sweep(cli);

  std::printf("== scaling: disjoint-tile churn ==\n");
  std::vector<BenchRow> rows;
  const long rounds = cli.smoke ? 300 : 1000;
  ScaleResult r10k;
  ScaleResult r100k;
  if (!scale_point(10000, rounds, /*oracle_check=*/true, &r10k)) ++g_failures;
  if (!scale_point(100000, rounds, /*oracle_check=*/true, &r100k)) {
    ++g_failures;
  }
  rows.push_back(BenchRow{"BM_AdmitChurnIncremental/10000",
                          r10k.churn_ns_per_decision, r10k.churn_decisions});
  rows.push_back(BenchRow{"BM_AdmitChurnIncremental/100000",
                          r100k.churn_ns_per_decision, r100k.churn_decisions});
  rows.push_back(BenchRow{"BM_AdmitRelease/100000", r100k.release_ns,
                          rounds});
  rows.push_back(BenchRow{"BM_AdmitRequest/100000", r100k.request_ns,
                          rounds});
  rows.push_back(BenchRow{"BM_AdmitFill/100000", r100k.fill_ns_per_flow,
                          r100k.resident});
  if (std::getenv("PAP_CHURN_FULL") != nullptr) {
    ScaleResult r1m;
    if (!scale_point(1000000, rounds, /*oracle_check=*/false, &r1m)) {
      ++g_failures;
    }
    rows.push_back(BenchRow{"BM_AdmitChurnIncremental/1000000",
                            r1m.churn_ns_per_decision, r1m.churn_decisions});
  }

  // The no-O(flows) gate: 10x the resident flows must not scale the
  // per-decision cost. 4x headroom absorbs cache effects of the larger
  // arrays — growth is allowed to be logarithmic-ish, not linear.
  const double growth =
      r10k.churn_ns_per_decision > 0.0
          ? r100k.churn_ns_per_decision / r10k.churn_ns_per_decision
          : 1e9;
  std::printf("per-decision growth 10^4 -> 10^5: %.2fx\n", growth);
  check(growth < 4.0, "per-decision latency flat in resident flows (< 4x)");
  // A release only unregisters its flow; the re-admit re-proves its component.
  check(r100k.release_ns <= 0.25 * r100k.request_ns,
        "a release costs at most a quarter of a re-admit (warm tiles, 10^5)");

  std::printf("== scaling: DRAM-coupled churn ==\n");
  double dram_ns_1000 = 0.0;
  double dram_ns_4000 = 0.0;
  for (const long ndram : {250L, 1000L, 2000L, 4000L}) {
    ScaleResult rd;
    const long dram_rounds = ndram == 250 ? (cli.smoke ? 50 : 200)
                                          : (cli.smoke ? 10 : 50);
    if (!dram_scale_point(ndram, dram_rounds, &rd)) ++g_failures;
    rows.push_back(BenchRow{"BM_AdmitChurnDram/" + std::to_string(ndram),
                            rd.churn_ns_per_decision, rd.churn_decisions});
    if (ndram == 1000) dram_ns_1000 = rd.churn_ns_per_decision;
    if (ndram == 4000) dram_ns_4000 = rd.churn_ns_per_decision;
  }
  // Linear in d: 4x the users may cost 4x per decision, plus headroom for
  // cache effects; a quadratic term would show as ~16x.
  const double dram_growth =
      dram_ns_1000 > 0.0 ? dram_ns_4000 / dram_ns_1000 : 1e9;
  std::printf("per-decision growth d=1000 -> 4000: %.2fx\n", dram_growth);
  check(dram_growth < 8.0, "DRAM decision cost about linear in d (< 8x)");

  std::printf("== batch oracle per-decision cost ==\n");
  const double batch_ns = batch_decision_ns(10000, cli.smoke ? 3 : 5);
  std::printf("  batch decision at n=10000: %.0f ns\n", batch_ns);
  rows.push_back(BenchRow{"BM_AdmitChurnBatch/10000", batch_ns,
                          cli.smoke ? 3 : 5});
  check(batch_ns > r10k.churn_ns_per_decision,
        "incremental beats one batch re-proof at 10^4 flows");

  if (!write_report(cli.out_dir + "/BENCH_admit.json", rows)) return 1;
  if (g_failures > 0) {
    std::printf("admission_churn: %d check(s) FAILED\n", g_failures);
    return 1;
  }
  std::printf("admission_churn: all checks passed\n");
  return 0;
}
