// Incremental-vs-batch equivalence: the dirty-component engine must be
// decision-identical and bound-ps-exact against the batch oracle under
// seeded admit/release churn — same grants, same rejection strings, same
// cached bounds (docs/admission.md). The lockstep harness drives both
// engines through >10k decisions across mesh sizes, saturation regimes,
// the alternate-route retry path and DRAM-coupled mixes.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "admit/incremental.hpp"
#include "core/admission.hpp"
#include "nc/batch.hpp"

namespace pap {
namespace {

core::PlatformModel model(int cols, int rows) {
  core::PlatformModel m;
  m.noc.cols = cols;
  m.noc.rows = rows;
  return m;
}

core::AppRequirement app(noc::AppId id, double burst, double rate,
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

struct ChurnConfig {
  int cols = 4;
  int rows = 4;
  int napps = 24;
  int decisions = 1000;
  double burst_lo = 1.0, burst_hi = 4.0;
  double rate_lo = 0.001, rate_hi = 0.03;
  double dram_fraction = 0.0;
  double deadline_lo_us = 0.5, deadline_hi_us = 100.0;
  std::uint32_t seed = 1;
  int full_check_every = 97;  ///< compare every live bound this often
};

/// Drives the batch controller (the oracle) and the incremental engine in
/// lockstep and asserts identical behaviour at every step.
void run_lockstep(const ChurnConfig& cfg, std::uint64_t* admitted_out = nullptr,
                  std::uint64_t* flipped_out = nullptr) {
  core::AdmissionController batch(model(cfg.cols, cfg.rows));
  admit::IncrementalAdmission inc(model(cfg.cols, cfg.rows));
  std::mt19937 rng(cfg.seed);
  std::uniform_real_distribution<double> burst(cfg.burst_lo, cfg.burst_hi);
  std::uniform_real_distribution<double> rate(cfg.rate_lo, cfg.rate_hi);
  std::uniform_real_distribution<double> dl(cfg.deadline_lo_us,
                                            cfg.deadline_hi_us);
  std::uniform_real_distribution<double> uni(0.0, 1.0);
  const int nodes = cfg.cols * cfg.rows;
  std::vector<bool> live(static_cast<std::size_t>(cfg.napps) + 1, false);
  std::uint64_t admitted = 0;
  std::uint64_t flipped = 0;

  for (int d = 0; d < cfg.decisions; ++d) {
    const noc::AppId id = 1 + rng() % cfg.napps;
    if (getenv("PAP_TRACE_CHURN")) {
      fprintf(stderr, "decision %d app %u %s\n", d, unsigned(id),
              live[id] ? "release" : "request");
    }
    if (live[id]) {
      const Status sb = batch.release(id);
      const Status si = inc.release(id);
      ASSERT_EQ(sb.is_ok(), si.is_ok()) << "decision " << d;
      live[id] = false;
    } else {
      core::AppRequirement req =
          app(id, burst(rng), rate(rng), rng() % nodes, rng() % nodes,
              Time::from_ns(dl(rng) * 1e3), uni(rng) < cfg.dram_fraction);
      if (uni(rng) < 0.5) req.route_order = noc::Mesh2D::RouteOrder::kYX;
      const auto rb = batch.request(req);
      const auto ri = inc.request(req);
      ASSERT_EQ(rb.has_value(), ri.has_value())
          << "decision " << d << ": batch says "
          << (rb ? "admit" : rb.error_message()) << ", incremental says "
          << (ri ? "admit" : ri.error_message());
      if (rb.has_value()) {
        // Grants must match field for field, bounds to the picosecond.
        EXPECT_EQ(rb.value().e2e_bound.picos(), ri.value().e2e_bound.picos())
            << "decision " << d;
        EXPECT_EQ(rb.value().route_order, ri.value().route_order)
            << "decision " << d;
        EXPECT_EQ(rb.value().noc_shaper.burst, ri.value().noc_shaper.burst);
        EXPECT_EQ(rb.value().noc_shaper.rate, ri.value().noc_shaper.rate);
        live[id] = true;
        ++admitted;
        if (rb.value().route_order != req.route_order) ++flipped;
      } else {
        // Rejection strings must be byte-identical (same failing flow,
        // same bound rendering, same alternate-route suffix).
        EXPECT_EQ(rb.error_message(), ri.error_message()) << "decision " << d;
      }
    }
    // The touched app's cached bound must match the oracle's.
    {
      const auto bb = batch.current_bound(id);
      const auto bi = inc.current_bound(id);
      ASSERT_EQ(bb.has_value(), bi.has_value()) << "decision " << d;
      if (bb) {
        EXPECT_EQ(bb->picos(), bi->picos()) << "decision " << d;
      }
    }
    if ((d + 1) % cfg.full_check_every == 0) {
      // Every live flow's cached state, and the canonical flow vector.
      const auto& oracle = batch.admitted();
      const auto mine = inc.flows();
      ASSERT_EQ(oracle.size(), mine.size()) << "decision " << d;
      for (std::size_t i = 0; i < oracle.size(); ++i) {
        EXPECT_EQ(oracle[i].app, mine[i].app) << "decision " << d;
        EXPECT_EQ(oracle[i].route_order, mine[i].route_order);
        const auto bb = batch.current_bound(oracle[i].app);
        const auto bi = inc.current_bound(oracle[i].app);
        ASSERT_EQ(bb.has_value(), bi.has_value())
            << "decision " << d << " app " << oracle[i].app;
        if (bb) {
          EXPECT_EQ(bb->picos(), bi->picos())
              << "decision " << d << " app " << oracle[i].app;
        }
      }
    }
  }
  EXPECT_EQ(batch.admissions(), inc.stats().admissions);
  EXPECT_EQ(batch.rejections(), inc.stats().rejections);
  if (admitted_out) *admitted_out = admitted;
  if (flipped_out) *flipped_out = flipped;
}

TEST(AdmitIncremental, ChurnTightMeshSaturates) {
  // High rates on a small mesh: plenty of rejections, protected-app
  // errors and alternate-route retries.
  ChurnConfig cfg;
  cfg.cols = cfg.rows = 4;
  cfg.napps = 24;
  cfg.decisions = 3000;
  cfg.rate_lo = 0.01;
  cfg.rate_hi = 0.06;
  cfg.seed = 11;
  std::uint64_t admitted = 0;
  std::uint64_t flipped = 0;
  run_lockstep(cfg, &admitted, &flipped);
  EXPECT_GT(admitted, 100u);   // the mix admits...
  EXPECT_GT(flipped, 0u);      // ...and the YX retry path fires
}

TEST(AdmitIncremental, ChurnModerateMesh) {
  ChurnConfig cfg;
  cfg.cols = cfg.rows = 8;
  cfg.napps = 80;
  cfg.decisions = 4000;
  cfg.seed = 23;
  run_lockstep(cfg);
}

TEST(AdmitIncremental, ChurnDramCoupledMix) {
  // DRAM users couple globally: every dram admit/release shifts every
  // other dram flow's residual service. The cached-chain refresh must
  // still be ps-exact.
  ChurnConfig cfg;
  cfg.cols = cfg.rows = 6;
  cfg.napps = 40;
  cfg.decisions = 3000;
  cfg.dram_fraction = 0.4;
  cfg.rate_lo = 0.0005;
  cfg.rate_hi = 0.01;
  cfg.seed = 37;
  run_lockstep(cfg);
}

TEST(AdmitIncremental, DramClassChurnIsPsExactAfterEveryDecision) {
  // A DRAM-heavy population: 150 users in three contract classes, ten
  // users with contracts of their own and a few NoC-only flows, under
  // seeded release/re-admit churn. Every decision shifts every DRAM bound,
  // so after each one every cached bound must equal the batch oracle's,
  // and every residual a shared table hands out must equal the one-shot
  // residual of that user computed on its own arena.
  admit::IncrementalAdmission inc(model(8, 8));
  std::mt19937 rng(41);
  std::vector<core::AppRequirement> reqs;
  const auto add = [&](double burst, double rate, bool dram) {
    const auto id = static_cast<noc::AppId>(reqs.size() + 1);
    reqs.push_back(app(id, burst, rate, rng() % 64, rng() % 64, Time::ms(50),
                       dram));
  };
  for (int i = 0; i < 150; ++i) add(1.0, 1e-6 * (1 + i % 3), true);
  for (int i = 0; i < 10; ++i) add(1.0, 1.5e-6 + 1e-7 * i, true);
  for (int i = 0; i < 12; ++i) add(2.0, 0.0005 * (1 + i % 4), false);
  for (const auto& r : reqs) ASSERT_TRUE(inc.request(r)) << r.name;

  std::vector<std::optional<Time>> oracle;
  std::vector<const core::AppRequirement*> dram_flows;
  nc::Arena shared_arena;
  nc::Arena fresh_arena;
  const auto expect_exact = [&](int d) {
    const auto flows = inc.flows();
    inc.analysis().e2e_bounds_into(flows, &oracle);
    for (std::size_t i = 0; i < flows.size(); ++i) {
      const auto cached = inc.current_bound(flows[i].app);
      ASSERT_TRUE(oracle[i].has_value()) << "decision " << d << " i " << i;
      ASSERT_TRUE(cached.has_value()) << "decision " << d << " i " << i;
      EXPECT_EQ(cached->picos(), oracle[i]->picos())
          << "decision " << d << " app " << flows[i].app;
    }
    dram_flows.clear();
    core::DramLoad load;
    for (const auto& f : flows) {
      if (!f.uses_dram) continue;
      dram_flows.push_back(&f);
      load.add(f.traffic);
    }
    shared_arena.reset();
    core::E2eAnalysis::DramResiduals shared(inc.analysis(), load,
                                            shared_arena);
    for (const core::AppRequirement* f : dram_flows) {
      fresh_arena.reset();
      const nc::Curve fresh = nc::to_curve(inc.analysis().dram_service_from(
          *f, dram_flows.data(), dram_flows.size(), fresh_arena));
      EXPECT_TRUE(nc::to_curve(shared.service_for(*f)) == fresh)
          << "decision " << d << " app " << f->app;
    }
  };
  expect_exact(-1);
  for (int d = 0; d < 120; ++d) {
    const auto& r = reqs[rng() % reqs.size()];
    ASSERT_TRUE(inc.release(r.app).is_ok()) << "decision " << d;
    expect_exact(d);
    ASSERT_TRUE(inc.request(r)) << "decision " << d;
    expect_exact(d);
  }
}

// A DRAM release leaves the clean DRAM bounds stale until the next
// request. Two releases in a row, then a NoC-only newcomer that breaks a
// DRAM flow it shares links with: the rejection prints that flow's bound
// under the DRAM population left by both releases, and must match the
// batch engine's string exactly; afterwards every cached bound must too.
TEST(AdmitIncremental, NocRejectionAfterTwoDramReleasesMatchesOracle) {
  noc::Mesh2D mesh(4, 4);
  // app4 runs along row 0; the other DRAM users sit on rows of their own.
  const auto dram_user = [&](noc::AppId id, int row, Time deadline) {
    return app(id, 1.0, 2e-6 * static_cast<double>(id), mesh.node(0, row),
               mesh.node(3, row), deadline, /*dram=*/true);
  };
  Time deadline = Time::ms(50);
  {
    // app4's bound with all four DRAM users admitted, plus 1 ns, is its
    // deadline: admissible, but with no room for more NoC cross traffic.
    core::AdmissionController probe(model(4, 4));
    for (noc::AppId id = 1; id <= 3; ++id) {
      ASSERT_TRUE(probe.request(dram_user(id, static_cast<int>(id), deadline)));
    }
    ASSERT_TRUE(probe.request(dram_user(4, 0, deadline)));
    deadline = *probe.current_bound(4) + Time::ns(1);
  }
  core::AdmissionController batch(model(4, 4));
  admit::IncrementalAdmission inc(model(4, 4));
  for (noc::AppId id = 1; id <= 4; ++id) {
    const auto r = id == 4 ? dram_user(4, 0, deadline)
                           : dram_user(id, static_cast<int>(id), Time::ms(50));
    ASSERT_TRUE(batch.request(r)) << id;
    ASSERT_TRUE(inc.request(r)) << id;
  }
  for (const noc::AppId id : {noc::AppId{1}, noc::AppId{2}}) {
    ASSERT_TRUE(batch.release(id).is_ok());
    ASSERT_TRUE(inc.release(id).is_ok());
  }
  const auto noc_only =
      app(5, 4.0, 0.01, mesh.node(0, 0), mesh.node(3, 0), Time::ms(50));
  const auto rb = batch.request(noc_only);
  const auto ri = inc.request(noc_only);
  ASSERT_FALSE(rb.has_value());
  ASSERT_FALSE(ri.has_value());
  EXPECT_NE(rb.error_message().find("would break 'app4': bound"),
            std::string::npos)
      << rb.error_message();
  EXPECT_EQ(ri.error_message(), rb.error_message());
  for (const noc::AppId id : {noc::AppId{3}, noc::AppId{4}}) {
    ASSERT_TRUE(inc.current_bound(id).has_value()) << id;
    EXPECT_EQ(inc.current_bound(id)->picos(), batch.current_bound(id)->picos())
        << id;
  }
}

// A release's refresh runs on the next current_bound of a DRAM flow: the
// bound it serves is ps-exact against one batch pass over the flows left,
// and smaller than before the release.
TEST(AdmitIncremental, CurrentBoundAfterDramReleaseIsPsExact) {
  admit::IncrementalAdmission inc(model(8, 8));
  noc::Mesh2D mesh(8, 8);
  for (noc::AppId id = 1; id <= 12; ++id) {
    const int k = static_cast<int>(id) - 1;
    ASSERT_TRUE(inc.request(app(id, 1.0 + k % 2, 1e-6 * (1 + k % 3),
                                mesh.node(2 * (k % 4), k / 4),
                                mesh.node(2 * (k % 4) + 1, k / 4),
                                Time::ms(50), /*dram=*/k % 4 != 3)));
  }
  const Time before = *inc.current_bound(1);
  ASSERT_TRUE(inc.release(2).is_ok());
  const auto flows = inc.flows();
  std::vector<std::optional<Time>> oracle;
  inc.analysis().e2e_bounds_into(flows, &oracle);
  for (std::size_t i = 0; i < flows.size(); ++i) {
    const auto cached = inc.current_bound(flows[i].app);
    ASSERT_TRUE(cached.has_value()) << flows[i].app;
    ASSERT_TRUE(oracle[i].has_value()) << flows[i].app;
    EXPECT_EQ(cached->picos(), oracle[i]->picos()) << flows[i].app;
  }
  EXPECT_LT(*inc.current_bound(1), before);
}

/// Flow f (0-5) of 2x2-router tile t on an 8x8 mesh: six XY routes over
/// the tile's four routers, so tiles share no link. Flow 5 of each tile
/// also uses the DRAM.
core::AppRequirement tile_app(int tile, int f) {
  static constexpr int kRoutes[6][4] = {{0, 0, 1, 0}, {1, 0, 1, 1},
                                        {1, 1, 0, 1}, {0, 1, 0, 0},
                                        {0, 0, 1, 1}, {1, 1, 0, 0}};
  const noc::Mesh2D mesh(8, 8);
  const int bx = 2 * (tile % 4);
  const int by = 2 * (tile / 4);
  const auto id = static_cast<noc::AppId>(1 + 6 * tile + f);
  const auto src = mesh.node(bx + kRoutes[f][0], by + kRoutes[f][1]);
  const auto dst = mesh.node(bx + kRoutes[f][2], by + kRoutes[f][3]);
  if (f == 5) return app(id, 1.0, 1e-6 * (1 + tile % 3), src, dst, Time::ms(50),
                         /*dram=*/true);
  return app(id, 1.0 + f, 0.001 + 0.0005 * f, src, dst, Time::us(5));
}

// Releases only unregister; the next request, current_bound or stats()
// re-proves what they left pending. NoC and DRAM releases in disjoint
// tiles, then (a) a request in a third tile, (b) current_bound in
// another, (c) a request rejected on both routes and (d) a re-admit into
// the tile of a release: every decision and rejection string equals the
// batch engine's, and after each step every cached bound is ps-exact.
TEST(AdmitIncremental, LazyReleasesInDisjointTilesMatchOracle) {
  core::AdmissionController batch(model(8, 8));
  admit::IncrementalAdmission inc(model(8, 8));
  const auto both_request = [&](const core::AppRequirement& r) {
    const auto rb = batch.request(r);
    const auto ri = inc.request(r);
    ASSERT_EQ(rb.has_value(), ri.has_value()) << r.name;
    if (rb) {
      EXPECT_EQ(rb.value().e2e_bound.picos(), ri.value().e2e_bound.picos());
      EXPECT_EQ(rb.value().route_order, ri.value().route_order);
    } else {
      EXPECT_EQ(rb.error_message(), ri.error_message());
    }
  };
  const auto both_release = [&](int tile, int f) {
    const noc::AppId id = tile_app(tile, f).app;
    ASSERT_TRUE(batch.release(id).is_ok());
    ASSERT_TRUE(inc.release(id).is_ok());
  };
  std::vector<std::optional<Time>> oracle;
  const auto expect_exact = [&](const char* step) {
    EXPECT_EQ(inc.pending_links(), 0u) << step;
    const auto flows = inc.flows();
    inc.analysis().e2e_bounds_into(flows, &oracle);
    for (std::size_t i = 0; i < flows.size(); ++i) {
      const auto cached = inc.current_bound(flows[i].app);
      ASSERT_TRUE(cached.has_value() && oracle[i].has_value()) << step;
      EXPECT_EQ(cached->picos(), oracle[i]->picos())
          << step << " app " << flows[i].app;
      EXPECT_EQ(cached->picos(), batch.current_bound(flows[i].app)->picos())
          << step << " app " << flows[i].app;
    }
  };
  for (int t = 0; t < 4; ++t) {
    for (int f = 0; f < 6; ++f) both_request(tile_app(t, f));
  }
  ASSERT_EQ(inc.size(), 24u);

  both_release(0, 1);
  both_release(1, 5);
  EXPECT_GT(inc.pending_links(), 0u);
  auto newcomer = tile_app(2, 4);
  newcomer.app = 100;
  newcomer.name = "app100";
  both_request(newcomer);
  expect_exact("(a) request in a third tile");

  both_release(2, 2);
  both_release(3, 5);
  EXPECT_GT(inc.pending_links(), 0u);
  const noc::AppId noc_flow = tile_app(0, 0).app;
  EXPECT_EQ(inc.current_bound(noc_flow)->picos(),
            batch.current_bound(noc_flow)->picos());
  EXPECT_EQ(inc.pending_links(), 0u);
  const noc::AppId dram_flow = tile_app(0, 5).app;
  EXPECT_EQ(inc.current_bound(dram_flow)->picos(),
            batch.current_bound(dram_flow)->picos());
  expect_exact("(b) current_bound in another tile");

  both_release(1, 0);
  both_release(0, 5);
  auto hopeless = tile_app(3, 4);
  hopeless.app = 200;
  hopeless.name = "app200";
  hopeless.deadline = Time::ps(1);
  both_request(hopeless);
  EXPECT_FALSE(inc.contains(hopeless.app));
  expect_exact("(c) request rejected on both routes");

  both_release(2, 3);
  both_request(tile_app(2, 3));
  expect_exact("(d) re-admit into the released tile");
}

// What the lazy release costs in re-proved flows. With C the component a
// release leaves behind: the re-admit that folds it in evaluates |C| flows
// for both decisions (re-proving at the release would take 2|C|); a
// release evaluates nothing itself; a request rejected elsewhere evaluates
// the pending closure once; and one rejected on both routes inside the
// component evaluates it once more than its two attempts do, as often as a
// release that re-proved at once would have.
TEST(AdmitIncremental, LazyReleaseReprovesTheComponentOnce) {
  admit::IncrementalAdmission inc(model(8, 8));
  for (int t = 0; t < 3; ++t) {
    for (int f = 0; f < 6; ++f) ASSERT_TRUE(inc.request(tile_app(t, f)));
  }
  const auto x = tile_app(0, 2);
  const auto s0 = inc.stats();
  ASSERT_TRUE(inc.release(x.app).is_ok());
  ASSERT_TRUE(inc.request(x));
  const auto s1 = inc.stats();
  const std::uint64_t folded = s1.dirty_flows_total - s0.dirty_flows_total;
  EXPECT_EQ(s1.last_dirty_flows, folded);

  ASSERT_TRUE(inc.release(x.app).is_ok());
  const auto s2 = inc.stats();  // re-proves the pending closure on its own
  EXPECT_EQ(s2.last_dirty_flows, 0u);
  EXPECT_EQ(s2.last_dirty_links, 0u);
  const std::uint64_t c = s2.dirty_flows_total - s1.dirty_flows_total;
  EXPECT_GT(c, 0u);
  EXPECT_EQ(folded, c);
  ASSERT_TRUE(inc.request(x));
  const auto s3 = inc.stats();
  EXPECT_EQ(s3.dirty_flows_total - s2.dirty_flows_total, c);

  // Rejected in an empty tile: the candidate's closures are empty, so all
  // the work is the pending closure, evaluated once.
  auto far = tile_app(7, 4);
  far.app = 300;
  far.name = "app300";
  far.deadline = Time::ps(1);
  ASSERT_TRUE(inc.release(x.app).is_ok());
  ASSERT_FALSE(inc.request(far).has_value());
  EXPECT_EQ(inc.pending_links(), 0u);
  const auto s4 = inc.stats();
  EXPECT_EQ(s4.dirty_flows_total - s3.dirty_flows_total, c);
  EXPECT_EQ(s4.last_dirty_flows, c);
  ASSERT_TRUE(inc.request(x));

  // Rejected on both routes inside the component: the two attempts plus
  // the pending closure once, which is what the same rejection costs with
  // nothing pending, plus |C|.
  auto near = x;
  near.app = 301;
  near.name = "app301";
  near.deadline = Time::ps(1);
  const auto s5 = inc.stats();
  ASSERT_TRUE(inc.release(x.app).is_ok());
  ASSERT_FALSE(inc.request(near).has_value());
  EXPECT_EQ(inc.pending_links(), 0u);
  const auto s6 = inc.stats();
  ASSERT_FALSE(inc.request(near).has_value());
  const auto s7 = inc.stats();
  EXPECT_EQ(s6.dirty_flows_total - s5.dirty_flows_total,
            s7.dirty_flows_total - s6.dirty_flows_total + c);
}

// The pending set lists each link once: releasing every flow of a session,
// one by one with nothing in between, never holds more entries than the
// links live before the first release, although three flows share every
// path. The next request and current_bound see an empty engine.
TEST(AdmitIncremental, PendingSetIsBoundedByLiveLinks) {
  core::AdmissionController batch(model(8, 8));
  admit::IncrementalAdmission inc(model(8, 8));
  const auto copy = [](int tile, int f, int k) {
    auto r = tile_app(tile, f);
    r.app += static_cast<noc::AppId>(1000 * k);
    r.name = "app" + std::to_string(r.app);
    return r;
  };
  for (int k = 0; k < 3; ++k) {
    for (int t = 0; t < 4; ++t) {
      for (int f = 0; f < 6; ++f) {
        ASSERT_TRUE(inc.request(copy(t, f, k)));
        ASSERT_TRUE(batch.request(copy(t, f, k)));
      }
    }
  }
  const std::size_t live_links = inc.stats().live_links;
  for (int k = 0; k < 3; ++k) {
    for (int f = 0; f < 6; ++f) {
      for (int t = 0; t < 4; ++t) {
        ASSERT_TRUE(inc.release(copy(t, f, k).app).is_ok());
        ASSERT_TRUE(batch.release(copy(t, f, k).app).is_ok());
        ASSERT_LE(inc.pending_links(), live_links);
      }
    }
  }
  EXPECT_EQ(inc.size(), 0u);
  const auto r = tile_app(2, 4);
  const auto gi = inc.request(r);
  const auto gb = batch.request(r);
  ASSERT_TRUE(gi.has_value() && gb.has_value());
  EXPECT_EQ(gi.value().e2e_bound.picos(), gb.value().e2e_bound.picos());
  EXPECT_EQ(inc.pending_links(), 0u);
  EXPECT_EQ(inc.current_bound(r.app)->picos(),
            batch.current_bound(r.app)->picos());
  const auto s = inc.stats();
  EXPECT_EQ(s.live_flows, 1u);
  EXPECT_EQ(s.diverged_flows, 0u);
}

// Exact DRAM totals make a DRAM bound a function of the DRAM population,
// not of its admission order: the same users admitted in two orders on
// link-disjoint paths get bit-identical bounds, and the users of one
// contract share one residual pipeline.
TEST(AdmitIncremental, DramBoundsDoNotDependOnAdmissionOrder) {
  noc::Mesh2D mesh(8, 8);
  std::vector<core::AppRequirement> users;
  for (noc::AppId id = 1; id <= 32; ++id) {
    const int k = static_cast<int>(id) - 1;
    // Three contracts, with rates that are not short binary fractions.
    users.push_back(app(id, 1.0 + k % 3, 1.1e-6 * (1 + k % 3) / 3.0,
                        mesh.node(2 * (k % 4), k / 4),
                        mesh.node(2 * (k % 4) + 1, k / 4), Time::ms(50),
                        /*dram=*/true));
  }
  std::vector<core::AppRequirement> shuffled = users;
  std::shuffle(shuffled.begin(), shuffled.end(), std::mt19937(3));
  admit::IncrementalAdmission in_order(model(8, 8));
  admit::IncrementalAdmission out_of_order(model(8, 8));
  for (std::size_t i = 0; i < users.size(); ++i) {
    ASSERT_TRUE(in_order.request(users[i]));
    ASSERT_TRUE(out_of_order.request(shuffled[i]));
  }
  for (const auto& u : users) {
    const auto a = in_order.current_bound(u.app);
    const auto b = out_of_order.current_bound(u.app);
    ASSERT_TRUE(a.has_value() && b.has_value()) << u.app;
    EXPECT_EQ(a->picos(), b->picos()) << u.app;
  }

  nc::Arena arena_a;
  nc::Arena arena_b;
  core::DramLoad load_a;
  core::DramLoad load_b;
  for (std::size_t i = 0; i < users.size(); ++i) {
    load_a.add(users[i].traffic);
    load_b.add(shuffled[i].traffic);
  }
  core::E2eAnalysis::DramResiduals residuals_a(in_order.analysis(), load_a,
                                               arena_a);
  core::E2eAnalysis::DramResiduals residuals_b(in_order.analysis(), load_b,
                                               arena_b);
  for (const auto& u : users) {
    EXPECT_TRUE(nc::to_curve(residuals_a.service_for(u)) ==
                nc::to_curve(residuals_b.service_for(u)))
        << u.app;
  }
  EXPECT_EQ(residuals_a.pipelines(), 3u);
  EXPECT_EQ(residuals_b.pipelines(), 3u);
}

TEST(AdmitIncremental, ChurnSaturationEdge) {
  // A 2x2 mesh with bursty heavy flows: the saturation/unbounded paths
  // and their exact error strings.
  ChurnConfig cfg;
  cfg.cols = cfg.rows = 2;
  cfg.napps = 8;
  cfg.decisions = 800;
  cfg.burst_hi = 12.0;
  cfg.rate_lo = 0.02;
  cfg.rate_hi = 0.12;
  cfg.seed = 5;
  run_lockstep(cfg);
}

TEST(AdmitIncremental, RouteFallbackMatchesOracle) {
  // The pinned fallback scenario from core_admission_test, on the engine.
  admit::IncrementalAdmission inc(model(4, 4));
  noc::Mesh2D mesh(4, 4);
  ASSERT_TRUE(
      inc.request(app(9, 2, 0.055, mesh.node(0, 0), mesh.node(3, 0), Time::ms(10)))
          .has_value());
  ASSERT_TRUE(
      inc.request(app(8, 2, 0.055, mesh.node(1, 0), mesh.node(3, 0), Time::ms(10)))
          .has_value());
  const auto grant =
      inc.request(app(1, 2, 0.02, mesh.node(0, 0), mesh.node(3, 2), Time::ms(10)));
  ASSERT_TRUE(grant.has_value()) << grant.error_message();
  EXPECT_EQ(grant.value().route_order, noc::Mesh2D::RouteOrder::kYX);
}

TEST(AdmitIncremental, SlotsAreReusedUnderChurn) {
  admit::IncrementalAdmission inc(model(4, 4));
  for (int round = 0; round < 50; ++round) {
    ASSERT_TRUE(inc.request(app(1, 2, 0.001, 0, 3, Time::us(10))).has_value());
    ASSERT_TRUE(inc.request(app(2, 2, 0.001, 4, 7, Time::us(10))).has_value());
    ASSERT_TRUE(inc.release(1).is_ok());
    ASSERT_TRUE(inc.release(2).is_ok());
  }
  const auto s = inc.stats();
  EXPECT_EQ(s.admissions, 100u);
  EXPECT_EQ(s.releases, 100u);
  EXPECT_EQ(s.live_flows, 0u);
  EXPECT_EQ(s.live_links, 0u);
}

TEST(AdmitIncremental, DirtySetStaysLocal) {
  // Two flows in disjoint corners of a 8x8 mesh: admitting the second
  // must not re-prove the first (its component is untouched).
  admit::IncrementalAdmission inc(model(8, 8));
  noc::Mesh2D mesh(8, 8);
  ASSERT_TRUE(
      inc.request(app(1, 2, 0.001, mesh.node(0, 0), mesh.node(1, 1), Time::us(10)))
          .has_value());
  ASSERT_TRUE(
      inc.request(app(2, 2, 0.001, mesh.node(6, 6), mesh.node(7, 7), Time::us(10)))
          .has_value());
  const auto s = inc.stats();
  EXPECT_EQ(s.last_dirty_flows, 0u);  // nothing shared: empty dirty set
  EXPECT_EQ(s.live_flows, 2u);
}

TEST(AdmitIncremental, DuplicateAndUnknownAppsMatchOracle) {
  core::AdmissionController batch(model(4, 4));
  admit::IncrementalAdmission inc(model(4, 4));
  const auto r = app(1, 2, 0.001, 0, 3, Time::us(10));
  ASSERT_TRUE(batch.request(r).has_value());
  ASSERT_TRUE(inc.request(r).has_value());
  const auto rb = batch.request(r);
  const auto ri = inc.request(r);
  ASSERT_FALSE(rb.has_value());
  ASSERT_FALSE(ri.has_value());
  EXPECT_EQ(rb.error_message(), ri.error_message());
  EXPECT_EQ(batch.release(99).message(), inc.release(99).message());
  EXPECT_FALSE(inc.current_bound(99).has_value());
  EXPECT_TRUE(inc.contains(1));
  EXPECT_FALSE(inc.contains(99));
}

// App ids index the engine through an open-addressing table with
// backward-shift deletion. Two regimes: a live set of at most ~12 ids from
// a pool of 64 scattered ones keeps the table at 16-32 slots, so probe
// runs collide and wrap past its end; then ids from a small dense range
// and scattered multiples of 16 grow it to thousands of entries. After
// every admit or release, contains() and size() must agree with a set.
TEST(AdmitIncremental, AppLookupsTrackAdmitsAndReleasesOfScatteredIds) {
  admit::IncrementalAdmission inc(model(16, 16));
  noc::Mesh2D mesh(16, 16);
  std::mt19937 rng(17);
  std::vector<noc::AppId> pool(64);
  for (auto& id : pool) id = 1 + rng() % (1u << 30);
  std::set<noc::AppId> live;
  for (int step = 0; step < 30000; ++step) {
    const bool small = step < 20000;
    const noc::AppId id =
        small ? pool[rng() % pool.size()]
              : (rng() % 2 ? 1 + rng() % 300 : 16 * (1 + rng() % (1u << 26)));
    const bool release =
        small ? live.size() > 12 || rng() % 2 : rng() % 100 < 45;
    if (release) {
      ASSERT_EQ(inc.release(id).is_ok(), live.erase(id) == 1) << step;
    } else {
      const noc::NodeId at = mesh.node(static_cast<int>(rng() % 16),
                                       static_cast<int>(rng() % 16));
      const bool fresh = live.count(id) == 0;
      const auto g = inc.request(app(id, 1.0, 1e-7, at, at, Time::ms(100)));
      ASSERT_EQ(g.has_value(), fresh) << step;
      live.insert(id);
    }
    ASSERT_EQ(inc.size(), live.size()) << step;
    if (small) {
      for (const noc::AppId l : live) ASSERT_TRUE(inc.contains(l)) << step;
    }
    ASSERT_EQ(inc.contains(id), live.count(id) == 1) << step;
  }
  for (const noc::AppId id : live) {
    EXPECT_TRUE(inc.contains(id)) << id;
    EXPECT_TRUE(inc.current_bound(id).has_value()) << id;
  }
}

TEST(AdmitIncremental, ControllerFacadeSelectsEngine) {
  core::AdmissionController ac(model(4, 4), core::AdmissionEngine::kIncremental);
  EXPECT_EQ(ac.engine(), core::AdmissionEngine::kIncremental);
  ASSERT_NE(ac.incremental(), nullptr);
  const auto grant = ac.request(app(1, 2, 0.001, 0, 3, Time::us(10)));
  ASSERT_TRUE(grant.has_value());
  EXPECT_EQ(ac.admitted().size(), 1u);
  EXPECT_EQ(ac.admissions(), 1u);
  ASSERT_TRUE(ac.current_bound(1).has_value());
  ASSERT_TRUE(ac.release(1).is_ok());
  EXPECT_EQ(ac.admitted().size(), 0u);
}

}  // namespace
}  // namespace pap
