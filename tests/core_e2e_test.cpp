// End-to-end composition analysis: link residuals, path convolution, DRAM
// service integration, and validation against the NoC simulator.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "core/e2e_analysis.hpp"
#include "sim/kernel.hpp"

namespace pap::core {
namespace {

PlatformModel model() {
  PlatformModel m;
  m.noc.cols = 4;
  m.noc.rows = 4;
  return m;
}

AppRequirement app(noc::AppId id, double burst, double rate_req_per_ns,
                   noc::NodeId src, noc::NodeId dst, Time deadline,
                   bool dram = false) {
  AppRequirement a;
  a.app = id;
  a.name = "app" + std::to_string(id);
  a.traffic = nc::TokenBucket{burst, rate_req_per_ns};
  a.src = src;
  a.dst = dst;
  a.deadline = deadline;
  a.uses_dram = dram;
  return a;
}

TEST(E2e, LinkRateFromFlitTime) {
  E2eAnalysis e(model());
  // 2 ns/flit, 4 flits: 1 packet per 8 ns.
  EXPECT_DOUBLE_EQ(e.link_rate(4), 1.0 / 8.0);
  EXPECT_EQ(e.hop_latency(), Time::ns(5));
}

TEST(E2e, LinksFollowXyRouteWithInjection) {
  E2eAnalysis e(model());
  noc::Mesh2D mesh(4, 4);
  const auto a = app(1, 1, 0.001, mesh.node(0, 0), mesh.node(2, 1),
                     Time::us(10));
  std::vector<PathLink> links;
  e.links_into(a, &links);
  ASSERT_EQ(links.size(), 5u);  // injection, E, E, N, ejection
  EXPECT_TRUE(links[0].injection);
  EXPECT_EQ(links[1].link.out, noc::Direction::kEast);
  EXPECT_EQ(links[4].link.out, noc::Direction::kLocal);
  EXPECT_FALSE(links[4].injection);
}

TEST(E2e, CoLocatedFlowsContendOnTheInjectionLink) {
  // Two apps on the SAME node heading to disjoint destinations still
  // interfere at their shared injection link.
  E2eAnalysis e(model());
  noc::Mesh2D mesh(4, 4);
  const auto a = app(1, 2, 0.002, mesh.node(0, 0), mesh.node(3, 0),
                     Time::us(10));
  const auto b = app(2, 4, 0.02, mesh.node(0, 0), mesh.node(0, 3),
                     Time::us(10));
  const auto alone = e.e2e_bound(a, {a});
  const auto shared = e.e2e_bound(a, {a, b});
  ASSERT_TRUE(alone && shared);
  EXPECT_GT(*shared, *alone);
}

TEST(E2e, InterfererBurstRaisesTheBound) {
  // Propagated burstiness: the same interferer with a bigger burst yields
  // a strictly larger bound for the victim.
  E2eAnalysis e(model());
  noc::Mesh2D mesh(4, 4);
  const auto a = app(1, 2, 0.002, mesh.node(0, 0), mesh.node(3, 0),
                     Time::us(10));
  const auto small = app(2, 1, 0.005, mesh.node(0, 1), mesh.node(3, 0),
                         Time::us(10));
  auto big = small;
  big.traffic.burst = 8;
  const auto with_small = e.e2e_bound(a, {a, small});
  const auto with_big = e.e2e_bound(a, {a, big});
  ASSERT_TRUE(with_small && with_big);
  EXPECT_GT(*with_big, *with_small);
}

TEST(E2e, UncontestedPathBoundIsHopChain) {
  E2eAnalysis e(model());
  noc::Mesh2D mesh(4, 4);
  const auto a = app(1, 1, 0.001, mesh.node(0, 0), mesh.node(3, 0),
                     Time::us(10));
  const auto bound = e.e2e_bound(a, {a});
  ASSERT_TRUE(bound.has_value());
  // 4 hops x 5 ns latency plus the burst served at the link rate.
  EXPECT_GE(*bound, Time::ns(20));
  EXPECT_LT(*bound, Time::us(1));
}

TEST(E2e, CrossTrafficRaisesBound) {
  E2eAnalysis e(model());
  noc::Mesh2D mesh(4, 4);
  const auto a = app(1, 2, 0.002, mesh.node(0, 0), mesh.node(3, 0),
                     Time::us(10));
  const auto cross = app(2, 2, 0.02, mesh.node(0, 1), mesh.node(3, 0),
                         Time::us(10));
  const auto alone = e.e2e_bound(a, {a});
  const auto contested = e.e2e_bound(a, {a, cross});
  ASSERT_TRUE(alone && contested);
  EXPECT_GT(*contested, *alone);
}

TEST(E2e, DisjointCrossTrafficIgnored) {
  E2eAnalysis e(model());
  noc::Mesh2D mesh(4, 4);
  const auto a = app(1, 2, 0.002, mesh.node(0, 0), mesh.node(1, 0),
                     Time::us(10));
  const auto far = app(2, 8, 0.05, mesh.node(0, 3), mesh.node(3, 3),
                       Time::us(10));
  const auto alone = e.e2e_bound(a, {a});
  const auto with_far = e.e2e_bound(a, {a, far});
  ASSERT_TRUE(alone && with_far);
  EXPECT_EQ(*alone, *with_far);
}

TEST(E2e, SaturatedLinkHasNoBound) {
  E2eAnalysis e(model());
  noc::Mesh2D mesh(4, 4);
  // Cross traffic at the full link rate (1/8 packets/ns).
  const auto a = app(1, 1, 0.001, mesh.node(0, 0), mesh.node(3, 0),
                     Time::us(10));
  const auto hog = app(2, 1, 0.125, mesh.node(0, 1), mesh.node(3, 0),
                       Time::us(10));
  EXPECT_FALSE(e.e2e_bound(a, {a, hog}).has_value());
}

TEST(E2e, DramChainExtendsBound) {
  E2eAnalysis e(model());
  auto a = app(1, 2, 0.001, 0, 5, Time::us(100), /*dram=*/true);
  auto no_dram = a;
  no_dram.uses_dram = false;
  const auto with = e.e2e_bound(a, {a});
  const auto without = e.e2e_bound(no_dram, {no_dram});
  ASSERT_TRUE(with && without);
  EXPECT_GT(*with, *without);
}

TEST(E2e, DramCrossTrafficCountsAsWrites) {
  E2eAnalysis e(model());
  auto a = app(1, 2, 0.001, 0, 5, Time::ms(1), true);
  auto other = app(2, 4, 0.004, 1, 5, Time::ms(1), true);
  const auto alone = e.e2e_bound(a, {a});
  const auto shared = e.e2e_bound(a, {a, other});
  ASSERT_TRUE(alone && shared);
  EXPECT_GT(*shared, *alone);
}

// Validation against the simulator: the analytic bound must cover the
// simulated worst case for shaped flows through a contested NoC.
TEST(E2e, AnalysisBoundsCoverSimulation) {
  PlatformModel m = model();
  E2eAnalysis e(m);
  noc::Mesh2D mesh(4, 4);
  const auto a = app(1, 2, 1.0 / 500.0, mesh.node(0, 0), mesh.node(3, 0),
                     Time::us(10));
  const auto b = app(2, 2, 1.0 / 400.0, mesh.node(0, 1), mesh.node(3, 0),
                     Time::us(10));
  const auto bound_a = e.e2e_bound(a, {a, b});
  ASSERT_TRUE(bound_a.has_value());

  sim::Kernel kernel;
  noc::Network net(kernel, m.noc);
  // Inject conformant traffic: an initial burst of 2, then the sustained
  // rate (the NC bound covers flows that conform to the declared bucket;
  // shaper queueing of non-conformant backlogs is outside it).
  auto inject = [&](const AppRequirement& req, Time period, int count) {
    for (int i = 0; i < count; ++i) {
      const Time at = i < 2 ? Time::zero() : period * (i - 1);
      kernel.schedule_at(at, [&net, &req, i] {
        noc::Packet p;
        p.id = static_cast<std::uint64_t>(i);
        p.src = req.src;
        p.dst = req.dst;
        p.app = req.app;
        net.send(p);
      });
    }
  };
  inject(a, Time::ns(500), 200);
  inject(b, Time::ns(400), 200);
  kernel.run();
  const auto lat = net.latency_of_app(1);
  ASSERT_FALSE(lat.empty());
  EXPECT_LE(lat.max(), *bound_a);
}

// The one-pass e2e_bounds_into must reproduce the per-flow e2e_bound (the
// same slice pipeline run for one index, after placing the flow in the
// set) exactly — Time is integer picoseconds, so any divergence shows up
// as a hard inequality here. Covers NoC-only and DRAM flows, and a
// saturated set where bounds go unbounded.
TEST(E2e, BatchBoundsMatchPerFlowScalarExactly) {
  E2eAnalysis e(model());
  noc::Mesh2D mesh(4, 4);
  const std::vector<std::vector<AppRequirement>> flow_sets = {
      // Disjoint and contending NoC-only flows.
      {app(1, 2, 0.002, mesh.node(0, 0), mesh.node(3, 0), Time::us(10)),
       app(2, 4, 0.004, mesh.node(0, 1), mesh.node(3, 0), Time::us(10)),
       app(3, 1, 0.001, mesh.node(1, 2), mesh.node(2, 3), Time::us(10))},
      // DRAM users mixed with NoC-only flows.
      {app(1, 2, 0.001, mesh.node(0, 0), mesh.node(1, 1), Time::ms(1), true),
       app(2, 4, 0.004, mesh.node(2, 0), mesh.node(1, 1), Time::ms(1), true),
       app(3, 2, 0.002, mesh.node(3, 3), mesh.node(0, 3), Time::ms(1))},
      // Saturating rate on a shared link: bounds must go unbounded the
      // same way in both paths.
      {app(1, 2, 0.09, mesh.node(0, 0), mesh.node(3, 0), Time::us(10)),
       app(2, 2, 0.09, mesh.node(0, 1), mesh.node(3, 0), Time::us(10))},
  };
  std::vector<std::optional<Time>> batch;
  for (std::size_t s = 0; s < flow_sets.size(); ++s) {
    const auto& flows = flow_sets[s];
    e.e2e_bounds_into(flows, &batch);
    ASSERT_EQ(batch.size(), flows.size());
    for (std::size_t i = 0; i < flows.size(); ++i) {
      const auto scalar = e.e2e_bound(flows[i], flows);
      ASSERT_EQ(batch[i].has_value(), scalar.has_value())
          << "set " << s << " flow " << i;
      if (scalar) {
        EXPECT_EQ(*batch[i], *scalar) << "set " << s << " flow " << i;
      }
    }
  }
}

// Pinned picosecond bounds for the DRAM-mixed flow set above: two DRAM
// users sharing the controller plus a NoC-only flow. e2e_bound and
// e2e_bounds_into must both reproduce them exactly.
TEST(E2e, DramMixedBoundsArePinnedInPicoseconds) {
  E2eAnalysis e(model());
  noc::Mesh2D mesh(4, 4);
  const std::vector<AppRequirement> flows = {
      app(1, 2, 0.001, mesh.node(0, 0), mesh.node(1, 1), Time::ms(1), true),
      app(2, 4, 0.004, mesh.node(2, 0), mesh.node(1, 1), Time::ms(1), true),
      app(3, 2, 0.002, mesh.node(3, 3), mesh.node(0, 3), Time::ms(1))};
  const std::int64_t want_ps[] = {2122660, 1770524, 38000};
  std::vector<std::optional<Time>> batch;
  e.e2e_bounds_into(flows, &batch);
  ASSERT_EQ(batch.size(), flows.size());
  for (std::size_t i = 0; i < flows.size(); ++i) {
    const auto bound = e.e2e_bound(flows[i], flows);
    ASSERT_TRUE(bound.has_value()) << "flow " << i;
    EXPECT_EQ(bound->picos(), want_ps[i]) << "flow " << i;
    ASSERT_TRUE(batch[i].has_value()) << "flow " << i;
    EXPECT_EQ(batch[i]->picos(), want_ps[i]) << "flow " << i;
  }
}

// Pinned picosecond bounds for a controller shared by six DRAM users in
// two (b, r) contract classes plus one NoC-only flow: every DRAM bound sums
// five other users' read buckets, and equal-class users share an exclusion
// bucket. e2e_bound and e2e_bounds_into must both reproduce them exactly.
TEST(E2e, DramClassBoundsArePinnedInPicoseconds) {
  E2eAnalysis e(model());
  noc::Mesh2D mesh(4, 4);
  const std::vector<AppRequirement> flows = {
      app(1, 2, 0.001, mesh.node(0, 0), mesh.node(1, 1), Time::ms(1), true),
      app(2, 2, 0.001, mesh.node(2, 0), mesh.node(1, 1), Time::ms(1), true),
      app(3, 1, 0.0005, mesh.node(3, 1), mesh.node(1, 2), Time::ms(1), true),
      app(4, 2, 0.001, mesh.node(0, 3), mesh.node(2, 2), Time::ms(1), true),
      app(5, 1, 0.0005, mesh.node(1, 3), mesh.node(3, 2), Time::ms(1), true),
      app(6, 2, 0.001, mesh.node(3, 3), mesh.node(0, 2), Time::ms(1), true),
      app(7, 2, 0.002, mesh.node(3, 3), mesh.node(0, 3), Time::ms(1))};
  const std::int64_t want_ps[] = {3554932, 3554932, 3636091, 3534751,
                                  3652576, 3600493, 104527};
  std::vector<std::optional<Time>> batch;
  e.e2e_bounds_into(flows, &batch);
  ASSERT_EQ(batch.size(), flows.size());
  for (std::size_t i = 0; i < flows.size(); ++i) {
    const auto bound = e.e2e_bound(flows[i], flows);
    ASSERT_TRUE(bound.has_value()) << "flow " << i;
    EXPECT_EQ(bound->picos(), want_ps[i]) << "flow " << i;
    ASSERT_TRUE(batch[i].has_value()) << "flow " << i;
    EXPECT_EQ(batch[i]->picos(), want_ps[i]) << "flow " << i;
  }
}

// The NC column of bench/ablation_formal_methods, pinned in picoseconds:
// a 3-hop chain whose first hop is shared with one cross flow, composed by
// hand through the Curve API (residual_blind, convolve, delay_bound).
TEST(E2e, HandComposedChainBoundsArePinnedInPicoseconds) {
  const noc::NocConfig cfg;
  const int flits = 4;
  const double link_rate = 1.0 / (cfg.flit_time.nanos() * flits);
  const nc::TokenBucket mine{2.0, 1.0 / 600.0};
  const std::pair<int, std::int64_t> cases[] = {
      {2000, 47149}, {1000, 47298}, {500, 47602}, {250, 48223}, {120, 49643}};
  for (const auto& [cross_period, want_ps] : cases) {
    const nc::TokenBucket cross{2.0, 1.0 / static_cast<double>(cross_period)};
    const nc::Curve link = nc::Curve::rate_latency(
        link_rate, (cfg.router_latency + cfg.flit_time).nanos());
    nc::Curve chain = nc::residual_blind(link, cross.to_curve());
    for (int h = 0; h < 2; ++h) chain = nc::convolve(chain, link);
    const auto bound = nc::delay_bound(mine.to_curve(), chain);
    ASSERT_TRUE(bound.has_value()) << cross_period;
    EXPECT_EQ(bound->picos(), want_ps) << cross_period;
  }
}

// A flow with a zero burst still pays its path's latency: the chain is
// rate-latency(R, T) and h(affine(b, r), chain) = T + b / R for every
// b >= 0 — including b = 0, where the arrival curve rises off the chain's
// plateau right after t = 0.
TEST(E2e, ZeroBurstFlowStillPaysThePathLatency) {
  const PlatformModel m = model();
  E2eAnalysis e(m);
  noc::Mesh2D mesh(4, 4);
  const auto zero =
      app(1, 0.0, 0.001, mesh.node(0, 0), mesh.node(3, 3), Time::us(10));
  auto one = zero;
  one.traffic.burst = 1.0;
  // Injection link, six router hops and the ejection port.
  double latency = m.noc.flit_time.nanos();
  for (int h = 0; h < 7; ++h) latency += e.hop_latency().nanos();
  const double rate = e.link_rate(zero.flits_per_packet);
  const auto b0 = e.e2e_bound(zero, {zero});
  const auto b1 = e.e2e_bound(one, {one});
  ASSERT_TRUE(b0.has_value() && b1.has_value());
  EXPECT_EQ(b0->picos(), Time::from_ns(latency).picos());
  EXPECT_EQ(b1->picos(), Time::from_ns(latency + 1.0 / rate).picos());
  std::vector<std::optional<Time>> batch;
  e.e2e_bounds_into({zero}, &batch);
  ASSERT_TRUE(batch[0].has_value());
  EXPECT_EQ(*batch[0], *b0);
}

/// A seeded 16x16 population of 1536 flows: three in four tile-local
/// (inside the source's 2x2-router tile), the rest long-haul; XY and YX
/// routes; 1-8 flits per packet; bursts of at least 0.25; every 12th flow
/// on DRAM, at rates the controller sustains.
std::vector<AppRequirement> mesh_population(std::uint64_t seed) {
  const noc::Mesh2D mesh(16, 16);
  Rng rng(seed);
  std::vector<AppRequirement> flows;
  flows.reserve(1536);
  for (int i = 0; i < 1536; ++i) {
    const int sx = static_cast<int>(rng.uniform(0, 15));
    const int sy = static_cast<int>(rng.uniform(0, 15));
    int dx = static_cast<int>(rng.uniform(0, 15));
    int dy = static_cast<int>(rng.uniform(0, 15));
    if (rng.chance(0.75)) {  // tile-local: inside the source's 2x2 tile
      dx = (sx & ~1) + (dx & 1);
      dy = (sy & ~1) + (dy & 1);
    }
    const bool dram = i % 12 == 11;
    AppRequirement a;
    a.app = static_cast<noc::AppId>(i + 1);
    a.name = "app" + std::to_string(a.app);
    a.traffic = dram ? nc::TokenBucket{0.25 * rng.uniform(1, 4),
                                       1e-6 * rng.uniform(1, 3)}
                     : nc::TokenBucket{0.25 + 4.0 * rng.next_double(),
                                       2e-4 * rng.uniform(1, 5)};
    a.flits_per_packet = static_cast<int>(rng.uniform(1, 8));
    a.src = mesh.node(sx, sy);
    a.dst = mesh.node(dx, dy);
    a.route_order = rng.chance(0.5) ? noc::Mesh2D::RouteOrder::kYX
                                    : noc::Mesh2D::RouteOrder::kXY;
    a.deadline = Time::us(100);
    a.uses_dram = dram;
    flows.push_back(std::move(a));
  }
  return flows;
}

/// FNV-1a over every bound in picoseconds (an unbounded flow hashes as -1).
std::uint64_t bounds_digest(const std::vector<std::optional<Time>>& bounds) {
  std::uint64_t h = 1469598103934665603ull;
  for (const auto& b : bounds) {
    const auto v = static_cast<std::uint64_t>(b ? b->picos() : -1);
    for (int k = 0; k < 8; ++k) {
      h ^= (v >> (8 * k)) & 0xff;
      h *= 1099511628211ull;
    }
  }
  return h;
}

// Every bound of six seeded 1536-flow populations, pinned as a digest of
// the picosecond values. The digests were captured before the NoC stages
// went closed form; they hold bit for bit across that change.
TEST(E2e, MeshPopulationBoundsArePinnedByDigest) {
  PlatformModel m;
  m.noc.cols = 16;
  m.noc.rows = 16;
  E2eAnalysis e(m);
  const std::pair<std::uint64_t, std::uint64_t> pins[] = {
      {101, 0x14cd14d87e8f3187ull}, {102, 0x86d54b16e592819full},
      {103, 0xe4970eaf7454c68aull}, {104, 0x31704525b4eb5297ull},
      {105, 0x129bf64508e966f0ull}, {106, 0xf058a0b0c0cdab0bull}};
  std::vector<std::optional<Time>> bounds;
  for (const auto& [seed, digest] : pins) {
    const auto flows = mesh_population(seed);
    e.e2e_bounds_into(flows, &bounds);
    const auto bounded = std::count_if(
        bounds.begin(), bounds.end(),
        [](const std::optional<Time>& b) { return b.has_value(); });
    EXPECT_EQ(bounded, 1536) << seed;
    EXPECT_EQ(bounds_digest(bounds), digest) << seed;
  }
}

// blind_residual against the general view kernels on the same curves:
// seeded rate-latency links under token-bucket cross traffic, including a
// zero burst, a zero rate and a cross rate 0.1-1.1% below the link rate,
// chained over 1-30 hops. Latencies agree within 1e-12 relative. The
// kernel derives a residual rate as the difference of two service values
// of magnitude M = R * (1 + latency), so its rate carries rounding of
// order 1e-16 * M; rates are compared at 1e-14 * M. (Closer to the link
// rate, that rounding also moves the kernel's latency by more than 1e-12.)
// The closed form itself is checked against long double arithmetic at
// 1e-12 relative.
TEST(E2eClosedForm, ResidualsAndChainsMatchTheViewKernels) {
  nc::Arena arena;
  Rng rng(2021);
  for (int trial = 0; trial < 3000; ++trial) {
    arena.reset();
    const int hops = 1 + trial % 30;
    nc::CurveView kernel_chain{};
    nc::RateLatency chain{std::numeric_limits<double>::infinity(), 0.0};
    double chain_rate_tol = 0.0;
    for (int h = 0; h < hops; ++h) {
      const nc::RateLatency link{0.05 + rng.next_double(),
                                 0.5 + 30.0 * rng.next_double()};
      nc::TokenBucket cross{20.0 * rng.next_double(),
                            0.9 * link.rate * rng.next_double()};
      switch ((trial + h) % 5) {
        case 0:
          cross.burst = 0.0;
          break;
        case 1:
          cross.rate = 0.0;
          break;
        case 2:
          cross.rate = link.rate * (1.0 - 1e-2 * (0.1 + rng.next_double()));
          break;
        default:
          break;
      }
      const nc::RateLatency closed = blind_residual(link, cross);
      const long double exact_rate =
          static_cast<long double>(link.rate) - cross.rate;
      const long double exact_latency =
          link.latency +
          (cross.burst + static_cast<long double>(cross.rate) * link.latency) /
              exact_rate;
      EXPECT_NEAR(closed.rate, exact_rate, 1e-12 * exact_rate);
      EXPECT_NEAR(closed.latency, exact_latency, 1e-12 * exact_latency);

      const nc::CurveView kernel = nc::residual_blind_view(
          arena, nc::rate_latency_view(arena, link.rate, link.latency),
          nc::affine_view(arena, cross.burst, cross.rate));
      ASSERT_EQ(kernel.n, 2u) << trial << "/" << h;
      const double rate_tol = 1e-14 * link.rate * (1.0 + closed.latency);
      EXPECT_NEAR(kernel.final_slope(), closed.rate, rate_tol)
          << trial << "/" << h;
      EXPECT_NEAR(kernel.x[1], closed.latency, 1e-12 * closed.latency)
          << trial << "/" << h;

      kernel_chain =
          h == 0 ? kernel : nc::convolve_view(arena, kernel_chain, kernel);
      chain.rate = std::min(chain.rate, closed.rate);
      chain.latency += closed.latency;
      chain_rate_tol = std::max(chain_rate_tol, rate_tol);
    }
    ASSERT_EQ(kernel_chain.n, 2u) << trial;
    EXPECT_NEAR(kernel_chain.final_slope(), chain.rate, chain_rate_tol)
        << trial;
    EXPECT_NEAR(kernel_chain.x[1], chain.latency, 1e-12 * chain.latency)
        << trial;
  }
}

// The closed-form deviations against a rate-latency curve are bit-equal to
// the deviation kernel on the same curves: rate_latency_deviation always
// (the final bound of a NoC-only flow), link_delay wherever the kernel's
// deviation is finite and the bucket is not identically zero (the
// fixpoint's link delay). Cases: zero and sub-kEps bursts, zero rates,
// rates at, just above and well above the link rate, and link rates
// within kEps of 0.
TEST(E2eClosedForm, DeviationsAreBitEqualToTheKernel) {
  nc::Arena arena;
  Rng rng(7);
  for (int trial = 0; trial < 20000; ++trial) {
    arena.reset();
    nc::RateLatency link{0.05 + rng.next_double(),
                         0.5 + 30.0 * rng.next_double()};
    nc::TokenBucket alpha{50.0 * rng.next_double(),
                          link.rate * rng.next_double()};
    switch (trial % 9) {
      case 0:
        alpha.burst = 0.0;
        break;
      case 1:
        alpha.burst = 1e-9 * rng.next_double();
        break;
      case 2:
        alpha.rate = 0.0;
        break;
      case 3:
        alpha.rate = link.rate;
        break;
      case 4:
        alpha.rate = link.rate + 1e-9 * rng.next_double();
        break;
      case 5:
        alpha.rate = link.rate * (1.0 + rng.next_double());
        break;
      case 6:
        alpha = nc::TokenBucket{0.0, 0.0};
        break;
      case 7:
        link.rate = 1e-9 * rng.next_double();
        alpha.rate = link.rate * rng.next_double();
        if (trial % 2 == 0) alpha = nc::TokenBucket{0.0, 0.0};
        break;
      default:
        break;
    }
    const auto h = nc::h_deviation_view(
        nc::affine_view(arena, alpha.burst, alpha.rate),
        nc::rate_latency_view(arena, link.rate, link.latency));
    const auto closed = rate_latency_deviation(alpha, link);
    ASSERT_EQ(closed.has_value(), h.has_value()) << trial;
    if (!h) continue;
    EXPECT_EQ(*closed, *h) << trial;
    if (alpha.burst > 0.0 || alpha.rate > 0.0) {
      EXPECT_EQ(link_delay(link, alpha.burst), *h) << trial;
    }
  }
}

}  // namespace
}  // namespace pap::core
