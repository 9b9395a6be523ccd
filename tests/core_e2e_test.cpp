// End-to-end composition analysis: link residuals, path convolution, DRAM
// service integration, and validation against the NoC simulator.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

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
  const auto links = e.links_of(a);
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

}  // namespace
}  // namespace pap::core
