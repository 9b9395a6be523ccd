// End-to-end admission control: accept/reject decisions, protection of
// already-admitted applications, release.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "core/admission.hpp"
#include "noc/topology.hpp"

namespace pap::core {
namespace {

PlatformModel model() {
  PlatformModel m;
  m.noc.cols = 4;
  m.noc.rows = 4;
  return m;
}

AppRequirement app(noc::AppId id, double burst, double rate, noc::NodeId src,
                   noc::NodeId dst, Time deadline, bool dram = false) {
  AppRequirement a;
  a.app = id;
  a.name = "app" + std::to_string(id);
  a.traffic = nc::TokenBucket{burst, rate};
  a.src = src;
  a.dst = dst;
  a.deadline = deadline;
  a.uses_dram = dram;
  return a;
}

TEST(Admission, AdmitsFeasibleApp) {
  AdmissionController ac(model());
  const auto grant = ac.request(app(1, 2, 0.001, 0, 3, Time::us(10)));
  ASSERT_TRUE(grant.has_value());
  EXPECT_EQ(grant.value().app, 1u);
  EXPECT_LE(grant.value().e2e_bound, Time::us(10));
  EXPECT_EQ(ac.admitted().size(), 1u);
  EXPECT_EQ(ac.admissions(), 1u);
}

TEST(Admission, RejectsInfeasibleDeadline) {
  AdmissionController ac(model());
  // A deadline below the zero-load path latency can never be proven.
  const auto grant = ac.request(app(1, 2, 0.001, 0, 15, Time::ns(10)));
  EXPECT_FALSE(grant.has_value());
  EXPECT_EQ(ac.admitted().size(), 0u);
  EXPECT_EQ(ac.rejections(), 1u);
}

TEST(Admission, ProtectsAdmittedApps) {
  AdmissionController ac(model());
  // First app has a tight-but-feasible deadline on the shared row.
  const auto a = app(1, 1, 0.001, 0, 3, Time::ns(120));
  ASSERT_TRUE(ac.request(a).has_value());
  // A heavy newcomer sharing the path would break app 1: reject it.
  const auto hog = app(2, 16, 0.1, 1, 3, Time::ms(10));
  const auto grant = ac.request(hog);
  EXPECT_FALSE(grant.has_value());
  EXPECT_NE(grant.error_message().find("app1"), std::string::npos);
  // App 1 is untouched.
  EXPECT_EQ(ac.admitted().size(), 1u);
  ASSERT_TRUE(ac.current_bound(1).has_value());
  EXPECT_LE(*ac.current_bound(1), a.deadline);
}

TEST(Admission, DuplicateAppRejected) {
  AdmissionController ac(model());
  ASSERT_TRUE(ac.request(app(1, 1, 0.001, 0, 3, Time::us(10))).has_value());
  EXPECT_FALSE(ac.request(app(1, 1, 0.001, 0, 3, Time::us(10))).has_value());
}

TEST(Admission, ReleaseMakesRoom) {
  AdmissionController ac(model());
  const auto a = app(1, 1, 0.002, 0, 3, Time::ns(150));
  const auto b = app(2, 8, 0.05, 1, 3, Time::us(50));
  ASSERT_TRUE(ac.request(a).has_value());
  EXPECT_FALSE(ac.request(b).has_value());
  ASSERT_TRUE(ac.release(1).is_ok());
  EXPECT_TRUE(ac.request(b).has_value());
  EXPECT_FALSE(ac.release(1).is_ok());  // already gone
}

TEST(Admission, SaturationRejectedEvenWithLooseDeadlines) {
  AdmissionController ac(model());
  // Link rate is 1/8 packets/ns; three flows at 0.05 each over the same
  // link exceed it: the third must be rejected regardless of deadlines.
  ASSERT_TRUE(ac.request(app(1, 1, 0.05, 0, 3, Time::ms(100))).has_value());
  ASSERT_TRUE(ac.request(app(2, 1, 0.05, 1, 3, Time::ms(100))).has_value());
  const auto third = ac.request(app(3, 1, 0.05, 2, 3, Time::ms(100)));
  EXPECT_FALSE(third.has_value());
}

TEST(Admission, DisjointAppsAdmittedIndependently) {
  AdmissionController ac(model());
  noc::Mesh2D mesh(4, 4);
  for (int row = 0; row < 4; ++row) {
    const auto a = app(static_cast<noc::AppId>(row + 1), 2, 0.01,
                       mesh.node(0, row), mesh.node(3, row), Time::us(10));
    EXPECT_TRUE(ac.request(a).has_value()) << "row " << row;
  }
  EXPECT_EQ(ac.admitted().size(), 4u);
}

TEST(Admission, BoundsTightenAfterRelease) {
  AdmissionController ac(model());
  const auto a = app(1, 2, 0.005, 0, 3, Time::us(20));
  const auto b = app(2, 2, 0.02, 1, 3, Time::us(20));
  ASSERT_TRUE(ac.request(a).has_value());
  ASSERT_TRUE(ac.request(b).has_value());
  const auto contested = ac.current_bound(1);
  ASSERT_TRUE(ac.release(2).is_ok());
  const auto alone = ac.current_bound(1);
  ASSERT_TRUE(contested && alone);
  EXPECT_LT(*alone, *contested);
}

TEST(Admission, RouteComputationFallsBackToYx) {
  // Saturate the XY middle of a diagonal pair with admitted traffic, then
  // request a flow whose XY route is blocked: it must come back admitted
  // on the YX order (whose middle links are disjoint).
  AdmissionController ac(model());
  noc::Mesh2D mesh(4, 4);
  // Hog the east links of row 0 hard (0,0)->(3,0): just under saturation.
  auto hog = app(9, 2, 0.055, mesh.node(0, 0), mesh.node(3, 0), Time::ms(10));
  ASSERT_TRUE(ac.request(hog).has_value());
  auto hog2 = app(8, 2, 0.055, mesh.node(1, 0), mesh.node(3, 0), Time::ms(10));
  ASSERT_TRUE(ac.request(hog2).has_value());
  // Diagonal flow (0,0)->(3,2): XY shares row 0's east links (saturating
  // them); YX goes north first and only joins row 2.
  auto diag = app(1, 2, 0.02, mesh.node(0, 0), mesh.node(3, 2), Time::ms(10));
  const auto grant = ac.request(diag);
  ASSERT_TRUE(grant.has_value()) << grant.error_message();
  EXPECT_EQ(grant.value().route_order, noc::Mesh2D::RouteOrder::kYX);
}

TEST(Admission, RejectionMentionsAlternateRoute) {
  AdmissionController ac(model());
  // Deadline below zero-load: no route order can help.
  const auto grant = ac.request(app(1, 2, 0.001, 0, 15, Time::ns(10)));
  ASSERT_FALSE(grant.has_value());
  EXPECT_NE(grant.error_message().find("alternate route"), std::string::npos);
}

TEST(Admission, DramAppsAccountedAtTheController) {
  PlatformModel m = model();
  m.dram_service_depth = 16;
  AdmissionController ac(m);
  const auto a = app(1, 2, 0.0005, 0, 5, Time::us(50), /*dram=*/true);
  const auto grant = ac.request(a);
  ASSERT_TRUE(grant.has_value());
  // DRAM worst case (misses + hit block + refresh, ~450 ns) dominates the
  // NoC path (~36 ns).
  EXPECT_GT(grant.value().e2e_bound, Time::ns(300));
  // And it exceeds the same app's NoC-only bound.
  auto noc_only = a;
  noc_only.uses_dram = false;
  ASSERT_TRUE(ac.release(1).is_ok());
  const auto g2 = ac.request(noc_only);
  ASSERT_TRUE(g2.has_value());
  EXPECT_GT(grant.value().e2e_bound, g2.value().e2e_bound);
}

// The Fig. 6 request sequence of bench/fig6_e2e_admission, with the bounds
// it prints pinned in picoseconds: first the bound each decision proves,
// then every admitted app's bound under the final mix. Any arithmetic
// change in the NC kernels or the e2e pipeline fails here.
TEST(Admission, Fig6BoundsArePinnedInPicoseconds) {
  AdmissionController ac(model());
  noc::Mesh2D mesh(4, 4);
  const std::vector<AppRequirement> requests{
      app(1, 2, 1.0 / 300.0, mesh.node(0, 0), mesh.node(3, 0), Time::us(2)),
      app(2, 2, 1.0 / 400.0, mesh.node(0, 1), mesh.node(3, 0), Time::us(2)),
      app(3, 2, 1.0 / 500.0, mesh.node(1, 1), mesh.node(3, 0), Time::us(2)),
      app(4, 8, 1.0 / 7.0, mesh.node(2, 1), mesh.node(3, 0), Time::us(2)),
      app(5, 2, 1.0 / 350.0, mesh.node(0, 2), mesh.node(3, 2), Time::us(2)),
      app(6, 4, 1.0 / 60.0, mesh.node(1, 0), mesh.node(3, 0), Time::ns(300)),
  };
  const std::optional<std::int64_t> decision_ps[] = {
      38000, 62320, 132313, std::nullopt, 38000, 150019};
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const auto grant = ac.request(requests[i]);
    ASSERT_EQ(grant.has_value(), decision_ps[i].has_value()) << "app" << i + 1;
    if (grant) {
      EXPECT_EQ(grant.value().e2e_bound.picos(), *decision_ps[i])
          << "app" << i + 1;
    }
  }
  const std::pair<noc::AppId, std::int64_t> mix_ps[] = {
      {1, 246382}, {2, 210937}, {3, 210065}, {5, 38000}, {6, 150019}};
  for (const auto& [id, ps] : mix_ps) {
    const auto bound = ac.current_bound(id);
    ASSERT_TRUE(bound.has_value()) << "app" << id;
    EXPECT_EQ(bound->picos(), ps) << "app" << id;
  }
}

}  // namespace
}  // namespace pap::core
