// CPA busy-window analysis: event models, blocking, convergence, and the
// comparison against the NC residual-service bound (two independent sound
// analyses of the same configuration).
#include <gtest/gtest.h>

#include "core/cpa.hpp"
#include "nc/bounds.hpp"
#include "nc/ops.hpp"

namespace pap::core::cpa {
namespace {

Flow flow(double burst, double rate, Time c, int prio) {
  return Flow{nc::TokenBucket{burst, rate}, c, prio};
}

TEST(EtaPlus, TokenBucketEventModel) {
  const nc::TokenBucket tb{2.0, 0.01};
  EXPECT_EQ(eta_plus(tb, Time::zero()), 2);
  EXPECT_EQ(eta_plus(tb, Time::ns(100)), 3);
  EXPECT_EQ(eta_plus(tb, Time::ns(150)), 4);  // ceil(3.5)
  EXPECT_EQ(eta_plus(tb, Time::ps(-1)), 0);
}

TEST(Cpa, IsolatedFlowRespondsInServiceTime) {
  const Flow f = flow(1, 0.001, Time::ns(10), 0);
  const auto r = busy_window_wcrt_multi(f, {}, 1);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(*r, Time::ns(10));
}

TEST(Cpa, LowerPriorityBlocksOnce) {
  // Non-preemptive: one lower-priority request can block the head.
  const Flow f = flow(1, 0.0001, Time::ns(10), 0);
  const Flow lp = flow(4, 0.0001, Time::ns(50), 5);
  const auto r = busy_window_wcrt_multi(f, {lp}, 1);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(*r, Time::ns(60));  // one 50 ns blocker + own 10 ns
}

TEST(Cpa, HigherPriorityInterferesRepeatedly) {
  const Flow f = flow(1, 0.0001, Time::ns(10), 5);
  const Flow hp = flow(2, 0.01, Time::ns(10), 0);  // 1 per 100 ns
  const auto r = busy_window_wcrt_multi(f, {hp}, 1);
  ASSERT_TRUE(r.has_value());
  // Burst of 2 (20 ns) + own 10 ns = 30; within 30 ns no further arrival
  // beyond ceil(2 + 0.3) = 3 -> w = 40; eta(40) = 3 stable.
  EXPECT_EQ(*r, Time::ns(40));
}

TEST(Cpa, OverloadHasNoBound) {
  const Flow f = flow(1, 0.001, Time::ns(10), 5);
  const Flow hog = flow(1, 0.2, Time::ns(10), 0);  // U = 2
  EXPECT_FALSE(busy_window_wcrt_multi(f, {hog}, 1).has_value());
}

TEST(Cpa, UtilizationSums) {
  const std::vector<Flow> flows{flow(1, 0.01, Time::ns(10), 0),
                                flow(1, 0.02, Time::ns(20), 1)};
  EXPECT_NEAR(utilization(flows), 0.1 + 0.4, 1e-12);
}

TEST(Cpa, MultiActivationCoversOwnBurst) {
  // A flow with burst 3 queued behind itself: the 3rd activation waits for
  // the first two.
  const Flow f = flow(3, 0.0001, Time::ns(10), 0);
  const auto single = busy_window_wcrt_multi(f, {}, 1);
  const auto multi = busy_window_wcrt_multi(f, {}, 8);
  ASSERT_TRUE(single && multi);
  EXPECT_EQ(*single, Time::ns(10));
  EXPECT_EQ(*multi, Time::ns(30));  // q=3 finishes at 30, arrived at 0
}

TEST(Cpa, MonotoneInInterfererRate) {
  const Flow f = flow(1, 0.0001, Time::ns(10), 5);
  Time prev;
  for (double rate = 0.001; rate <= 0.05; rate += 0.005) {
    const Flow hp = flow(1, rate, Time::ns(10), 0);
    const auto r = busy_window_wcrt_multi(f, {hp}, 1);
    ASSERT_TRUE(r.has_value()) << rate;
    EXPECT_GE(*r, prev) << rate;
    prev = *r;
  }
}

TEST(Cpa, AgreesWithNcWithinPessimismGap) {
  // Same configuration, two sound analyses. Both must upper-bound the
  // truth; for this comparison we check they land within a factor of each
  // other rather than diverging wildly — the "pessimism" the paper's
  // Sec. VI worries about, quantified.
  const Flow f = flow(2, 0.002, Time::ns(8), 0);  // flow of interest
  const Flow o = flow(2, 0.004, Time::ns(8), 0);  // same-priority cross
  const auto cpa_bound = busy_window_wcrt_multi(f, {o}, 8);
  ASSERT_TRUE(cpa_bound.has_value());

  // NC: link of rate 1/8 per ns, blind-multiplexing residual.
  const nc::Curve link = nc::Curve::rate_latency(1.0 / 8.0, 0.0);
  const nc::Curve residual =
      nc::residual_blind(link, o.arrival.to_curve());
  const auto nc_bound = nc::delay_bound(f.arrival.to_curve(), residual);
  ASSERT_TRUE(nc_bound.has_value());

  const double ratio = cpa_bound->nanos() / nc_bound->nanos();
  EXPECT_GT(ratio, 0.2);
  EXPECT_LT(ratio, 5.0);
}

TEST(Cpa, EqualPriorityTreatedAsInterference) {
  // Equal priority counts as interference (conservative round-robin-ish
  // abstraction): bound grows with the number of peers.
  const Flow f = flow(1, 0.0005, Time::ns(10), 3);
  const Flow peer = flow(1, 0.0005, Time::ns(10), 3);
  const auto alone = busy_window_wcrt_multi(f, {}, 1);
  const auto crowded = busy_window_wcrt_multi(f, {peer}, 1);
  ASSERT_TRUE(alone && crowded);
  EXPECT_GT(*crowded, *alone);
}

}  // namespace
}  // namespace pap::core::cpa
