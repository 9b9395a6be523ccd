// MPAM hardware bandwidth regulator: limits, continuous accrual, zero
// software overhead, and the SW-vs-HW comparison on the SoC.
#include <gtest/gtest.h>

#include "mpam/regulator.hpp"
#include "platform/scenario.hpp"

namespace pap::mpam {
namespace {

TEST(BwRegulator, UnregulatedPartIdsPassThrough) {
  BandwidthRegulator reg;
  EXPECT_EQ(reg.admit(5, Time::ns(100)), Time::ns(100));
  EXPECT_FALSE(reg.limited(5));
  EXPECT_EQ(reg.throttled_requests(5), 0u);
}

TEST(BwRegulator, LimitValidation) {
  BandwidthRegulator reg;
  EXPECT_FALSE(reg.set_limit(1, Rate::gbps(0), 8).is_ok());
  EXPECT_FALSE(reg.set_limit(1, Rate::gbps(1), 0.5).is_ok());
  EXPECT_TRUE(reg.set_limit(1, Rate::gbps(1), 8).is_ok());
  EXPECT_TRUE(reg.limited(1));
  reg.clear_limit(1);
  EXPECT_FALSE(reg.limited(1));
}

TEST(BwRegulator, BurstThenContinuousAccrual) {
  BandwidthRegulator reg(64);
  // 4 Gbps over 64-byte requests: one request per 128 ns; burst 2.
  ASSERT_TRUE(reg.set_limit(1, Rate::gbps(4), 2.0).is_ok());
  EXPECT_EQ(reg.admit(1, Time::zero()), Time::zero());
  EXPECT_EQ(reg.admit(1, Time::zero()), Time::zero());
  // Third request: exactly one accrual period later — no period rounding.
  EXPECT_EQ(reg.admit(1, Time::zero()), Time::ns(128));
  EXPECT_EQ(reg.throttled_requests(1), 1u);
  // Fourth queues right behind the third.
  EXPECT_EQ(reg.admit(1, Time::zero()), Time::ns(256));
}

TEST(BwRegulator, LongRunRateIsEnforced) {
  BandwidthRegulator reg(64);
  ASSERT_TRUE(reg.set_limit(2, Rate::gbps(2), 4.0).is_ok());
  // Greedy requester: admit 1000 back-to-back requests.
  Time t;
  for (int i = 0; i < 1000; ++i) t = reg.admit(2, Time::zero());
  // 2 Gbps = 1 request / 256 ns; 1000 requests take >= ~996 * 256 ns.
  EXPECT_GE(t, Time::ns(256) * 995);
}

TEST(BwRegulator, ZeroSoftwareOverheadByConstruction) {
  BandwidthRegulator reg;
  ASSERT_TRUE(reg.set_limit(1, Rate::gbps(1), 8).is_ok());
  for (int i = 0; i < 100; ++i) reg.admit(1, Time::zero());
  EXPECT_EQ(reg.total_overhead(), Time::zero());
}

TEST(BwRegulator, ReconfigurationAtRuntime) {
  BandwidthRegulator reg(64);
  ASSERT_TRUE(reg.set_limit(1, Rate::gbps(4), 1.0).is_ok());
  reg.admit(1, Time::zero());
  // Tighten to 1 Gbps: next request at the new 512 ns spacing (from the
  // already-reserved shaper state).
  ASSERT_TRUE(reg.set_limit(1, Rate::gbps(1), 1.0).is_ok());
  const Time next = reg.admit(1, Time::zero());
  EXPECT_GE(next, Time::ns(512));
}

TEST(BwRegulator, SwVsHwScenarioComparison) {
  // Section III-C's efficiency claim, executed: the HW regulator isolates
  // the RT workload at least as well as the same budget under Memguard,
  // at zero software overhead.
  platform::ScenarioConfig config = {
      .hogs = 3, .memguard = true, .sim_time = Time::ms(1)};
  const auto memguard = platform::run_scenario(config, "memguard").value();

  config.memguard = false;
  config.mpam_bw = true;
  const auto mpam = platform::run_scenario(config, "mpam").value();

  EXPECT_GT(mpam.mpam_throttles, 0u);
  EXPECT_EQ(mpam.memguard_overhead, Time::zero());
  EXPECT_GT(memguard.memguard_overhead, Time::zero());
  // Comparable isolation: HW p99 within 1.5x of the SW mechanism's.
  EXPECT_LE(mpam.rt_latency.percentile(99).nanos(),
            memguard.rt_latency.percentile(99).nanos() * 1.5);
}

}  // namespace
}  // namespace pap::mpam
