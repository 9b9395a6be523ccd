// The reservation -> NC bridge: task arrival curves and reservation
// supply curves composed into a delay bound.
#include <gtest/gtest.h>

#include "sched/analysis.hpp"

namespace pap::sched {
namespace {

PeriodicTask task(TaskId id, Time period, Time wcet, int prio, int core = 0) {
  PeriodicTask t;
  t.id = id;
  t.period = period;
  t.wcet = wcet;
  t.priority = prio;
  t.core = core;
  return t;
}

TEST(NcBridge, TaskArrivalCurve) {
  PeriodicTask t = task(1, Time::ms(10), Time::ms(2), 0);
  const auto alpha = task_arrival_curve(t);
  // Affine bound: wcet * (1 + t/period).
  EXPECT_NEAR(alpha.eval(0.0), Time::ms(2).nanos(), 1e-3);
  EXPECT_NEAR(alpha.eval(Time::ms(10).nanos()), 2.0 * Time::ms(2).nanos(),
              1e-3);
}

TEST(NcBridge, ReservationDelayBound) {
  const CbsParams params{Time::ms(2), Time::ms(10)};
  PeriodicTask t = task(1, Time::ms(40), Time::ms(2), 0);
  const auto bound =
      reservation_delay_bound(task_arrival_curve(t), params);
  ASSERT_TRUE(bound.has_value());
  // Latency 2(P-Q) = 16 ms plus burst service 2 ms / 0.2 = 10 ms => 26 ms,
  // plus the affine bound's rate contribution: stays in the ballpark.
  EXPECT_GT(*bound, Time::ms(16));
  EXPECT_LT(*bound, Time::ms(40));
}

TEST(NcBridge, OverloadedReservationUnbounded) {
  const CbsParams params{Time::ms(1), Time::ms(10)};  // 10% bandwidth
  PeriodicTask t = task(1, Time::ms(10), Time::ms(2), 0);  // needs 20%
  EXPECT_FALSE(
      reservation_delay_bound(task_arrival_curve(t), params).has_value());
}

}  // namespace
}  // namespace pap::sched
