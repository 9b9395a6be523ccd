// Fixed-priority scheduler simulator: partitioned vs global placement,
// preemption, deadline accounting — plus the task-set utilities.
#include <gtest/gtest.h>

#include "sched/fixed_priority.hpp"
#include "sched/task.hpp"
#include "sim/kernel.hpp"

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

TEST(TaskSet, UtilizationMath) {
  TaskSet s;
  s.tasks = {task(1, Time::ms(10), Time::ms(2), 0, 0),
             task(2, Time::ms(20), Time::ms(5), 1, 0),
             task(3, Time::ms(10), Time::ms(1), 0, 1)};
  EXPECT_EQ(s.max_core(), 1);
}

TEST(Asil, ToString) {
  EXPECT_EQ(to_string(Asil::kQM), "QM");
  EXPECT_EQ(to_string(Asil::kD), "ASIL-D");
}

TEST(FpScheduler, SingleTaskRunsToWcet) {
  sim::Kernel k;
  TaskSet s;
  s.tasks = {task(1, Time::ms(1), Time::us(100), 0)};
  FixedPriorityScheduler sched(k, s, 1,
                               FixedPriorityScheduler::Placement::kPartitioned);
  sched.run_until(Time::ms(5));
  EXPECT_EQ(sched.records().size(), 6u);  // releases at 0..5 ms
  for (const auto& r : sched.records()) {
    EXPECT_EQ(r.response(), Time::us(100));
    EXPECT_TRUE(r.deadline_met());
  }
}

TEST(FpScheduler, HigherPriorityPreempts) {
  sim::Kernel k;
  TaskSet s;
  // Low-priority long task released at 0; high-priority task every 200 us.
  s.tasks = {task(1, Time::ms(10), Time::us(500), 5),
             task(2, Time::us(200), Time::us(50), 0)};
  FixedPriorityScheduler sched(k, s, 1,
                               FixedPriorityScheduler::Placement::kPartitioned);
  sched.run_until(Time::ms(1));
  EXPECT_GT(sched.preemptions(), 0u);
  // High-priority task never waits for the low one beyond its own WCET.
  EXPECT_EQ(sched.worst_response(2), Time::us(50));
  // Low task's response includes the preemption interference: 500 us of
  // work + 4 x 50 us interference (high-prio releases at 0, 200, 400, 600).
  EXPECT_EQ(sched.worst_response(1), Time::us(700));
}

TEST(FpScheduler, PartitionedLocalizesInterference) {
  sim::Kernel k;
  TaskSet s;
  // Task 3 on core 1 is unaffected by the storm on core 0.
  s.tasks = {task(1, Time::us(100), Time::us(90), 0, 0),
             task(3, Time::ms(1), Time::us(200), 9, 1)};
  FixedPriorityScheduler sched(k, s, 2,
                               FixedPriorityScheduler::Placement::kPartitioned);
  sched.run_until(Time::ms(4));
  EXPECT_EQ(sched.worst_response(3), Time::us(200));
}

TEST(FpScheduler, GlobalUsesIdleCores) {
  sim::Kernel k;
  TaskSet s;
  // Two equal tasks released together: global placement runs them in
  // parallel on two cores.
  s.tasks = {task(1, Time::ms(10), Time::ms(1), 0),
             task(2, Time::ms(10), Time::ms(1), 1)};
  FixedPriorityScheduler sched(k, s, 2,
                               FixedPriorityScheduler::Placement::kGlobal);
  sched.run_until(Time::ms(5));
  EXPECT_EQ(sched.worst_response(1), Time::ms(1));
  EXPECT_EQ(sched.worst_response(2), Time::ms(1));
}

TEST(FpScheduler, GlobalPreemptsLowestPriorityCore) {
  sim::Kernel k;
  TaskSet s;
  s.tasks = {task(1, Time::ms(10), Time::ms(2), 5),
             task(2, Time::ms(10), Time::ms(2), 6),
             task(3, Time::ms(10), Time::us(100), 0)};
  s.tasks[2].jitter = Time::us(500);  // released while 1 and 2 occupy cores
  FixedPriorityScheduler sched(k, s, 2,
                               FixedPriorityScheduler::Placement::kGlobal);
  sched.run_until(Time::ms(5));
  // Task 3 preempts the lower-priority of the two running tasks.
  EXPECT_EQ(sched.worst_response(3), Time::us(100));
  EXPECT_GT(sched.preemptions(), 0u);
}

TEST(FpScheduler, DeadlineMissesDetected) {
  sim::Kernel k;
  TaskSet s;
  // Overloaded core: U > 1.
  s.tasks = {task(1, Time::ms(1), Time::us(700), 0),
             task(2, Time::ms(1), Time::us(700), 1)};
  FixedPriorityScheduler sched(k, s, 1,
                               FixedPriorityScheduler::Placement::kPartitioned);
  sched.run_until(Time::ms(10));
  EXPECT_GT(sched.deadline_misses(), 0u);
}

TEST(FpScheduler, ResponseTimeHistogramPerTask) {
  sim::Kernel k;
  TaskSet s;
  s.tasks = {task(1, Time::ms(1), Time::us(100), 0)};
  FixedPriorityScheduler sched(k, s, 1,
                               FixedPriorityScheduler::Placement::kPartitioned);
  sched.run_until(Time::ms(3));
  const auto h = sched.response_times(1);
  EXPECT_EQ(h.count(), 4u);
  EXPECT_EQ(h.max(), Time::us(100));
}

// Property: for a schedulable partitioned set, simulation response times
// never exceed the deadline across a sweep of utilizations.
class FpSweep : public ::testing::TestWithParam<int> {};

TEST_P(FpSweep, SchedulableSetsMeetDeadlinesInSimulation) {
  const int wcet_us = GetParam();
  sim::Kernel k;
  TaskSet s;
  s.tasks = {task(1, Time::ms(1), Time::us(wcet_us), 0),
             task(2, Time::ms(2), Time::us(2 * wcet_us), 1),
             task(3, Time::ms(4), Time::us(wcet_us), 2)};
  FixedPriorityScheduler sched(k, s, 1,
                               FixedPriorityScheduler::Placement::kPartitioned);
  sched.run_until(Time::ms(40));
  EXPECT_EQ(sched.deadline_misses(), 0u) << "wcet " << wcet_us << " us";
}

INSTANTIATE_TEST_SUITE_P(Utilizations, FpSweep,
                         ::testing::Values(50, 100, 200, 300));

}  // namespace
}  // namespace pap::sched
