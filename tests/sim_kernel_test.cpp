// Unit tests for the discrete-event simulation kernel.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/rng.hpp"
#include "sim/kernel.hpp"

namespace pap::sim {
namespace {

TEST(Kernel, RunsEventsInTimeOrder) {
  Kernel k;
  std::vector<int> order;
  k.schedule_at(Time::ns(30), [&] { order.push_back(3); });
  k.schedule_at(Time::ns(10), [&] { order.push_back(1); });
  k.schedule_at(Time::ns(20), [&] { order.push_back(2); });
  k.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(k.now(), Time::ns(30));
  EXPECT_EQ(k.events_executed(), 3u);
}

TEST(Kernel, SameTimestampUsesPriorityThenInsertionOrder) {
  Kernel k;
  std::vector<int> order;
  k.schedule_at(Time::ns(5), [&] { order.push_back(1); }, /*priority=*/0);
  k.schedule_at(Time::ns(5), [&] { order.push_back(2); }, /*priority=*/-1);
  k.schedule_at(Time::ns(5), [&] { order.push_back(3); }, /*priority=*/0);
  k.run();
  EXPECT_EQ(order, (std::vector<int>{2, 1, 3}));
}

TEST(Kernel, ScheduleAsOfTakesTheInsertionOrderOfItsInstant) {
  Kernel k;
  std::vector<char> order;
  const Time at = Time::ns(10);
  auto mark = [&order](char c) { return [&order, c] { order.push_back(c); }; };
  k.schedule_at(at, mark('a'));
  // Inserted as of 5 ns, though scheduled at 0.
  k.schedule_as_of(Time::ns(5), at, mark('c'));
  // Scheduled at 3 ns: before the as-of instant, so ahead of 'c'.
  k.schedule_at(Time::ns(3), [&] { k.schedule_at(at, mark('b')); });
  // Scheduled at 5 ns and 7 ns: at or after it, so behind 'c'.
  k.schedule_at(Time::ns(5), [&] { k.schedule_at(at, mark('d')); });
  k.schedule_at(Time::ns(7), [&] { k.schedule_at(at, mark('e')); });
  // Priority still comes first.
  k.schedule_as_of(Time::ns(5), at, mark('z'), /*priority=*/1);
  k.run();
  EXPECT_EQ(order, (std::vector<char>{'a', 'b', 'c', 'd', 'e', 'z'}));
}

TEST(Kernel, ScheduleInIsRelative) {
  Kernel k;
  Time seen;
  k.schedule_at(Time::ns(10), [&] {
    k.schedule_in(Time::ns(5), [&] { seen = k.now(); });
  });
  k.run();
  EXPECT_EQ(seen, Time::ns(15));
}

TEST(Kernel, RunUntilStopsAtHorizonInclusive) {
  Kernel k;
  int ran = 0;
  k.schedule_at(Time::ns(10), [&] { ++ran; });
  k.schedule_at(Time::ns(20), [&] { ++ran; });
  k.schedule_at(Time::ns(21), [&] { ++ran; });
  const auto n = k.run(Time::ns(20));
  EXPECT_EQ(n, 2u);
  EXPECT_EQ(ran, 2);
  EXPECT_FALSE(k.empty());
  k.run();
  EXPECT_EQ(ran, 3);
}

TEST(Kernel, CancelPreventsExecution) {
  Kernel k;
  bool fired = false;
  const auto id = k.schedule_at(Time::ns(10), [&] { fired = true; });
  EXPECT_TRUE(k.cancel(id));
  EXPECT_FALSE(k.cancel(id));  // double-cancel rejected
  k.run();
  EXPECT_FALSE(fired);
  EXPECT_TRUE(k.empty());
}

TEST(Kernel, CancelOfFiredEventIsSafeNoOp) {
  Kernel k;
  const auto id = k.schedule_at(Time::ns(1), [] {});
  bool late_fired = false;
  k.schedule_at(Time::ns(2), [&] { late_fired = true; });
  k.run(Time::ns(1));
  // The event already ran: cancelling its stale handle must do nothing.
  EXPECT_FALSE(k.cancel(id));
  EXPECT_FALSE(k.empty());  // the ns(2) event is still live
  k.run();
  EXPECT_TRUE(late_fired);
  EXPECT_TRUE(k.empty());
}

TEST(Kernel, EmptyReflectsCancellations) {
  Kernel k;
  const auto a = k.schedule_at(Time::ns(1), [] {});
  const auto b = k.schedule_at(Time::ns(2), [] {});
  EXPECT_FALSE(k.empty());
  EXPECT_TRUE(k.cancel(a));
  EXPECT_TRUE(k.cancel(b));
  EXPECT_TRUE(k.empty());
  k.run();
  EXPECT_EQ(k.events_executed(), 0u);
}

TEST(Kernel, EventsScheduledDuringRunExecute) {
  Kernel k;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 5) k.schedule_in(Time::ns(1), recurse);
  };
  k.schedule_at(Time::ns(0), recurse);
  k.run();
  EXPECT_EQ(depth, 5);
  EXPECT_EQ(k.now(), Time::ns(4));
}

TEST(Kernel, DeterministicAcrossRuns) {
  auto run_once = [] {
    Kernel k;
    std::vector<std::int64_t> trace;
    for (int i = 0; i < 50; ++i) {
      k.schedule_at(Time::ns(100 - i), [&trace, &k] {
        trace.push_back(k.now().picos());
      });
    }
    k.run();
    return trace;
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(PeriodicEvent, FiresAtPeriod) {
  Kernel k;
  std::vector<std::int64_t> fires;
  PeriodicEvent p(k, Time::ns(10), Time::ns(5),
                  [&] { fires.push_back(k.now().picos()); });
  k.run(Time::ns(26));
  EXPECT_EQ(fires, (std::vector<std::int64_t>{10'000, 15'000, 20'000, 25'000}));
  p.stop();
}

TEST(PeriodicEvent, StopEndsSeries) {
  Kernel k;
  int count = 0;
  PeriodicEvent p(k, Time::ns(0), Time::ns(10), [&] { ++count; });
  k.run(Time::ns(25));
  p.stop();
  k.run();
  EXPECT_EQ(count, 3);  // at 0, 10, 20
  EXPECT_FALSE(p.running());
}

TEST(PeriodicEvent, StaleHandleStaysDeadAcrossPeriodicChurn) {
  // A PeriodicEvent reschedules itself on every firing, churning through
  // event sequence numbers. A handle to an event that already fired must
  // keep reporting false from cancel() no matter how much churn follows —
  // stale handles never alias a live (rescheduled) event.
  Kernel k;
  bool fired = false;
  const auto id = k.schedule_at(Time::ns(1), [&] { fired = true; });
  int fires = 0;
  PeriodicEvent p(k, Time::ns(0), Time::ns(2), [&] { ++fires; });
  k.run(Time::ns(9));
  EXPECT_TRUE(fired);
  EXPECT_EQ(fires, 5);  // at 0, 2, 4, 6, 8
  EXPECT_FALSE(k.cancel(id));  // fired long ago
  EXPECT_FALSE(k.empty());     // the periodic's next firing is still live
  p.stop();
  EXPECT_TRUE(k.empty());      // stop cancelled the pending firing
  EXPECT_FALSE(k.cancel(id));  // still a safe no-op after the stop
  p.stop();                    // idempotent
  EXPECT_FALSE(p.running());
}

TEST(Kernel, CancelThenDrainManyEventsStaysFast) {
  // Regression: cancelled events used to sit in a vector the kernel
  // linearly scanned for every surfacing event, turning a cancel-heavy
  // drain quadratic. 100k cancelled tombstones must drain essentially
  // instantly (the ctest timeout would catch an O(n^2) relapse — at 100k
  // events the old scan cost ~10^10 comparisons).
  Kernel k;
  constexpr int kN = 100'000;
  std::vector<EventId> ids;
  ids.reserve(kN);
  int fired = 0;
  for (int i = 0; i < kN; ++i) {
    ids.push_back(k.schedule_at(Time::ns(i + 1), [&] { ++fired; }));
  }
  // Cancel all but every 1000th event, worst case for tombstone lookups.
  int live = 0;
  for (int i = 0; i < kN; ++i) {
    if (i % 1000 == 0) {
      ++live;
      continue;
    }
    EXPECT_TRUE(k.cancel(ids[static_cast<std::size_t>(i)]));
  }
  EXPECT_FALSE(k.empty());
  k.run();
  EXPECT_EQ(fired, live);
  EXPECT_TRUE(k.empty());
  // Tombstones for drained events are forgotten: stale cancels stay no-ops.
  EXPECT_FALSE(k.cancel(ids[1]));
  EXPECT_EQ(k.events_executed(), static_cast<std::uint64_t>(live));
}

TEST(PeriodicEvent, StopFromInsideCallback) {
  Kernel k;
  int count = 0;
  PeriodicEvent* handle = nullptr;
  PeriodicEvent p(k, Time::ns(0), Time::ns(1), [&] {
    if (++count == 3) handle->stop();
  });
  handle = &p;
  k.run();
  EXPECT_EQ(count, 3);
}

TEST(Kernel, CancelThenRescheduleReusesStorageSafely) {
  // The pooled-slot kernel recycles an event's slot as soon as it is
  // cancelled; a handle to the dead event must stay dead even when a new
  // event occupies the same slot.
  Kernel k;
  int first = 0;
  int second = 0;
  auto id1 = k.schedule_at(Time::ns(10), [&first] { ++first; });
  EXPECT_TRUE(k.cancel(id1));
  auto id2 = k.schedule_at(Time::ns(5), [&second] { ++second; });
  // Cancelling the stale handle again must not kill the new event.
  EXPECT_FALSE(k.cancel(id1));
  k.run();
  EXPECT_EQ(first, 0);
  EXPECT_EQ(second, 1);
  EXPECT_FALSE(k.cancel(id2));  // already ran
}

TEST(Kernel, CancelDuringSameTimestampDrain) {
  // Events at one timestamp run as a batch; an earlier event in the batch
  // may cancel a later one, which must be honoured (the cancelled event is
  // removed from the heap in place, not tombstoned past the pop).
  Kernel k;
  int fired = 0;
  EventId victim = k.schedule_at(Time::ns(7), [&fired] { fired += 100; },
                                 /*priority=*/5);
  k.schedule_at(Time::ns(7), [&] { EXPECT_TRUE(k.cancel(victim)); ++fired; },
                /*priority=*/0);
  k.schedule_at(Time::ns(7), [&fired] { ++fired; }, /*priority=*/1);
  EXPECT_EQ(k.run(), 2u);
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(k.now(), Time::ns(7));
}

TEST(Kernel, ScheduleAtNowDuringDrainJoinsTheBatch) {
  // A handler scheduling at the current timestamp extends the running batch
  // in (priority, insertion) order.
  Kernel k;
  std::vector<int> order;
  k.schedule_at(Time::ns(3), [&] {
    order.push_back(0);
    k.schedule_at(Time::ns(3), [&order] { order.push_back(2); });
    k.schedule_in(Time::zero(), [&order] { order.push_back(3); });
  });
  k.schedule_at(Time::ns(3), [&order] { order.push_back(1); });
  k.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(k.now(), Time::ns(3));
}

TEST(Kernel, RandomizedAgainstSortedVectorReference) {
  // Model check of the indexed 4-ary heap: a few thousand random schedule /
  // cancel operations mirrored into a naive sorted-vector event list; the
  // execution order (observed via a shared log) must match exactly.
  struct RefEvent {
    Time at;
    int priority;
    std::uint64_t seq;
    int tag;
  };
  Rng rng(0xDECADE01u);
  for (int round = 0; round < 20; ++round) {
    Kernel k;
    std::vector<RefEvent> ref;
    std::vector<int> got;
    std::vector<EventId> ids;
    std::vector<std::uint64_t> ref_seqs;
    std::uint64_t seq = 0;
    const int ops = 400;
    for (int i = 0; i < ops; ++i) {
      if (!ids.empty() && rng.chance(0.3)) {
        // Cancel a random previously issued handle (may already be stale
        // in neither / both structures — keep them in lockstep).
        const auto pick = static_cast<std::size_t>(
            rng.uniform(0, static_cast<std::int64_t>(ids.size()) - 1));
        const bool cancelled = k.cancel(ids[pick]);
        const auto it = std::find_if(
            ref.begin(), ref.end(),
            [&](const RefEvent& e) { return e.seq == ref_seqs[pick]; });
        EXPECT_EQ(cancelled, it != ref.end());
        if (it != ref.end()) ref.erase(it);
      } else {
        const Time at = Time::ns(rng.uniform(0, 200));
        const int priority = static_cast<int>(rng.uniform(-2, 2));
        const int tag = static_cast<int>(++seq);
        ids.push_back(k.schedule_at(at, [&got, tag] { got.push_back(tag); },
                                    priority));
        ref.push_back(RefEvent{at, priority, seq, tag});
        ref_seqs.push_back(seq);
      }
    }
    k.run();
    std::sort(ref.begin(), ref.end(), [](const RefEvent& a, const RefEvent& b) {
      if (a.at != b.at) return a.at < b.at;
      if (a.priority != b.priority) return a.priority < b.priority;
      return a.seq < b.seq;
    });
    std::vector<int> want;
    want.reserve(ref.size());
    for (const auto& e : ref) want.push_back(e.tag);
    ASSERT_EQ(got, want) << "round " << round;
  }
}

}  // namespace
}  // namespace pap::sim
