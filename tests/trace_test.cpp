// The observability layer: Tracer semantics, counter registry, Chrome
// trace_event export, and the two load-bearing guarantees — byte-identical
// exports across identical runs, and tracing never perturbing simulation
// results.
#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "common/log.hpp"

#include "platform/scenario.hpp"
#include "sim/kernel.hpp"
#include "trace/chrome_trace.hpp"
#include "trace/counters.hpp"
#include "trace/tracer.hpp"

namespace pap::trace {
namespace {

TEST(CounterRegistry, TracksValueMinMaxAndUpdates) {
  CounterRegistry reg;
  reg.update("dram", "q_depth", 3.0, CounterKind::kGauge);
  reg.update("dram", "q_depth", 7.0, CounterKind::kGauge);
  reg.update("dram", "q_depth", 1.0, CounterKind::kGauge);
  const auto* e = reg.find("dram", "q_depth");
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->value, 1.0);
  EXPECT_EQ(e->min, 1.0);
  EXPECT_EQ(e->max, 7.0);
  EXPECT_EQ(e->updates, 3u);
  EXPECT_EQ(e->kind, CounterKind::kGauge);
  EXPECT_EQ(reg.find("dram", "nope"), nullptr);
  EXPECT_EQ(reg.find("noc", "q_depth"), nullptr);
}

TEST(CounterRegistry, FirstKindSticksAndOrderIsInsertion) {
  CounterRegistry reg;
  reg.update("a", "x", 1.0, CounterKind::kMonotonic);
  reg.update("b", "y", 2.0, CounterKind::kGauge);
  reg.update("a", "x", 5.0, CounterKind::kGauge);  // kind ignored
  ASSERT_EQ(reg.entries().size(), 2u);
  EXPECT_EQ(reg.entries()[0].name, "x");
  EXPECT_EQ(reg.entries()[0].kind, CounterKind::kMonotonic);
  EXPECT_EQ(reg.entries()[1].name, "y");

  const std::string csv = reg.csv();
  EXPECT_NE(csv.find("component,name,kind,updates,value,min,max"),
            std::string::npos);
  EXPECT_NE(csv.find("a,x,monotonic,2,5,1,5"), std::string::npos);
  EXPECT_NE(csv.find("b,y,gauge,1,2,2,2"), std::string::npos);
}

TEST(Tracer, StampsEventsWithTheInstalledClock) {
  Tracer t;
  EXPECT_EQ(t.now(), Time::zero());  // no clock yet
  Time fake = Time::ns(5);
  t.set_clock([&fake] { return fake; });
  t.instant("c", "first");
  fake = Time::ns(9);
  t.begin("c", "work", "cat");
  fake = Time::ns(12);
  t.end("c", "work", "cat");
  t.span(Time::ns(2), Time::ns(4), "c", "retro");
  t.counter("c", "level", 42.0);

  ASSERT_EQ(t.size(), 5u);
  EXPECT_EQ(t.events()[0].type, EventType::kInstant);
  EXPECT_EQ(t.events()[0].ts_ps, Time::ns(5).picos());
  EXPECT_EQ(t.events()[1].type, EventType::kBegin);
  EXPECT_EQ(t.events()[2].type, EventType::kEnd);
  EXPECT_EQ(t.events()[2].ts_ps, Time::ns(12).picos());
  EXPECT_EQ(t.events()[3].type, EventType::kComplete);
  EXPECT_EQ(t.events()[3].ts_ps, Time::ns(2).picos());
  EXPECT_EQ(t.events()[3].dur_ps, Time::ns(4).picos());
  EXPECT_EQ(t.events()[4].type, EventType::kCounter);
  EXPECT_EQ(t.events()[4].value, 42.0);
  // The counter call also fed the registry.
  ASSERT_NE(t.counters().find("c", "level"), nullptr);
  EXPECT_EQ(t.counters().find("c", "level")->value, 42.0);
}

TEST(Tracer, KernelAttachmentBindsTheSimClock) {
  sim::Kernel k;
  Tracer t;
  k.set_tracer(&t);
  EXPECT_EQ(k.tracer(), &t);
  k.schedule_at(Time::ns(7), [&] { t.instant("c", "inside"); });
  k.run();
  ASSERT_EQ(t.size(), 1u);
  EXPECT_EQ(t.events()[0].ts_ps, Time::ns(7).picos());
  k.set_tracer(nullptr);
  EXPECT_EQ(k.tracer(), nullptr);
}

TEST(ChromeTrace, ExportsValidStructureAndPhases) {
  Tracer t;
  Time fake = Time::us(1);
  t.set_clock([&fake] { return fake; });
  t.begin("dram", "serve", "service");
  fake = Time::us(2);
  t.end("dram", "serve", "service");
  t.instant("memguard", "replenish", "regulation");
  t.span(Time::ns(1500), Time::ns(250), "noc", "hop", "hop");
  t.counter("dram", "row_hits", 3.0, CounterKind::kMonotonic);

  const std::string json = to_chrome_json(t);
  EXPECT_EQ(json.rfind("{\"traceEvents\":[", 0), 0u);
  EXPECT_NE(json.find("\"displayTimeUnit\""), std::string::npos);
  // One named thread track per component, in first-emission order.
  EXPECT_NE(json.find("\"thread_name\""), std::string::npos);
  EXPECT_NE(json.find("\"dram\""), std::string::npos);
  EXPECT_NE(json.find("\"memguard\""), std::string::npos);
  EXPECT_NE(json.find("\"noc\""), std::string::npos);
  // Phases and integer-math microsecond timestamps.
  EXPECT_NE(json.find("\"ph\":\"B\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"E\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"C\""), std::string::npos);
  EXPECT_NE(json.find("\"ts\":1.000000"), std::string::npos);   // 1 us
  EXPECT_NE(json.find("\"ts\":1.500000"), std::string::npos);   // 1.5 us
  EXPECT_NE(json.find("\"dur\":0.250000"), std::string::npos);  // 250 ns
  EXPECT_NE(json.find("\"value\":3"), std::string::npos);
}

// A real traced workload: the mixed-criticality scenario with Memguard on,
// which exercises the DRAM, Memguard, DSU and SoC instrumentation.
const platform::ScenarioConfig kTracedScenario = {
    .hogs = 2,
    .memguard = true,
    .hog_budget_per_period = 10,
    .sim_time = Time::us(300)};

TEST(TraceDeterminism, IdenticalRunsExportByteIdenticalJson) {
  Tracer a;
  Tracer b;
  ASSERT_TRUE(platform::run_scenario(kTracedScenario, "run", &a).has_value());
  ASSERT_TRUE(platform::run_scenario(kTracedScenario, "run", &b).has_value());
  ASSERT_GT(a.size(), 0u);
  EXPECT_EQ(a.size(), b.size());
  EXPECT_EQ(to_chrome_json(a), to_chrome_json(b));       // byte-identical
  EXPECT_EQ(a.counters().csv(), b.counters().csv());
  // The instrumented mechanisms all showed up.
  EXPECT_NE(a.counters().find("dram", "row_hits"), nullptr);
  EXPECT_NE(a.counters().find("memguard", "domain1/budget_left"), nullptr);
  EXPECT_NE(a.counters().find("soc", "accesses"), nullptr);
}

TEST(TraceDeterminism, TracingNeverPerturbsResults) {
  Tracer t;
  const auto traced =
      platform::run_scenario(kTracedScenario, "traced", &t).value();
  const auto plain =
      platform::run_scenario(kTracedScenario, "traced").value();
  EXPECT_EQ(traced.rt_latency.count(), plain.rt_latency.count());
  EXPECT_EQ(traced.rt_latency.mean(), plain.rt_latency.mean());
  EXPECT_EQ(traced.rt_latency.percentile(99), plain.rt_latency.percentile(99));
  EXPECT_EQ(traced.rt_batch.max(), plain.rt_batch.max());
  EXPECT_EQ(traced.hog_accesses, plain.hog_accesses);
  EXPECT_EQ(traced.memguard_throttles, plain.memguard_throttles);
  EXPECT_EQ(traced.memguard_overhead, plain.memguard_overhead);
}

TEST(CounterRegistry, AddAccumulatesAtomically) {
  // A monotonic count is published as its running total through the
  // Tracer; each sample lands whole: the registry entry (value, updates,
  // max) and the timeline event move together, never one without the
  // other.
  Tracer t;
  double total = 0.0;
  for (double inc : {1.0, 2.0, 4.0}) {
    total += inc;
    t.counter("dram", "row_hits", total, CounterKind::kMonotonic);
    const auto* e = t.counters().find("dram", "row_hits");
    ASSERT_NE(e, nullptr);
    EXPECT_EQ(e->value, total);
    EXPECT_EQ(e->max, total);
    EXPECT_EQ(t.events().back().value, total);
  }
  const auto* e = t.counters().find("dram", "row_hits");
  EXPECT_EQ(e->kind, CounterKind::kMonotonic);
  EXPECT_EQ(e->value, 7.0);
  EXPECT_EQ(e->min, 1.0);
  EXPECT_EQ(e->updates, 3u);
  EXPECT_EQ(t.size(), 3u);
  EXPECT_EQ(t.counters().find("dram", "nope"), nullptr);
}

TEST(CounterRegistry, ConcurrentProducersNeverLoseIncrements) {
  // Thread-safety hammer (run under TSan in the CI thread-safety job):
  // the registry has no lock because each run owns its Tracer, but many
  // runs do go on at once (sweeps, papd workers). Registries must share no
  // hidden state: every producer's increments land in its own registry
  // only, and identical producers export identical CSV.
  constexpr int kThreads = 8;
  constexpr int kIters = 2000;
  std::vector<std::string> csvs(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&csvs, t] {
      Tracer tracer;
      for (int i = 0; i < kIters; ++i) {
        tracer.counter("hammer", "shared", i + 1.0, CounterKind::kMonotonic);
        tracer.counter("hammer", "gauge", static_cast<double>(i % 7));
        if (i % 128 == 0) {
          log_debug("hammer " + std::to_string(t));  // level-gated off
        }
      }
      const auto* shared = tracer.counters().find("hammer", "shared");
      ASSERT_NE(shared, nullptr);
      EXPECT_EQ(shared->value, 1.0 * kIters);
      EXPECT_EQ(shared->updates, 1ull * kIters);
      const auto* gauge = tracer.counters().find("hammer", "gauge");
      ASSERT_NE(gauge, nullptr);
      EXPECT_GE(gauge->min, 0.0);
      EXPECT_LE(gauge->max, 6.0);
      EXPECT_EQ(tracer.size(), 2u * kIters);
      csvs[t] = tracer.counters().csv();
    });
  }
  for (auto& t : threads) t.join();
  for (int t = 1; t < kThreads; ++t) EXPECT_EQ(csvs[t], csvs[0]) << t;
}

TEST(Log, ThresholdChangesAreThreadSafe) {
  // Concurrent set_log_level / log_message must be race-free (atomic
  // threshold). Keep output quiet by toggling between two silent levels.
  const LogLevel before = log_level();
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([t] {
      for (int i = 0; i < 1000; ++i) {
        if (t % 2 == 0) {
          set_log_level(i % 2 ? LogLevel::kError : LogLevel::kOff);
        } else {
          log_debug("never shown");
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  set_log_level(before);
}

}  // namespace
}  // namespace pap::trace
