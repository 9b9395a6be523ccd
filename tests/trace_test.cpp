// The observability layer: Tracer semantics, counter registry, Chrome
// trace_event export, and the two load-bearing guarantees — byte-identical
// exports across identical runs, and tracing never perturbing simulation
// results.
#include <gtest/gtest.h>

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
platform::ScenarioConfig traced_scenario(Tracer* t) {
  return platform::ScenarioConfig{}
      .hogs(2)
      .memguard(true)
      .hog_budget_per_period(10)
      .sim_time(Time::us(300))
      .tracer(t);
}

TEST(TraceDeterminism, IdenticalRunsExportByteIdenticalJson) {
  Tracer a;
  Tracer b;
  ASSERT_TRUE(platform::run_scenario(traced_scenario(&a), "run").has_value());
  ASSERT_TRUE(platform::run_scenario(traced_scenario(&b), "run").has_value());
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
      platform::run_scenario(traced_scenario(&t), "traced").value();
  const auto plain =
      platform::run_scenario(traced_scenario(nullptr), "traced").value();
  EXPECT_EQ(traced.rt_latency.count(), plain.rt_latency.count());
  EXPECT_EQ(traced.rt_latency.mean(), plain.rt_latency.mean());
  EXPECT_EQ(traced.rt_latency.percentile(99), plain.rt_latency.percentile(99));
  EXPECT_EQ(traced.rt_batch.max(), plain.rt_batch.max());
  EXPECT_EQ(traced.hog_accesses, plain.hog_accesses);
  EXPECT_EQ(traced.memguard_throttles, plain.memguard_throttles);
  EXPECT_EQ(traced.memguard_overhead, plain.memguard_overhead);
}

TEST(CounterRegistry, AddAccumulatesAtomically) {
  CounterRegistry reg;
  reg.add("serve", "requests");
  reg.add("serve", "requests", 2.0);
  const auto e = reg.sample("serve", "requests");
  ASSERT_TRUE(e.has_value());
  EXPECT_EQ(e->kind, CounterKind::kMonotonic);
  EXPECT_EQ(e->value, 3.0);
  EXPECT_EQ(e->updates, 2u);
  EXPECT_FALSE(reg.sample("serve", "nope").has_value());
}

TEST(CounterRegistry, ConcurrentProducersNeverLoseIncrements) {
  // Thread-safety hammer (run under TSan in the CI thread-safety job):
  // papd workers bump shared per-endpoint counters and gauges from many
  // threads; every increment must land, gauges must stay within the
  // written range, and concurrent sampling/CSV export must not tear.
  CounterRegistry reg;
  constexpr int kThreads = 8;
  constexpr int kIters = 2000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      const std::string own = "own" + std::to_string(t);
      for (int i = 0; i < kIters; ++i) {
        reg.add("hammer", "shared");                    // contended counter
        reg.add("hammer", own);                         // private counter
        reg.update("hammer", "gauge", static_cast<double>(i % 7),
                   CounterKind::kGauge);
        if (i % 64 == 0) {
          const auto s = reg.sample("hammer", "shared");
          if (s) {
            EXPECT_GE(s->value, 1.0);
            EXPECT_LE(s->value, 1.0 * kThreads * kIters);
          }
          (void)reg.csv();  // consistent snapshot under writers
        }
        if (i % 128 == 0) {
          log_debug("hammer " + own);  // thread-safe logger, level-gated off
        }
      }
    });
  }
  for (auto& t : threads) t.join();

  const auto shared = reg.sample("hammer", "shared");
  ASSERT_TRUE(shared.has_value());
  EXPECT_EQ(shared->value, 1.0 * kThreads * kIters);
  EXPECT_EQ(shared->updates, 1ull * kThreads * kIters);
  for (int t = 0; t < kThreads; ++t) {
    const auto own = reg.sample("hammer", "own" + std::to_string(t));
    ASSERT_TRUE(own.has_value());
    EXPECT_EQ(own->value, 1.0 * kIters);
  }
  const auto gauge = reg.sample("hammer", "gauge");
  ASSERT_TRUE(gauge.has_value());
  EXPECT_GE(gauge->min, 0.0);
  EXPECT_LE(gauge->max, 6.0);
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
