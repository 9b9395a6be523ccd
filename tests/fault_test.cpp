// Fault-injection subsystem: plan grammar (parse/validate/canonical),
// deterministic injector decisions, and the timed-fault hooks into the NoC
// and the DRAM controller (src/fault, plus the take_*_down / inject_stall
// endpoints it drives).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <vector>

#include "common/rng.hpp"
#include "dram/controller.hpp"
#include "dram/traffic.hpp"
#include "fault/injector.hpp"
#include "fault/plan.hpp"
#include "noc/network.hpp"
#include "platform/scenario.hpp"
#include "sim/kernel.hpp"

namespace pap::fault {
namespace {

TEST(FaultPlan, ParsesEveryFaultKind) {
  const auto plan = FaultPlan::parse(
      "seed=7,drop=stop:0.25,dup=0.5:3,delay=conf:0.1:200ns,"
      "reorder=0.2:1.5us,crash@1ms=app2+100us,link@2us=r5:E:3us,"
      "dram@10us=500ns");
  ASSERT_TRUE(plan.has_value()) << plan.error_message();
  const auto& p = plan.value();
  EXPECT_EQ(p.seed(), 7u);
  ASSERT_EQ(p.specs().size(), 7u);

  EXPECT_EQ(p.specs()[0].kind, FaultKind::kMsgDrop);
  EXPECT_EQ(p.specs()[0].msg_class, MsgClass::kStop);
  EXPECT_DOUBLE_EQ(p.specs()[0].probability, 0.25);
  EXPECT_EQ(p.specs()[0].max_count, 0u);

  EXPECT_EQ(p.specs()[1].kind, FaultKind::kMsgDup);
  EXPECT_EQ(p.specs()[1].msg_class, MsgClass::kAny);
  EXPECT_EQ(p.specs()[1].max_count, 3u);

  EXPECT_EQ(p.specs()[2].kind, FaultKind::kMsgDelay);
  EXPECT_EQ(p.specs()[2].delay, Time::ns(200));

  EXPECT_EQ(p.specs()[3].kind, FaultKind::kMsgReorder);
  EXPECT_EQ(p.specs()[3].delay, Time::from_ns(1500.0));

  EXPECT_EQ(p.specs()[4].kind, FaultKind::kClientCrash);
  EXPECT_EQ(p.specs()[4].app, 2);
  EXPECT_EQ(p.specs()[4].at, Time::ms(1));
  EXPECT_EQ(p.specs()[4].duration, Time::us(100));

  EXPECT_EQ(p.specs()[5].kind, FaultKind::kLinkDown);
  EXPECT_EQ(p.specs()[5].router, 5);

  EXPECT_EQ(p.specs()[6].kind, FaultKind::kDramStall);
  EXPECT_EQ(p.specs()[6].at, Time::us(10));
  EXPECT_EQ(p.specs()[6].duration, Time::ns(500));
}

TEST(FaultPlan, CanonicalRoundTrips) {
  const std::string text =
      "seed=42,drop=stop:0.25,dup=0.5:3,delay=conf:0.1:200ns,"
      "crash@1ms=app2+100us,link@2us=r5:E:3us,dram@10us=500ns";
  const auto plan = FaultPlan::parse(text);
  ASSERT_TRUE(plan.has_value()) << plan.error_message();
  const std::string canon = plan.value().canonical();
  const auto reparsed = FaultPlan::parse(canon);
  ASSERT_TRUE(reparsed.has_value()) << reparsed.error_message();
  EXPECT_EQ(reparsed.value().canonical(), canon);
  EXPECT_EQ(reparsed.value().seed(), 42u);
  EXPECT_EQ(reparsed.value().specs().size(), plan.value().specs().size());
}

TEST(FaultPlan, RejectsMalformedEntries) {
  const auto unknown = FaultPlan::parse("bogus=1");
  ASSERT_FALSE(unknown.has_value());
  EXPECT_NE(unknown.error_message().find("unknown fault"), std::string::npos);

  EXPECT_FALSE(FaultPlan::parse("drop=1.5").has_value());   // p > 1
  EXPECT_FALSE(FaultPlan::parse("drop=zap:0.5").has_value());  // bad class
  EXPECT_FALSE(FaultPlan::parse("dram@10=500").has_value());   // no suffix
  EXPECT_FALSE(FaultPlan::parse("crash@1ms=2").has_value());   // no 'app'
  EXPECT_FALSE(FaultPlan::parse("link@1us=r1:Q:1us").has_value());  // port
  EXPECT_FALSE(FaultPlan::parse("seed=").has_value());
  EXPECT_FALSE(FaultPlan::parse("delay=0.5").has_value());  // missing DUR

  // Durations are finite and fit int64 picoseconds.
  EXPECT_FALSE(FaultPlan::parse("dram@infus=1us").has_value());
  EXPECT_FALSE(FaultPlan::parse("delay=0.1:nanns").has_value());
  EXPECT_FALSE(FaultPlan::parse("dram@1us=1e10ms").has_value());
  EXPECT_FALSE(FaultPlan::parse("drop=nan").has_value());
  // Integers are digits only: strtoull turned seed=-1 into 2^64-1.
  EXPECT_FALSE(FaultPlan::parse("seed=-1").has_value());
  EXPECT_FALSE(FaultPlan::parse("seed=+1").has_value());
  EXPECT_FALSE(FaultPlan::parse("seed= 1").has_value());
  EXPECT_FALSE(FaultPlan::parse("dup=0.5:-3").has_value());
  EXPECT_FALSE(FaultPlan::parse("crash@1us=app-1").has_value());
  // Targets are bounded ints: app 2^32+1 used to wrap to app 1.
  EXPECT_FALSE(FaultPlan::parse("crash@1us=app4294967297").has_value());
  EXPECT_FALSE(FaultPlan::parse("link@1us=r4294967301:E:1us").has_value());
}

TEST(FaultPlan, CanonicalTextIsLossless) {
  // Probabilities print as the shortest decimal that round-trips, so the
  // plan survives parse -> canonical -> parse bit-exactly.
  Rng rng(0xfa017);
  for (int i = 0; i < 2000; ++i) {
    char text[64];
    std::snprintf(text, sizeof text, "drop=%.17g", rng.next_double());
    const auto plan = FaultPlan::parse(text);
    ASSERT_TRUE(plan.has_value()) << text << ": " << plan.error_message();
    const auto again = FaultPlan::parse(plan.value().canonical());
    ASSERT_TRUE(again.has_value()) << again.error_message();
    EXPECT_EQ(again.value().specs()[0].probability,
              plan.value().specs()[0].probability)
        << text << " -> " << plan.value().canonical();
  }
  // Where %g already round-tripped the bytes are unchanged; whole
  // nanoseconds print without a fraction.
  const auto plan = FaultPlan::parse(
      "drop=0.25,dup=1e-05,delay=0.1:500ns,reorder=0.5:1.5ns,"
      "dram@10us=2.25us");
  ASSERT_TRUE(plan.has_value()) << plan.error_message();
  EXPECT_EQ(plan.value().canonical(),
            "drop=0.25,dup=1e-05,delay=0.1:500ns,reorder=0.5:1.500ns,"
            "dram@10us=2250ns");
}

TEST(FaultPlan, ValidateCatchesProgrammaticMistakes) {
  FaultPlan plan;
  FaultSpec bad;
  bad.kind = FaultKind::kMsgDrop;
  bad.probability = 2.0;
  plan.add(bad);
  EXPECT_FALSE(plan.validate().is_ok());

  FaultPlan nan_plan;
  bad.probability = std::nan("");
  nan_plan.add(bad);
  EXPECT_FALSE(nan_plan.validate().is_ok());
}

TEST(FaultPlan, MergePrefersOtherExplicitSeed) {
  auto base = FaultPlan::parse("seed=3,drop=0.1").value();
  const auto cli = FaultPlan::parse("seed=9,dup=0.2").value();
  const auto merged = base.merged_with(cli);
  EXPECT_EQ(merged.seed(), 9u);
  EXPECT_EQ(merged.specs().size(), 2u);

  const auto no_seed = FaultPlan::parse("dup=0.2").value();
  EXPECT_EQ(base.merged_with(no_seed).seed(), 3u);
}

std::vector<LegDecision> roll_legs(std::uint64_t seed, int n) {
  sim::Kernel kernel;
  auto plan = FaultPlan::parse("drop=0.3,dup=0.2,delay=0.5:100ns").value();
  plan.set_seed(seed);
  Injector inj(kernel, plan);
  std::vector<LegDecision> out;
  for (int i = 0; i < n; ++i) {
    out.push_back(inj.control_leg(MsgClass::kStop, "leg", Time::ns(50)));
  }
  return out;
}

TEST(Injector, SameSeedSameDecisions) {
  const auto a = roll_legs(11, 200);
  const auto b = roll_legs(11, 200);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].dropped, b[i].dropped);
    EXPECT_EQ(a[i].latency, b[i].latency);
    EXPECT_EQ(a[i].duplicated, b[i].duplicated);
    EXPECT_EQ(a[i].dup_latency, b[i].dup_latency);
  }
}

TEST(Injector, DifferentSeedDifferentDecisions) {
  const auto a = roll_legs(11, 200);
  const auto b = roll_legs(12, 200);
  bool any_diff = false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].dropped != b[i].dropped || a[i].duplicated != b[i].duplicated) {
      any_diff = true;
    }
  }
  EXPECT_TRUE(any_diff);
}

TEST(Injector, MaxCountCapsInjections) {
  sim::Kernel kernel;
  const auto plan = FaultPlan::parse("drop=1:2").value();  // p=1, twice
  Injector inj(kernel, plan);
  int drops = 0;
  for (int i = 0; i < 50; ++i) {
    if (inj.control_leg(MsgClass::kAct, "leg", Time::ns(10)).dropped) {
      ++drops;
    }
  }
  EXPECT_EQ(drops, 2);
  EXPECT_EQ(inj.stats().msgs_dropped, 2u);
}

TEST(Injector, ClassFilterOnlyHitsMatchingLegs) {
  sim::Kernel kernel;
  const auto plan = FaultPlan::parse("drop=stop:1").value();
  Injector inj(kernel, plan);
  EXPECT_FALSE(inj.control_leg(MsgClass::kConf, "c", Time::ns(10)).dropped);
  EXPECT_TRUE(inj.control_leg(MsgClass::kStop, "s", Time::ns(10)).dropped);
}

TEST(Injector, ArmWithoutHandlerAborts) {
  sim::Kernel kernel;
  const auto plan = FaultPlan::parse("dram@1us=100ns").value();
  Injector inj(kernel, plan);
  EXPECT_DEATH(inj.arm(), "handler");
}

TEST(Injector, DramStallDelaysCompletions) {
  auto run = [](bool stall) {
    sim::Kernel k;
    dram::Controller c(k, dram::ddr3_1600(), dram::ControllerConfig{});
    Time done;
    c.set_completion_handler(
        [&](const dram::Request&, Time t) { done = t; });
    if (stall) {
      const auto plan = FaultPlan::parse("dram@0ns=2us").value();
      // The harness closes the handler over the controller, exactly like
      // platform::run_scenario does.
      Injector inj(k, plan);
      inj.on_dram_stall([&c](Time until) { c.inject_stall(until); });
      inj.arm();
      k.schedule_at(Time::ns(1), [&c] {
        dram::Request r;
        r.id = 1;
        r.op = dram::Op::kRead;
        c.submit(r);
      });
      k.run(Time::us(10));
      EXPECT_EQ(inj.stats().dram_stalls, 1u);
    } else {
      k.schedule_at(Time::ns(1), [&c] {
        dram::Request r;
        r.id = 1;
        r.op = dram::Op::kRead;
        c.submit(r);
      });
      k.run(Time::us(10));
    }
    return done;
  };
  const Time healthy = run(false);
  const Time stalled = run(true);
  EXPECT_GT(healthy, Time::zero());
  // The stall window freezes issue until 2us; completion lands after it.
  EXPECT_GE(stalled, Time::us(2));
  EXPECT_GT(stalled, healthy);
}

TEST(Injector, LinkDownDelaysDelivery) {
  auto run = [](bool down) {
    sim::Kernel k;
    noc::NocConfig cfg;
    noc::Network net(k, cfg);
    Time delivered;
    net.set_delivery_handler(
        [&](const noc::Packet&, Time t) { delivered = t; });
    // The XY route from (0,0) to (3,3) leaves its source router eastward.
    if (down) {
      net.take_link_down(net.mesh().node(0, 0), noc::Direction::kEast,
                         Time::us(5));
    }
    noc::Packet p;
    p.src = net.mesh().node(0, 0);
    p.dst = net.mesh().node(3, 3);
    k.schedule_at(Time::ns(1), [&net, p] { net.send(p); });
    k.run(Time::us(50));
    EXPECT_EQ(net.delivered(), 1u);
    return delivered;
  };
  const Time healthy = run(false);
  const Time degraded = run(true);
  EXPECT_GT(healthy, Time::zero());
  EXPECT_GE(degraded, Time::us(5));
  EXPECT_GT(degraded, healthy);
}

TEST(Injector, LinkDownCountsFaultsNotGrants) {
  sim::Kernel k;
  noc::NocConfig cfg;
  noc::Network net(k, cfg);
  net.take_link_down(5, noc::Direction::kEast, Time::us(1));
  net.take_link_down(net.mesh().node(0, 0), noc::Direction::kNorth,
                     Time::us(1));
  EXPECT_EQ(net.link_faults(), 2u);
}

TEST(Scenario, RejectsNonDramFaults) {
  const platform::ScenarioConfig cfg = {
      .fault_plan = FaultPlan::parse("drop=0.5").value()};
  const auto st = cfg.validate();
  ASSERT_FALSE(st.is_ok());
  EXPECT_NE(st.message().find("dram"), std::string::npos);
}

TEST(Scenario, DramStallPlanFiresAndPerturbsLatency) {
  platform::ScenarioConfig cfg = {.hogs = 0, .sim_time = Time::us(200)};
  const auto base = platform::run_scenario(cfg, "healthy").value();
  EXPECT_EQ(base.injected_dram_stalls, 0u);

  cfg.fault_plan = FaultPlan::parse("dram@50us=40us").value();
  const auto faulted = platform::run_scenario(cfg, "stalled").value();
  EXPECT_EQ(faulted.injected_dram_stalls, 1u);
  // A 40us issue freeze inside a 200us run must show up in the tail.
  EXPECT_GT(faulted.rt_latency.max(), base.rt_latency.max());
}

TEST(Scenario, EmptyPlanIsByteIdenticalToNoPlan) {
  const platform::ScenarioConfig with_empty = {
      .hogs = 2, .sim_time = Time::us(100), .fault_plan = FaultPlan{}};
  const platform::ScenarioConfig without = {.hogs = 2,
                                            .sim_time = Time::us(100)};
  const auto a = platform::run_scenario(with_empty, "x").value();
  const auto b = platform::run_scenario(without, "x").value();
  EXPECT_EQ(a.rt_latency.max(), b.rt_latency.max());
  EXPECT_EQ(a.rt_latency.percentile(99), b.rt_latency.percentile(99));
  EXPECT_EQ(a.hog_accesses, b.hog_accesses);
}

}  // namespace
}  // namespace pap::fault
