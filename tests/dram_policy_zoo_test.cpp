// Conformance suite for the scheduler-policy zoo: every policy must
// complete all traffic deterministically, the starvation guard must bound
// miss waiting by its age cap, and every analyzable policy's simulated
// worst case must respect its analytic WCD bound. Also covers the
// validated ControllerConfig builder, including adopting a raw
// ControllerParams aggregate.
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "dram/controller.hpp"
#include "dram/policy.hpp"
#include "dram/traffic.hpp"
#include "dram/wcd.hpp"
#include "sim/kernel.hpp"

namespace pap::dram {
namespace {

class PolicyZoo : public ::testing::TestWithParam<PolicyKind> {};

INSTANTIATE_TEST_SUITE_P(AllPolicies, PolicyZoo,
                         ::testing::ValuesIn(all_policy_kinds()),
                         [](const auto& info) { return to_string(info.param); });

TEST_P(PolicyZoo, EveryRequestCompletes) {
  sim::Kernel k;
  // w_low = 1 so trailing writes drain once the read queue empties (the
  // same quiet-phase contract the FR-FCFS tests pin down).
  Controller c(k, ddr3_1600(),
               ControllerConfig{}.policy(GetParam()).w_low(1));
  std::size_t completions = 0;
  c.set_completion_handler([&](const Request&, Time) { ++completions; });
  std::uint64_t id = 0;
  for (int burst = 0; burst < 5; ++burst) {
    k.schedule_at(Time::us(burst * 3), [&c, &id] {
      for (int i = 0; i < 10; ++i) {
        Request r;
        r.id = id++;
        r.op = i % 3 == 0 ? Op::kWrite : Op::kRead;
        r.bank = static_cast<std::uint32_t>(i % 4);
        r.row = static_cast<std::uint32_t>(7 + i / 2);
        c.submit(r);
      }
    });
  }
  k.run(Time::ms(1));
  EXPECT_EQ(completions, 50u);
  EXPECT_EQ(c.read_queue_depth(), 0u);
  EXPECT_EQ(c.write_queue_depth(), 0u);
}

TEST_P(PolicyZoo, SameSeedSameCompletionTimeline) {
  auto run = [&] {
    sim::Kernel k;
    Controller c(k, ddr4_2400(), ControllerConfig{}.policy(GetParam()));
    std::vector<std::pair<std::uint64_t, Time>> timeline;
    c.set_completion_handler(
        [&](const Request& r, Time t) { timeline.emplace_back(r.id, t); });
    RandomAccessSource::Config cfg;
    cfg.mean_inter_arrival = Time::ns(150);
    cfg.write_fraction = 0.3;
    cfg.locality = 0.5;
    cfg.seed = 42;
    RandomAccessSource src(k, c, cfg);
    src.start();
    k.run(Time::us(500));
    src.stop();
    return timeline;
  };
  const auto a = run();
  const auto b = run();
  ASSERT_FALSE(a.empty());
  EXPECT_EQ(a, b);
}

TEST_P(PolicyZoo, SimulatedWorstCaseWithinBoundWhereAnalyzable) {
  const PolicyKind kind = GetParam();
  if (!WcdAnalysis::analyzable(kind)) {
    EXPECT_EQ(kind, PolicyKind::kWriteDrain);  // the only unbounded policy
    return;
  }
  const auto timings = ddr3_1600();
  const auto ctrl = ControllerConfig{}
                        .n_cap(16)
                        .watermarks(55, 28)
                        .n_wd(16)
                        .banks(1)
                        .policy(kind);
  const auto writes = nc::TokenBucket::from_rate(Rate::gbps(4), 64, 8.0);
  WcdAnalysis analysis(timings, ctrl, writes);
  const Time bound = analysis.upper_bound(13);

  sim::Kernel kernel;
  Controller controller(kernel, timings, ctrl);
  ShapedWriteSource hog(kernel, controller, writes, 0, 99);
  hog.start();
  LatencyHistogram tagged;
  controller.set_completion_handler([&](const Request& r, Time t) {
    if (r.op == Op::kRead) tagged.add(t - r.arrival);
  });
  std::uint32_t row = 1000;
  for (int burst = 0; burst < 20; ++burst) {
    kernel.schedule_at(Time::us(burst * 25), [&controller, &row] {
      for (int i = 0; i < 13; ++i) {
        Request r;
        r.id = 5000 + row;
        r.op = Op::kRead;
        r.bank = 0;
        r.row = row++;
        controller.submit(r);
      }
    });
  }
  kernel.run(Time::us(600));
  hog.stop();
  ASSERT_FALSE(tagged.empty());
  EXPECT_LE(tagged.max(), bound) << to_string(kind);
}

// --- Starvation guard ---------------------------------------------------

/// A same-bank row miss queued behind an endless stream of row hits. With
/// the hit-promotion cap effectively disabled, plain FR-FCFS starves the
/// miss until the hit stream dries up; the starvation guard must serve it
/// within roughly its age cap.
Time starved_miss_completion(PolicyKind kind, Time age_cap) {
  sim::Kernel k;
  Controller c(k, ddr3_1600(),
               ControllerConfig{}
                   .policy(kind)
                   .n_cap(100000)  // promotion alone never yields
                   .banks(1)
                   .age_cap(age_cap));
  Time miss_done = Time::zero();
  c.set_completion_handler([&](const Request& r, Time t) {
    if (r.row == 2) miss_done = t;
  });
  // Hit stream: one row-1 read every burst slot for 6 us.
  for (int i = 0; i < 1200; ++i) {
    k.schedule_at(Time::ns(5) * i, [&c, i] {
      Request r;
      r.id = static_cast<std::uint64_t>(i);
      r.op = Op::kRead;
      r.bank = 0;
      r.row = 1;
      c.submit(r);
    });
  }
  // The victim miss arrives just after the stream opens row 1.
  k.schedule_at(Time::ns(1), [&c] {
    Request r;
    r.id = 999999;
    r.op = Op::kRead;
    r.bank = 0;
    r.row = 2;
    c.submit(r);
  });
  k.run(Time::ms(1));
  return miss_done;
}

TEST(StarvationGuard, ServesAgedMissWhileFrFcfsStarvesIt) {
  const Time cap = Time::us(2);
  const Time guarded = starved_miss_completion(PolicyKind::kStarvationGuard,
                                               cap);
  const Time plain = starved_miss_completion(PolicyKind::kFrFcfs, cap);
  ASSERT_GT(guarded, Time::zero());
  ASSERT_GT(plain, Time::zero());
  // Plain FR-FCFS (cap disabled) serves the miss only after the 6 us hit
  // stream drains; the guard steps in once the miss has aged past 2 us.
  EXPECT_GT(plain, Time::us(5));
  EXPECT_LT(guarded, Time::us(3));
  EXPECT_LT(guarded, plain);
}

TEST(StarvationGuard, AgeCapTightensThePromotedHitBlock) {
  // With a huge promotion cap the FR-FCFS hit block explodes, but the
  // guard's age cap still bounds how long promoted hits can delay a miss:
  // hit_block = min(tCL + n_cap*tBurst, age_cap + tCL + tBurst).
  const auto t = ddr3_1600();
  const auto writes = nc::TokenBucket::from_rate(Rate::gbps(4), 64, 8.0);
  const Time cap = Time::ns(40);
  const auto base = ControllerConfig{}.n_cap(1000).banks(1).age_cap(cap);
  WcdAnalysis frfcfs(t, ControllerConfig{base.params()}, writes);
  WcdAnalysis guarded(
      t, ControllerConfig{base.params()}.policy(PolicyKind::kStarvationGuard),
      writes);
  EXPECT_EQ(guarded.hit_block_time(), cap + t.tCL + t.tBurst);
  EXPECT_LT(guarded.hit_block_time(), frfcfs.hit_block_time());
  EXPECT_LT(guarded.upper_bound(13), frfcfs.upper_bound(13));
}

// --- Per-policy analysis terms ------------------------------------------

TEST(PolicyWcd, FcfsAndClosePageDropTheHitBlock) {
  const auto t = ddr3_1600();
  const auto writes = nc::TokenBucket::from_rate(Rate::gbps(4), 64, 8.0);
  const auto base = ControllerConfig{}.banks(1);
  WcdAnalysis frfcfs(t, base, writes);
  WcdAnalysis fcfs(t, ControllerConfig{base.params()}.policy(PolicyKind::kFcfs),
                   writes);
  WcdAnalysis close_page(
      t, ControllerConfig{base.params()}.policy(PolicyKind::kClosePage),
      writes);
  EXPECT_EQ(fcfs.hit_block_time(), Time::zero());
  EXPECT_EQ(close_page.hit_block_time(), Time::zero());
  EXPECT_GT(frfcfs.hit_block_time(), Time::zero());
  EXPECT_LT(fcfs.upper_bound(13), frfcfs.upper_bound(13));
}

TEST(PolicyWcd, WriteDrainHasNoBoundAndAborts) {
  const auto writes = nc::TokenBucket::from_rate(Rate::gbps(4), 64, 8.0);
  EXPECT_FALSE(WcdAnalysis::analyzable(PolicyKind::kWriteDrain));
  const auto cfg = ControllerConfig{}.policy(PolicyKind::kWriteDrain);
  EXPECT_DEATH(WcdAnalysis(ddr3_1600(), cfg, writes),
               "no analytic WCD bound for policy 'write_drain'");
}

// --- Policy naming ------------------------------------------------------

TEST(PolicyNames, RoundTripAndStrictParse) {
  for (const auto kind : all_policy_kinds()) {
    const auto parsed = parse_policy(to_string(kind));
    ASSERT_TRUE(parsed.has_value()) << to_string(kind);
    EXPECT_EQ(parsed.value(), kind);
  }
  const auto bad = parse_policy("frfcsf");
  ASSERT_FALSE(bad.has_value());
  // The diagnostic names every valid policy.
  for (const auto kind : all_policy_kinds()) {
    EXPECT_NE(bad.error_message().find(to_string(kind)), std::string::npos);
  }
}

// --- ControllerConfig validation ----------------------------------------

TEST(ControllerConfigBuild, RejectsInvalidCombinations) {
  EXPECT_FALSE(ControllerConfig{}.banks(0).build().has_value());
  EXPECT_FALSE(ControllerConfig{}.n_cap(-1).build().has_value());
  EXPECT_FALSE(ControllerConfig{}.n_wd(0).build().has_value());
  EXPECT_FALSE(ControllerConfig{}.w_low(-1).build().has_value());
  EXPECT_FALSE(ControllerConfig{}.age_cap(Time::zero()).build().has_value());

  const auto inverted = ControllerConfig{}.watermarks(4, 9).build();
  ASSERT_FALSE(inverted.has_value());
  EXPECT_NE(inverted.error_message().find("w_high >= w_low"),
            std::string::npos);

  // Errors carry the offending value for the config-surface callers (papd,
  // scenario knobs) to relay verbatim.
  const auto no_banks = ControllerConfig{}.banks(0).build();
  EXPECT_NE(no_banks.error_message().find("banks"), std::string::npos);
  EXPECT_NE(no_banks.error_message().find("0"), std::string::npos);
}

TEST(ControllerConfigBuild, AcceptsAndSnapshotsValidKnobs) {
  const auto built = ControllerConfig{}
                         .n_cap(8)
                         .watermarks(12, 12)  // equal watermarks stay legal
                         .n_wd(4)
                         .banks(2)
                         .policy(PolicyKind::kClosePage)
                         .age_cap(Time::us(1))
                         .build();
  ASSERT_TRUE(built.has_value());
  const ControllerParams& p = built.value();
  EXPECT_EQ(p.n_cap, 8);
  EXPECT_EQ(p.w_high, 12);
  EXPECT_EQ(p.w_low, 12);
  EXPECT_EQ(p.n_wd, 4);
  EXPECT_EQ(p.banks, 2);
  EXPECT_EQ(p.policy, PolicyKind::kClosePage);
  EXPECT_EQ(p.age_cap, Time::us(1));
}

TEST(ControllerConfigBuild, AdoptedRawParamsRunDefaultPolicy) {
  sim::Kernel k;
  ControllerParams p;
  p.banks = 2;
  Controller c(k, ddr3_1600(), ControllerConfig(p));
  std::size_t done = 0;
  c.set_completion_handler([&](const Request&, Time) { ++done; });
  Request r;
  r.id = 1;
  r.op = Op::kRead;
  r.bank = 1;
  r.row = 3;
  c.submit(r);
  k.run(Time::us(2));
  EXPECT_EQ(done, 1u);
  EXPECT_EQ(c.params().banks, 2);
  EXPECT_EQ(c.policy().kind(), PolicyKind::kFrFcfs);
}

}  // namespace
}  // namespace pap::dram
