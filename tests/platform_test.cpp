// SoC platform model: cache walk, DRAM path, Memguard gating, scheme IDs,
// and the mixed-criticality scenario runner.
#include <gtest/gtest.h>

#include "platform/scenario.hpp"
#include "platform/soc.hpp"
#include "platform/workload.hpp"
#include "sim/kernel.hpp"

namespace pap::platform {
namespace {

TEST(Soc, L1HitLatency) {
  sim::Kernel k;
  SocConfig cfg;
  Soc soc(k, cfg);
  Time first;
  Time second;
  soc.memory_access(0, 0x1000, false, [&](Time l) { first = l; });
  k.run(Time::us(500));
  soc.memory_access(0, 0x1000, false, [&](Time l) { second = l; });
  k.run(Time::us(500));
  EXPECT_GT(first, cfg.l3_latency);  // cold miss went to DRAM
  EXPECT_EQ(second, cfg.l1_latency);
  EXPECT_EQ(soc.counters().get("l1_hits"), 1);
  EXPECT_EQ(soc.counters().get("dram_accesses"), 1);
}

TEST(Soc, L3HitAfterL1Eviction) {
  sim::Kernel k;
  SocConfig cfg;
  cfg.l1_sets = 2;
  cfg.l1_ways = 1;  // tiny L1: easy to evict
  Soc soc(k, cfg);
  // Touch A, then B mapping to the same L1 set, then A again: L3 hit.
  soc.memory_access(0, 0, false, nullptr);
  k.run(Time::us(500));
  soc.memory_access(0, 128, false, nullptr);  // same set (2 sets * 64B)
  k.run(Time::us(500));
  Time lat;
  soc.memory_access(0, 0, false, [&](Time l) { lat = l; });
  k.run(Time::us(500));
  EXPECT_EQ(lat, cfg.l1_latency + cfg.l3_latency);
  EXPECT_EQ(soc.counters().get("l3_hits"), 1);
}

TEST(Soc, DramPathIncludesInterconnectBothWays) {
  sim::Kernel k;
  SocConfig cfg;
  Soc soc(k, cfg);
  Time lat;
  soc.memory_access(0, 0x5000, false, [&](Time l) { lat = l; });
  k.run(Time::us(500));
  EXPECT_GE(lat, cfg.interconnect_latency * 2 +
                     cfg.dram.read_miss_closed_completion());
}

TEST(Soc, SchemeIdsSeparateL3Ownership) {
  sim::Kernel k;
  SocConfig cfg;
  cfg.cores_per_cluster = 2;
  Soc soc(k, cfg);
  soc.set_scheme_id(0, 1);
  soc.set_scheme_id(1, 2);
  soc.memory_access(0, 0x0, false, nullptr);
  soc.memory_access(1, 0x10000, false, nullptr);
  k.run(Time::us(500));
  EXPECT_EQ(soc.dsu(0).l3().occupancy(1), 1u);
  EXPECT_EQ(soc.dsu(0).l3().occupancy(2), 1u);
}

TEST(Soc, MemguardThrottlesDramTraffic) {
  sim::Kernel k;
  SocConfig cfg;
  Soc soc(k, cfg);
  sched::MemguardConfig mg_cfg;
  mg_cfg.period = Time::us(10);
  auto mg = std::make_unique<sched::Memguard>(k, mg_cfg);
  std::vector<std::uint32_t> domains;
  for (int c = 0; c < cfg.total_cores(); ++c) {
    domains.push_back(mg->add_domain(2));  // 2 DRAM accesses per period
  }
  soc.set_memguard(std::move(mg), domains);
  // 5 distinct cold lines: only 2 proceed immediately.
  std::vector<Time> lat;
  for (int i = 0; i < 5; ++i) {
    soc.memory_access(0, static_cast<cache::Addr>(i) * 4096 + (1 << 24),
                      false, [&](Time l) { lat.push_back(l); });
  }
  k.run(Time::us(500));
  ASSERT_EQ(lat.size(), 5u);
  EXPECT_GT(soc.counters().get("memguard_stalls"), 0);
  // The throttled accesses waited for the replenishment period.
  EXPECT_GT(lat.back(), Time::us(9));
}

TEST(Workload, RtReaderMeasuresBatches) {
  sim::Kernel k;
  SocConfig cfg;
  Soc soc(k, cfg);
  RtReader::Config rc;
  rc.period = Time::us(20);
  rc.reads_per_batch = 8;
  rc.working_set = 4096;
  RtReader reader(k, soc, rc);
  reader.start();
  k.run(Time::us(200));
  reader.stop();
  EXPECT_GE(reader.batches(), 10u);
  EXPECT_EQ(reader.latency().count(), reader.batches() * 8);
}

TEST(Workload, HogKeepsDramBusy) {
  sim::Kernel k;
  SocConfig cfg;
  Soc soc(k, cfg);
  BandwidthHog::Config hc;
  hc.core = 1;
  BandwidthHog hog(k, soc, hc);
  hog.start();
  k.run(Time::us(100));
  hog.stop();
  EXPECT_GT(hog.accesses(), 100u);
  EXPECT_GT(soc.counters().get("dram_accesses"), 50);
}

TEST(Scenario, InterferenceInflatesRtLatency) {
  // The paper's motivating observation ([2]): parallel load inflates the
  // RT workload's latency multiple times over.
  const auto base =
      run_scenario({.hogs = 0, .sim_time = Time::ms(1)}, "baseline").value();

  const auto noisy =
      run_scenario({.hogs = 3, .sim_time = Time::ms(1)}, "3 hogs").value();

  const double inflation = ScenarioResult::inflation(base, noisy, 99.0);
  EXPECT_GT(inflation, 1.5);
}

TEST(Scenario, ConfigValidatesOnBuild) {
  EXPECT_TRUE(ScenarioConfig{}.validate().is_ok());
  const Status negative_hogs = ScenarioConfig{.hogs = -1}.validate();
  ASSERT_FALSE(negative_hogs.is_ok());
  EXPECT_NE(negative_hogs.message().find("hogs"), std::string::npos);
  EXPECT_FALSE(ScenarioConfig{.sim_time = Time::zero()}.validate().is_ok());
  EXPECT_FALSE((ScenarioConfig{.memguard = true, .hog_budget_per_period = 0}
                    .validate()
                    .is_ok()));
  EXPECT_FALSE(ScenarioConfig{.rt_working_set = 8}.validate().is_ok());
  EXPECT_FALSE(run_scenario({.hogs = 64}, "invalid"));
}

TEST(Scenario, IsolationKnobsReduceTail) {
  ScenarioConfig config = {.hogs = 3, .sim_time = Time::ms(1)};
  const auto noisy = run_scenario(config, "no isolation").value();

  config.dsu_partitioning = true;
  config.memguard = true;
  const auto guarded = run_scenario(config, "DSU + memguard").value();

  EXPECT_LT(guarded.rt_latency.percentile(99.9),
            noisy.rt_latency.percentile(99.9));
  EXPECT_GT(guarded.memguard_throttles, 0u);
}

TEST(Scenario, StopTheWorldGivesSingleCoreEquivalentLatency) {
  // Sec. II: stop-the-world "generate[s] a single-core equivalent
  // scenario" — RT latency matches the hog-free baseline...
  const auto base =
      run_scenario({.hogs = 0, .sim_time = Time::ms(1)}, "alone").value();

  ScenarioConfig config = {
      .hogs = 3, .stop_the_world = true, .sim_time = Time::ms(1)};
  const auto stopped = run_scenario(config, "stop-the-world").value();

  config.stop_the_world = false;
  const auto wild = run_scenario(config, "uncontrolled").value();

  // RT tail close to the single-core baseline (within the residual effect
  // of in-flight hog requests draining), far below the uncontrolled case.
  EXPECT_LT(stopped.rt_latency.percentile(99),
            wild.rt_latency.percentile(99));
  EXPECT_LE(stopped.rt_latency.percentile(99).nanos(),
            base.rt_latency.percentile(99).nanos() * 3.0);
}

TEST(Scenario, StopTheWorldCostsThroughput) {
  // ...but is "not adequate due to the performance penalty": the hogs
  // lose throughput vs. any other isolation mechanism.
  ScenarioConfig config = {
      .hogs = 3, .stop_the_world = true, .sim_time = Time::ms(1)};
  const auto stopped = run_scenario(config, "stop-the-world").value();

  config.stop_the_world = false;
  config.dsu_partitioning = true;
  const auto partitioned = run_scenario(config, "DSU").value();

  EXPECT_LT(stopped.hog_accesses, partitioned.hog_accesses);
}

TEST(Scenario, DeterministicForSameKnobs) {
  const ScenarioConfig config = {.hogs = 2, .sim_time = Time::us(300)};
  const auto a = run_scenario(config, "a").value();
  const auto b = run_scenario(config, "b").value();
  EXPECT_EQ(a.rt_latency.max(), b.rt_latency.max());
  EXPECT_EQ(a.hog_accesses, b.hog_accesses);
}

}  // namespace
}  // namespace pap::platform
