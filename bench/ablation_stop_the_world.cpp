// Ablation (Sec. II): the "stop-the-world" isolation baseline — "the
// execution of ASIL-D safety application on a single CPU core will stall
// all other cores in the system during that time in order to generate a
// single-core equivalent scenario [which is] not adequate due to [its]
// performance penalty" — quantified against the paper's recommended
// mechanisms.
#include <cstdio>

#include "common/table.hpp"
#include "platform/scenario.hpp"

using namespace pap;
using platform::ScenarioConfig;

int main() {
  print_heading("Ablation — stop-the-world vs targeted isolation");

  // A demanding safety application: DRAM-bound (working set exceeds the
  // L3) and occupying most of every period, so stalling the whole SoC for
  // it is expensive. Generous Memguard budget: enough for the hogs'
  // cache-missing share.
  const ScenarioConfig base = {.hogs = 3,
                               .hog_budget_per_period = 120,
                               .sim_time = Time::ms(2),
                               .rt_reads_per_batch = 96,
                               .rt_period = Time::us(10),
                               .rt_working_set = 8ull << 20};

  struct Row {
    const char* label;
    bool stw, dsu, mg;
  };
  const Row rows[] = {
      {"single-core baseline (no co-runners)", false, false, false},
      {"no isolation", false, false, false},
      {"stop-the-world", true, false, false},
      {"DSU + Memguard (paper's direction)", false, true, true},
  };

  TextTable t({"configuration", "RT p99 (ns)", "RT max (ns)",
               "co-runner throughput", "throughput vs no-isolation"});
  std::uint64_t uncontrolled_hog = 0;
  std::uint64_t stw_hog = 0;
  std::uint64_t mech_hog = 0;
  Time stw_p99, mech_p99;
  for (std::size_t i = 0; i < 4; ++i) {
    ScenarioConfig k = base;
    k.stop_the_world = rows[i].stw;
    k.dsu_partitioning = rows[i].dsu;
    k.memguard = rows[i].mg;
    if (i == 0) k.hogs = 0;
    const auto r = platform::run_scenario(k, rows[i].label).value();
    if (i == 1) uncontrolled_hog = r.hog_accesses;
    if (i == 2) {
      stw_hog = r.hog_accesses;
      stw_p99 = r.rt_latency.percentile(99);
    }
    if (i == 3) {
      mech_hog = r.hog_accesses;
      mech_p99 = r.rt_latency.percentile(99);
    }
    const double rel = uncontrolled_hog && i >= 1
                           ? 100.0 * r.hog_accesses / uncontrolled_hog
                           : 100.0;
    t.row()
        .cell(rows[i].label)
        .cell(r.rt_latency.percentile(99))
        .cell(r.rt_latency.max())
        .cell(static_cast<std::int64_t>(r.hog_accesses))
        .cell(i == 0 ? 0.0 : rel, 1);
  }
  t.print();

  std::printf(
      "\nstop-the-world keeps the RT tail low (%.0f ns) but costs the "
      "co-runners %.0f%% of their throughput;\nDSU+Memguard achieves a "
      "comparable tail (%.0f ns) while keeping %.0f%% — the paper's point "
      "about adequacy.\n",
      stw_p99.nanos(),
      100.0 - 100.0 * static_cast<double>(stw_hog) / uncontrolled_hog,
      mech_p99.nanos(),
      100.0 * static_cast<double>(mech_hog) / uncontrolled_hog);
  const bool pass = stw_hog < mech_hog;
  std::printf("shape check (stop-the-world pays more throughput than "
              "targeted mechanisms): %s\n",
              pass ? "PASS" : "FAIL");
  return pass ? 0 : 1;
}
