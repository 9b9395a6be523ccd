// Mixed-criticality vehicle integration platform (Sections I-III).
//
// An ASIL-D sensor-fusion reader shares a cluster with three QM
// infotainment-style bandwidth hogs. The example walks the paper's
// escalation ladder and prints the RT latency distribution at each step:
//   1. COTS defaults                 (no isolation — the problem);
//   2. Memguard bandwidth regulation (software mechanism, Sec. II);
//   3. DSU L3 partitioning           (hardware mechanism, Sec. III-A);
//   4. both together                 (the paper's recommended direction).
#include <cstdio>

#include "common/table.hpp"
#include "platform/scenario.hpp"

using namespace pap;

int main() {
  std::printf(
      "Mixed-criticality VIP: 1 ASIL-D reader + 3 QM bandwidth hogs on a "
      "shared cluster (DSU L3 + DDR3-1600)\n");

  struct Step {
    const char* label;
    bool memguard;
    bool dsu;
  };
  const Step steps[] = {
      {"1. COTS defaults (no isolation)", false, false},
      {"2. + Memguard (SW bandwidth regulation)", true, false},
      {"3. + DSU L3 partitioning (HW)", false, true},
      {"4. + both mechanisms", true, true},
  };

  TextTable t({"configuration", "RT p50 (ns)", "RT p99 (ns)", "RT max (ns)",
               "hog throughput", "regulation overhead (us)"});
  Time cots_p99;
  Time both_p99;
  for (const auto& s : steps) {
    const auto r = platform::run_scenario({.hogs = 3,
                                           .dsu_partitioning = s.dsu,
                                           .memguard = s.memguard,
                                           .sim_time = Time::ms(2)},
                                          s.label)
                       .value();
    if (!s.memguard && !s.dsu) cots_p99 = r.rt_latency.percentile(99);
    if (s.memguard && s.dsu) both_p99 = r.rt_latency.percentile(99);
    t.row()
        .cell(s.label)
        .cell(r.rt_latency.percentile(50))
        .cell(r.rt_latency.percentile(99))
        .cell(r.rt_latency.max())
        .cell(static_cast<std::int64_t>(r.hog_accesses))
        .cell(r.memguard_overhead.micros(), 2);
  }
  t.print();

  std::printf(
      "\nRT p99 with both mechanisms is %.1f%% of the COTS default.\n",
      100.0 * both_p99.nanos() / cots_p99.nanos());
  std::printf(
      "The paper's argument in one table: COTS platforms optimize the hogs' "
      "throughput; the mechanisms trade some of it for a bounded RT tail.\n");
  return both_p99 < cots_p99 ? 0 : 1;
}
