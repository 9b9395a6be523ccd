// Fig. 1 is conceptual ("Three classes of centralized automotive E/E
// architectures"). The executable counterpart: a consolidation study. The
// same set of vehicle functions is deployed (a) on dedicated single-core
// ECUs (the decentralized baseline: no shared-resource interference, many
// boxes), (b) consolidated on one vehicle integration platform without
// isolation, and (c) consolidated *with* the paper's isolation mechanisms.
// The study shows the trade the paper's Sec. II describes: consolidation
// saves hardware but imports interference, which the mechanisms win back.
#include <cstdio>

#include "common/table.hpp"
#include "platform/scenario.hpp"

using namespace pap;
using platform::ScenarioConfig;

int main() {
  print_heading("Fig. 1 — consolidation study (decentralized vs centralized)");

  // (a) Decentralized: the RT function alone on its ECU (no co-runners).
  const ScenarioConfig dedicated = {.hogs = 0, .sim_time = Time::ms(2)};
  const auto a = platform::run_scenario(dedicated, "dedicated ECU").value();

  // (b) Vehicle-centralized, COTS defaults: 3 co-located functions, no
  // isolation.
  ScenarioConfig consolidated = dedicated;
  consolidated.hogs = 3;
  const auto b =
      platform::run_scenario(consolidated, "VIP, no isolation").value();

  // (c) Vehicle-centralized with DSU partitioning + Memguard.
  consolidated.dsu_partitioning = true;
  consolidated.memguard = true;
  const auto c =
      platform::run_scenario(consolidated, "VIP, isolation on").value();

  TextTable t({"deployment", "ECUs used", "RT p99 (ns)", "RT max (ns)",
               "co-runner throughput (accesses)"});
  t.row()
      .cell("decentralized (1 fn/ECU)")
      .cell(4)  // the RT ECU + 3 ECUs the hogs would have needed
      .cell(a.rt_latency.percentile(99))
      .cell(a.rt_latency.max())
      .cell("n/a (separate boxes)");
  t.row()
      .cell("vehicle-centralized, COTS")
      .cell(1)
      .cell(b.rt_latency.percentile(99))
      .cell(b.rt_latency.max())
      .cell(static_cast<std::int64_t>(b.hog_accesses));
  t.row()
      .cell("vehicle-centralized + isolation")
      .cell(1)
      .cell(c.rt_latency.percentile(99))
      .cell(c.rt_latency.max())
      .cell(static_cast<std::int64_t>(c.hog_accesses));
  t.print();

  const double uncontrolled =
      b.rt_latency.percentile(99).nanos() / a.rt_latency.percentile(99).nanos();
  const double managed_infl =
      c.rt_latency.percentile(99).nanos() / a.rt_latency.percentile(99).nanos();
  std::printf(
      "\np99 inflation vs dedicated ECU: %.2fx uncontrolled, %.2fx with "
      "isolation\n",
      uncontrolled, managed_infl);
  const bool pass = uncontrolled > managed_infl && managed_infl < uncontrolled;
  std::printf("shape check (isolation recovers part of the dedicated-ECU "
              "predictability): %s\n",
              pass ? "PASS" : "FAIL");
  return pass ? 0 : 1;
}
