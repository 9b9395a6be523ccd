// Ablation (Sec. II): Memguard regulation granularity vs overhead — "the
// more fine-granular the objects to be isolated get, the higher the
// overhead becomes" — and replenishment-period sensitivity.
//
// Both studies are exp sweeps: a 4x2 cartesian grid (domains x period) for
// the overhead table and a budget axis for the isolation/throughput
// trade-off, run on the Runner's thread pool.
#include <cstdio>

#include "common/table.hpp"
#include "exp/runner.hpp"
#include "platform/scenario.hpp"
#include "sched/memguard.hpp"
#include "sim/kernel.hpp"

using namespace pap;

int main(int argc, char** argv) {
  const auto cli = exp::parse_cli(argc, argv);
  print_heading("Ablation — Memguard granularity vs software overhead");
  // Pure regulator study: N domains replenished every period for 10 ms.
  exp::Experiment gran_exp{
      "ablation_memguard_granularity", [](const exp::Params& p) {
        const int domains = static_cast<int>(p.get_int("domains"));
        const int period_us = static_cast<int>(p.get_int("period_us"));
        sim::Kernel k;
        sched::MemguardConfig cfg;
        cfg.period = Time::us(period_us);
        sched::Memguard mg(k, cfg);
        for (int d = 0; d < domains; ++d) mg.add_domain(100);
        k.run(Time::ms(10));
        const double share =
            mg.total_overhead().nanos() / Time::ms(10).nanos();
        exp::Result out(p.label());
        out.set("domains", domains)
            .set("period (us)", period_us)
            .set("replenish interrupts",
                 static_cast<std::int64_t>(
                     mg.periods_elapsed() *
                     static_cast<std::uint64_t>(domains)))
            .set("overhead (us)", exp::Value{mg.total_overhead().micros(), 2})
            .set("overhead share of 10ms", exp::Value{share * 100.0, 2});
        return out;
      }};
  const auto gran_sweep = exp::SweepBuilder{}
                              .axis("domains", {1, 4, 16, 64})
                              .axis("period_us", {1, 10})
                              .build()
                              .value();
  exp::ConsoleTableSink gran_table;
  exp::CsvSink gran_csv(cli.out_dir + "/ablation_memguard_granularity.csv");
  exp::JsonlSink gran_jsonl(cli.out_dir +
                            "/ablation_memguard_granularity.jsonl");
  exp::Runner gran_runner(exp::to_runner_options(cli));
  gran_runner.add_sink(&gran_table)
      .add_sink(&gran_csv)
      .add_sink(&gran_jsonl);
  const auto gran_summary = gran_runner.run(gran_exp, gran_sweep);

  print_heading("Budget sweep — isolation quality vs co-runner throughput");
  exp::Experiment budget_exp{
      "ablation_memguard_budget", [](const exp::Params& p) {
        const auto budget =
            static_cast<std::uint64_t>(p.get_int("budget"));
        const auto r =
            platform::run_scenario({.hogs = 3,
                                    .memguard = true,
                                    .hog_budget_per_period = budget,
                                    .sim_time = Time::ms(1)},
                                   "budget " + std::to_string(budget))
                .value();
        exp::Result out(r.label);
        out.set("hog budget (acc/period)", static_cast<std::int64_t>(budget))
            .set("RT p99 (ns)", r.rt_latency.percentile(99))
            .set("RT max (ns)", r.rt_latency.max())
            .set("hog throughput", static_cast<std::int64_t>(r.hog_accesses))
            .set("throttle events",
                 static_cast<std::int64_t>(r.memguard_throttles));
        return out;
      }};
  const auto budget_sweep =
      exp::SweepBuilder{}
          .axis("budget", {5, 20, 80, 320, 100000})
          .build()
          .value();
  exp::ConsoleTableSink budget_table;
  exp::CsvSink budget_csv(cli.out_dir + "/ablation_memguard_budget.csv");
  exp::JsonlSink budget_jsonl(cli.out_dir + "/ablation_memguard_budget.jsonl");
  exp::Runner budget_runner(exp::to_runner_options(cli));
  budget_runner.add_sink(&budget_table)
      .add_sink(&budget_csv)
      .add_sink(&budget_jsonl);
  const auto budget_summary = budget_runner.run(budget_exp, budget_sweep);

  bool monotone = true;
  std::int64_t prev_hog = 0;
  for (const auto& r : budget_summary.results()) {
    const std::int64_t hog = r.at("hog throughput").as_int();
    if (prev_hog != 0 && hog < prev_hog) monotone = false;
    prev_hog = hog;
  }

  std::printf("%s\n%s\n", gran_summary.timing_summary().c_str(),
              budget_summary.timing_summary().c_str());
  std::printf("\nshape check (hog throughput grows with budget): %s\n",
              monotone ? "PASS" : "FAIL");
  return monotone ? 0 : 1;
}
