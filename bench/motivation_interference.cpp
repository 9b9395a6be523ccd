// Reproduces the paper's motivating measurement (Sec. I, citing [2]):
// "the average (sequential) read access latency can vary by a factor of up
// to 8x on a Nvidia Tegra X1 platform" — an RT reader on one core of a
// shared cluster, 0..7 bandwidth hogs on the others, no isolation.
//
// Migrated onto the exp sweep engine: the hog-count axis runs on the
// Runner's thread pool (--jobs N), results land on the console and in
// bench/out/ as CSV + JSON-lines.
#include <algorithm>
#include <cstdio>

#include "common/table.hpp"
#include "exp/runner.hpp"
#include "platform/scenario.hpp"

using namespace pap;
using platform::ScenarioConfig;
using platform::ScenarioResult;

int main(int argc, char** argv) {
  const auto cli = exp::parse_cli(argc, argv);
  print_heading(
      "Motivation — RT read latency inflation under parallel load");

  const ScenarioConfig base = {.hogs = 0, .sim_time = Time::ms(2)};
  const auto baseline = platform::run_scenario(base, "0 hogs").value();

  exp::Experiment experiment{
      "motivation_interference",
      [&base, &baseline](const exp::Params& p) {
        const int hogs = static_cast<int>(p.get_int("hogs"));
        ScenarioConfig k = base;
        k.hogs = hogs;
        const auto r =
            platform::run_scenario(k, std::to_string(hogs) + " hogs").value();
        const double mean_infl =
            r.rt_latency.mean().nanos() / baseline.rt_latency.mean().nanos();
        const double p99_infl = ScenarioResult::inflation(baseline, r, 99.0);
        exp::Result out(r.label);
        out.set("interfering cores", hogs)
            .set("mean (ns)", r.rt_latency.mean())
            .set("p50 (ns)", r.rt_latency.percentile(50))
            .set("p99 (ns)", r.rt_latency.percentile(99))
            .set("max (ns)", r.rt_latency.max())
            .set("mean inflation", exp::Value{mean_infl, 2})
            .set("p99 inflation", exp::Value{p99_infl, 2});
        return out;
      }};

  const auto sweep =
      exp::SweepBuilder{}.axis("hogs", {0, 1, 2, 3, 5, 7}).build().value();

  exp::ConsoleTableSink table;
  exp::CsvSink csv(cli.out_dir + "/motivation_interference.csv");
  exp::JsonlSink jsonl(cli.out_dir + "/motivation_interference.jsonl");
  exp::Runner runner(exp::to_runner_options(cli));
  runner.add_sink(&table).add_sink(&csv).add_sink(&jsonl);
  const auto summary = runner.run(experiment, sweep);

  double worst_inflation = 0.0;
  for (const auto& r : summary.results()) {
    worst_inflation =
        std::max(worst_inflation, r.at("p99 inflation").as_double());
  }
  std::printf(
      "\nworst p99 inflation: %.1fx (paper reports up to 8x average-read "
      "inflation on a Tegra X1)\n",
      worst_inflation);
  std::printf("%s\n", summary.timing_summary().c_str());
  const bool pass = worst_inflation >= 2.0;
  std::printf("shape check (multi-x inflation without isolation): %s\n",
              pass ? "PASS" : "FAIL");
  return pass ? 0 : 1;
}
