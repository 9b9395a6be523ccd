// Thread-pool scaling demo for the exp sweep engine: an 8-point cartesian
// scenario sweep (hogs x memguard) whose points are heavyweight enough
// that the Runner's own timing summary shows the parallel speedup.
//
//   build/bench/sweep_scaling --jobs 1     # serial reference
//   build/bench/sweep_scaling              # all cores
//
// On a multi-core host the reported speedup for the default jobs exceeds
// 2x; every table is bit-identical across jobs values.
#include <cstdio>

#include "common/table.hpp"
#include "exp/runner.hpp"
#include "platform/scenario.hpp"

using namespace pap;

int main(int argc, char** argv) {
  const auto cli = exp::parse_cli(argc, argv);
  print_heading("Sweep scaling — 8 scenario points on the exp thread pool");

  exp::Experiment experiment{
      "sweep_scaling", [](const exp::Params& p) {
        const int hogs = static_cast<int>(p.get_int("hogs"));
        const bool memguard = p.get_bool("memguard");
        const auto r =
            platform::run_scenario({.hogs = hogs,
                                    .memguard = memguard,
                                    .sim_time = Time::ms(2)},
                                   p.label())
                .value();
        exp::Result out(r.label);
        out.set("hogs", hogs)
            .set("memguard", memguard)
            .set("RT p99 (ns)", r.rt_latency.percentile(99))
            .set("RT max (ns)", r.rt_latency.max())
            .set("hog accesses", static_cast<std::int64_t>(r.hog_accesses));
        return out;
      }};
  const auto sweep = exp::SweepBuilder{}
                         .axis("hogs", {1, 3, 5, 7})
                         .axis("memguard", {false, true})
                         .build()
                         .value();

  exp::ConsoleTableSink table;
  exp::CsvSink csv(cli.out_dir + "/sweep_scaling.csv");
  exp::JsonlSink jsonl(cli.out_dir + "/sweep_scaling.jsonl");
  exp::Runner runner(exp::to_runner_options(cli));
  runner.add_sink(&table).add_sink(&csv).add_sink(&jsonl);
  const auto summary = runner.run(experiment, sweep);

  std::printf("\n%s\n", summary.timing_summary().c_str());
  const bool pass = summary.completed() == sweep.size();
  std::printf("shape check (all %zu points completed): %s\n", sweep.size(),
              pass ? "PASS" : "FAIL");
  return pass ? 0 : 1;
}
