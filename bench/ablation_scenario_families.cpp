// Ablation: generated scenario families crossed with the DRAM scheduler
// policy and device presets.
//
// The scenario-family generator (src/scenario/generate.hpp) draws whole
// workload populations — flash crowds, diurnal waves, mode-change storms,
// hog mixes — deterministically from a seed. This bench sweeps family ×
// policy × device × member-index, overriding each generated scenario's
// DRAM knobs with the axis values, and reports the RT tail each
// combination produces: how robust is each arbitration policy across whole
// scenario *families* rather than one hand-written workload?
//
// Deterministic like every sweep: same seed, same table, any --jobs.
#include <cstdio>
#include <string>

#include "common/table.hpp"
#include "dram/policy.hpp"
#include "exp/runner.hpp"
#include "scenario/generate.hpp"
#include "scenario/run.hpp"

using namespace pap;

namespace {

constexpr std::uint64_t kSeed = 42;

}  // namespace

int main(int argc, char** argv) {
  const auto cli = exp::parse_cli(argc, argv);
  const int members = cli.smoke ? 1 : 3;

  print_heading("Scenario families x DRAM policy x device (seed 42)");

  exp::Experiment experiment;
  experiment.name = "ablation_scenario_families";
  experiment.run_traced = [](const exp::Params& p, trace::Tracer* tracer) {
    const std::string family = p.get_string("family");
    const int index = static_cast<int>(p.get_int("index"));
    auto s = scenario::generate_scenario(family, kSeed, index);
    exp::Result out(p.label());
    if (!s) {
      out.set("error", s.error_message());
      return out;
    }
    // The axis values override whatever DRAM knobs the family drew.
    s.value().soc.dram_policy =
        dram::parse_policy(p.get_string("policy")).value();
    s.value().soc.dram_device = p.get_string("device");
    scenario::RunOptions opts;
    opts.tracer = tracer;
    auto r = scenario::run_parsed(s.value(), opts);
    if (!r) {
      out.set("error", r.error_message());
      return out;
    }
    out.set("family", p.at("family"))
        .set("policy", p.at("policy"))
        .set("device", p.at("device"))
        .set("index", p.at("index"))
        .set("rt_p99", r.value().at("rt_p99"))
        .set("rt_max", r.value().at("rt_max"))
        .set("hog_accesses", r.value().at("hog_accesses"))
        .set("memguard_throttles", r.value().at("memguard_throttles"));
    return out;
  };

  exp::SweepBuilder builder;
  std::vector<exp::Value> families;
  for (const std::string& f : scenario::family_names()) {
    families.emplace_back(f);
  }
  std::vector<exp::Value> indices;
  for (int i = 0; i < members; ++i) indices.emplace_back(i);
  builder.axis("family", families)
      .axis("policy", {"frfcfs", "fcfs"})
      .axis("device", {"ddr3_1600", "ddr4_2400"})
      .axis("index", indices);
  const auto sweep = builder.build().value();

  const auto opts = exp::to_runner_options(cli);
  exp::ConsoleTableSink table;
  exp::CsvSink csv(cli.out_dir + "/ablation_scenario_families.csv");
  exp::JsonlSink jsonl(cli.out_dir + "/ablation_scenario_families.jsonl");
  exp::TraceDirSink traces(opts.trace_dir);
  exp::Runner runner(opts);
  runner.add_sink(&table).add_sink(&csv).add_sink(&jsonl);
  if (cli.trace) runner.add_sink(&traces);
  const auto summary = runner.run(experiment, sweep);

  // Shape: every point ran its scenario (no generator/run errors) and the
  // RT reader made progress under every family/policy/device combination.
  bool pass = summary.completed() == sweep.size();
  for (const auto& r : summary.results()) {
    if (r.find("error") != nullptr) {
      std::fprintf(stderr, "point %s failed: %s\n", r.label().c_str(),
                   r.at("error").as_string().c_str());
      pass = false;
    } else if (r.at("rt_p99").as_time() <= Time::zero()) {
      pass = false;
    }
  }
  std::printf("%s\n", summary.timing_summary().c_str());
  std::printf("\nshape check (all %zu scenarios ran, RT made progress): %s\n",
              sweep.size(), pass ? "PASS" : "FAIL");
  return pass ? 0 : 1;
}
