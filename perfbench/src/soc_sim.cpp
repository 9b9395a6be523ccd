// soc_sim — the simulators, in process and single-threaded.
//
// A fixed seeded scenario set: members 0..kMembers-1 of each generated
// `.pap` family (hog_mix, mode_storm, flash_crowd, diurnal) under the
// generator seed kFamilySeed, plus the repository's
// examples/scenarios/fig5_watermark.pap (the DRAM world) and
// fig6_admission.pap (NoC + resource manager). Set-up generates and parses
// the set; the timed loop runs it through scenario::run_parsed, whole
// passes only. It exercises sim / dram controller / noc / platform and
// bypasses serve, admit and the NC analysis.
//
// The set is the same for every --seed, which only orders the runs of a
// pass: members of one family differ in cost several-fold, so a set drawn
// per seed would make runs with different seeds measure different work.
//
// A "request" here is one scenario run (req_p50_us / req_p95_us), and
// throughput_rps counts simulated memory accesses (RT + hog + trace
// masters of the soc scenarios) per host second. Every run of a scenario
// must render byte-identically to its first run, and the digest of the
// simulated statistics must not depend on tracing.
#include <fstream>
#include <iterator>
#include <optional>
#include <sstream>

#include "bench.hpp"
#include "common/rng.hpp"
#include "scenario/generate.hpp"
#include "scenario/run.hpp"
#include "scenario/scenario.hpp"
#include "serve/protocol.hpp"
#include "trace/tracer.hpp"

namespace perfbench {

namespace {

constexpr int kMembers = 4;   // members drawn per family
constexpr std::uint64_t kFamilySeed = 2021;  // generator seed of the set
constexpr int kSetups = 15;   // generate + parse repetitions
const char* const kFamilies[] = {"hog_mix", "mode_storm", "flash_crowd",
                                 "diurnal"};
const char* const kFiles[] = {"fig5_watermark", "fig6_admission"};

struct Item {
  std::string family;  ///< generator family, or the example file's name
  pap::scenario::Scenario scenario;
};

struct SetSpans {
  int generate, parse;
  explicit SetSpans(Spans& s)
      : generate(s.intern("scenario.generate")),
        parse(s.intern("scenario.parse")) {}
};

/// Generate and parse the scenario set. Generated members go through their
/// canonical text, which must parse back to the same text.
bool build_set(const Options& opt, Spans& spans, std::vector<Item>* items,
               std::string* error) {
  using namespace pap::scenario;
  const SetSpans ids(spans);
  items->clear();
  for (const char* family : kFamilies) {
    for (int i = 0; i < kMembers; ++i) {
      std::optional<pap::Expected<Scenario>> gen;
      {
        auto s = spans.scope(ids.generate);
        gen.emplace(generate_scenario(family, kFamilySeed, i));
      }
      if (!*gen) {
        *error = gen->error_message();
        return false;
      }
      const std::string text = gen->value().canonical();
      std::optional<pap::Expected<Scenario>> parsed;
      {
        auto s = spans.scope(ids.parse);
        parsed.emplace(parse_scenario(text));
      }
      if (!*parsed || parsed->value().canonical() != text) {
        *error = std::string(family) + ": canonical text does not round-trip";
        return false;
      }
      items->push_back(Item{family, std::move(parsed->value())});
    }
  }
  for (const char* name : kFiles) {
    const std::string path =
        opt.root + "/examples/scenarios/" + name + ".pap";
    std::ifstream in(path);
    std::stringstream text;
    text << in.rdbuf();
    if (!in) {
      *error = "cannot read " + path;
      return false;
    }
    std::optional<pap::Expected<Scenario>> parsed;
    {
      auto s = spans.scope(ids.parse);
      parsed.emplace(parse_scenario(text.str()));
    }
    if (!*parsed) {
      *error = path + ": " + parsed->error_message();
      return false;
    }
    items->push_back(Item{name, std::move(parsed->value())});
  }
  pap::Rng rng(opt.seed);  // the run order of a pass
  for (std::size_t i = items->size(); i > 1; --i) {
    std::swap((*items)[i - 1], (*items)[rng.next_below(i)]);
  }
  return true;
}

std::int64_t metric_int(const pap::exp::Result& r, const char* name) {
  const pap::exp::Value* v = r.find(name);
  return v == nullptr ? 0 : v->as_int();
}

/// Simulated statistics of one pass over the set.
struct PassStats {
  std::int64_t accesses = 0;  ///< rt + hog + trace, soc scenarios
  std::int64_t write_batches = 0, memguard_throttles = 0, mpam_throttles = 0;
  Digest digest;              ///< over every rendered result, in set order
  double wall_us = 0.0;
  double soc_wall_us = 0.0;   ///< host time of the soc scenarios alone
  bool ok = true;
};

/// One pass over the set. Per-run host times go to `run_us`; each rendered
/// result must equal `expected[i]` when that is non-empty (and fills it
/// otherwise).
PassStats run_pass(const std::vector<Item>& items, Spans& spans,
                   const std::vector<int>& span_ids,
                   pap::trace::Tracer* tracer, Samples* run_us,
                   std::vector<std::string>* expected) {
  using namespace pap;
  PassStats ps;
  scenario::RunOptions ro;
  ro.tracer = tracer;
  const auto t0 = Clock::now();
  for (std::size_t i = 0; i < items.size(); ++i) {
    const Item& item = items[i];
    std::optional<Expected<exp::Result>> res;
    const auto r0 = Clock::now();
    {
      auto s = spans.scope(span_ids[i]);
      res.emplace(scenario::run_parsed(item.scenario, ro));
    }
    const double us = us_between(r0, Clock::now());
    if (run_us != nullptr) run_us->add(us);
    if (!*res) {
      ps.ok = false;
      continue;
    }
    const exp::Result& r = res->value();
    const std::string rendered = serve::render_result(r);
    ps.digest.add(rendered);
    if ((*expected)[i].empty()) {
      (*expected)[i] = rendered;
    } else if ((*expected)[i] != rendered) {
      ps.ok = false;
    }
    if (item.scenario.kind == scenario::Kind::kSoc) {
      ps.accesses += metric_int(r, "rt_accesses") +
                     metric_int(r, "hog_accesses") +
                     metric_int(r, "trace_accesses");
      ps.soc_wall_us += us;
    }
    ps.write_batches += metric_int(r, "write_batches");
    ps.memguard_throttles += metric_int(r, "memguard_throttles");
    ps.mpam_throttles += metric_int(r, "mpam_throttles");
  }
  ps.wall_us = us_between(t0, Clock::now());
  return ps;
}

}  // namespace

int run_soc_sim(const Options& opt, Report& report) {
  // --- set-up: generate + parse the set, repeated ---
  Samples setup;
  std::vector<Item> items;
  Spans setup_spans(opt.trace);
  for (int k = 0; k < kSetups; ++k) {
    std::string error;
    const auto t0 = Clock::now();
    if (!build_set(opt, setup_spans, &items, &error)) {
      std::fprintf(stderr, "perfbench: soc_sim set-up: %s\n", error.c_str());
      return 1;
    }
    setup.add(us_between(t0, Clock::now()) / 1e6);
  }

  Spans spans(opt.trace);
  std::vector<int> span_ids;
  for (const Item& item : items) {
    span_ids.push_back(spans.intern("platform.run_scenario." + item.family));
  }
  std::vector<std::string> expected(items.size());

  // --- timed loop: one untimed warm-up pass, then whole passes until
  // --seconds is used up. A traced run alternates untraced and traced
  // passes, so both see the same machine and their ratio is the tracing
  // overhead. ---
  Spans off(false);
  const PassStats first =
      run_pass(items, off, span_ids, nullptr, nullptr, &expected);
  bool ok = first.ok;
  Samples run_us, pass_rate;
  double untraced_wall = 0.0, traced_wall = 0.0;
  std::size_t untraced_passes = 0, traced_passes = 0;
  std::int64_t accesses = 0;
  double soc_wall = 0.0;
  const auto t0 = Clock::now();
  for (std::size_t pass = 0;
       pass == 0 || us_between(t0, Clock::now()) < opt.seconds * 1e6; ++pass) {
    const bool traced = opt.trace && pass % 2 == 1;
    const PassStats ps = run_pass(items, traced ? spans : off, span_ids,
                                  nullptr, &run_us, &expected);
    ok = ok && ps.ok && ps.digest.value() == first.digest.value();
    (traced ? traced_wall : untraced_wall) += ps.wall_us;
    ++(traced ? traced_passes : untraced_passes);
    pass_rate.add(static_cast<double>(ps.accesses) / (ps.wall_us / 1e6));
    accesses += ps.accesses;
    soc_wall += ps.soc_wall_us;
  }
  const std::size_t passes = untraced_passes + traced_passes;
  report.attempt(static_cast<long>(passes * items.size()));
  if (!ok) {
    report.fail(1);
    report.wrong("a scenario failed or did not reproduce its first result");
  }
  report.note("soc_sim: " + std::to_string(items.size()) + " scenarios x " +
              std::to_string(passes) + " passes, simulated statistics digest " +
              first.digest.hex());

  if (!opt.trace) {
    report.timing("setup_s", setup.median(), "s", setup.size());
    report.timing("req_p50_us", run_us.quantile(0.5), "us", run_us.size());
    report.note("scenario runs: p99 " + num(run_us.quantile(0.99)) + " us");
    report.timing("req_p95_us", run_us.quantile(0.95), "us", run_us.size());
    // Median over passes: a pass hit by a host hiccup does not move it.
    report.timing("throughput_rps", pass_rate.median(), "1/s",
                  pass_rate.size());
    report.metric("peak_rss_mb", self_peak_rss_mb(), "MB");
    return 0;
  }

  // The repository's own simulated-time tracer on the two example worlds
  // (it records every simulated event, ~60x the untraced cost on the
  // generated families): its event count and cost, and the results must
  // not change.
  std::vector<Item> files;
  std::vector<int> file_ids;
  std::vector<std::string> file_expected;
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (items[i].scenario.kind == pap::scenario::Kind::kSoc) continue;
    files.push_back(items[i]);
    file_ids.push_back(span_ids[i]);
    file_expected.push_back(expected[i]);
  }
  const PassStats plain =
      run_pass(files, off, file_ids, nullptr, nullptr, &file_expected);
  pap::trace::Tracer tracer;
  const PassStats with_tracer =
      run_pass(files, off, file_ids, &tracer, nullptr, &file_expected);
  if (!plain.ok || !with_tracer.ok) {
    report.wrong("attaching trace::Tracer changed the simulated statistics");
  }
  if (!opt.spans_out.empty() && !spans.write_csv(opt.spans_out)) {
    report.note("could not write " + opt.spans_out);
  }

  const SpanTable t = spans.aggregate();
  const SpanTable st = setup_spans.aggregate();
  report.metric("scenario.generate.mean_us", mean_us(st, "scenario.generate"),
                "us");
  report.metric("scenario.parse.mean_us", mean_us(st, "scenario.parse"), "us");
  std::vector<std::string> families(std::begin(kFamilies), std::end(kFamilies));
  families.insert(families.end(), std::begin(kFiles), std::end(kFiles));
  for (const std::string& family : families) {
    const std::string name = "platform.run_scenario." + family;
    report.metric(name + ".mean_ms", mean_us(t, name) / 1000.0, "ms");
  }
  report.metric("sim.host_ns_per_access",
                accesses > 0 ? soc_wall * 1000.0 / static_cast<double>(accesses)
                             : 0.0,
                "ns");
  report.metric("sim.accesses", static_cast<double>(first.accesses), "count");
  report.metric("dram.write_batches", static_cast<double>(first.write_batches),
                "count");
  report.metric("sched.memguard_throttles",
                static_cast<double>(first.memguard_throttles), "count");
  report.metric("mpam.throttles", static_cast<double>(first.mpam_throttles),
                "count");
  report.metric("trace.sim_events", static_cast<double>(tracer.size()),
                "count");
  report.metric("trace.sim_tracer_ratio", with_tracer.wall_us / plain.wall_us,
                "ratio");
  const double overhead =
      traced_passes == 0
          ? 0.0
          : (traced_wall / static_cast<double>(traced_passes)) /
                (untraced_wall / static_cast<double>(untraced_passes));
  SpanTable all = t;
  all.insert(st.begin(), st.end());
  report_trace_summary(report, all, overhead, run_us.size());
  return 0;
}

}  // namespace perfbench
