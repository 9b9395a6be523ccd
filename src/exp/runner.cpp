#include "exp/runner.hpp"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <thread>

#include "common/check.hpp"
#include "common/grammar.hpp"
#include "fault/plan.hpp"
#include "nc/arena.hpp"
#include "trace/chrome_trace.hpp"
#include "trace/tracer.hpp"

namespace pap::exp {

namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

}  // namespace

std::size_t SweepSummary::completed() const {
  std::size_t n = 0;
  for (const auto& p : points) {
    if (p.status != PointStatus::kSkipped) ++n;
  }
  return n;
}

std::vector<Result> SweepSummary::results() const {
  std::vector<Result> out;
  out.reserve(points.size());
  for (const auto& p : points) {
    if (p.status != PointStatus::kSkipped) out.push_back(p.result);
  }
  return out;
}

const Result& SweepSummary::result(std::size_t i) const {
  PAP_CHECK_MSG(i < points.size(), "sweep point index out of range");
  PAP_CHECK_MSG(points[i].status != PointStatus::kSkipped,
                "sweep point was skipped (cancelled sweep?)");
  return points[i].result;
}

std::string SweepSummary::timing_summary() const {
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "[%s] %zu/%zu points on %d thread%s: %.1f ms wall, %.1f ms "
                "serial cost, %.2fx speedup, %zu cache hit%s%s",
                experiment.c_str(), completed(), points.size(), jobs,
                jobs == 1 ? "" : "s", wall_ms, points_ms, parallel_speedup(),
                cache_hits, cache_hits == 1 ? "" : "s",
                cancelled ? ", CANCELLED" : "");
  return buf;
}

Runner& Runner::add_sink(ResultSink* sink) {
  PAP_CHECK(sink != nullptr);
  sinks_.push_back(sink);
  return *this;
}

SweepSummary Runner::run(const Experiment& exp, const Sweep& sweep) {
  PAP_CHECK_MSG(static_cast<bool>(exp.run) || static_cast<bool>(exp.run_traced),
                "Experiment has no run functor");
  const bool tracing = !opts_.trace_dir.empty() &&
                       static_cast<bool>(exp.run_traced);
  cancel_.store(false, std::memory_order_relaxed);

  SweepSummary summary;
  summary.experiment = exp.name;
  const std::size_t n = sweep.size();
  summary.points.resize(n);
  for (std::size_t i = 0; i < n; ++i) summary.points[i].params = sweep[i];

  int jobs = opts_.jobs;
  if (jobs <= 0) {
    jobs = static_cast<int>(std::thread::hardware_concurrency());
    if (jobs < 1) jobs = 1;
  }
  if (static_cast<std::size_t>(jobs) > n) jobs = static_cast<int>(n);
  summary.jobs = jobs;

  const ResultCache cache(opts_.cache_dir);
  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> hits{0};

  const auto sweep_start = Clock::now();
  auto worker = [&] {
    while (!cancel_.load(std::memory_order_relaxed)) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) break;
      PointOutcome& out = summary.points[i];
      const auto point_start = Clock::now();
      if (cache.enabled() && opts_.read_cache) {
        if (auto cached = cache.load(exp, out.params)) {
          out.result = std::move(*cached);
          out.status = PointStatus::kCached;
          out.wall_ms = ms_since(point_start);
          hits.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
      }
      if (tracing) {
        // Per-point Tracer: each point owns its trace, so traced sweeps
        // stay deterministic for any jobs count.
        trace::Tracer tracer;
        out.result = exp.run_traced(out.params, &tracer);
        out.trace_json = trace::to_chrome_json(tracer);
        out.counters_csv = tracer.counters().csv();
      } else if (exp.run_traced) {
        out.result = exp.run_traced(out.params, nullptr);
      } else {
        out.result = exp.run(out.params);
      }
      out.status = PointStatus::kRan;
      out.wall_ms = ms_since(point_start);
      cache.store(exp, out.params, out.result);
    }
    // Analyses that ran on this worker grew its thread-local curve arena to
    // the sweep's peak decision footprint; return that memory before the
    // worker exits (the next sweep re-grows in one block).
    nc::thread_arena().release();
  };

  if (jobs == 1) {
    worker();
  } else {
    std::vector<std::thread> pool;
    pool.reserve(static_cast<std::size_t>(jobs));
    for (int t = 0; t < jobs; ++t) pool.emplace_back(worker);
    for (auto& t : pool) t.join();
  }

  summary.wall_ms = ms_since(sweep_start);
  summary.cancelled = cancel_.load(std::memory_order_relaxed);
  summary.cache_hits = hits.load(std::memory_order_relaxed);
  for (const auto& p : summary.points) summary.points_ms += p.wall_ms;

  // Deterministic delivery: submission order, on the calling thread.
  for (std::size_t i = 0; i < n; ++i) {
    if (summary.points[i].status == PointStatus::kSkipped) continue;
    for (ResultSink* sink : sinks_) sink->on_result(summary, i);
  }
  for (ResultSink* sink : sinks_) sink->on_finish(summary);
  return summary;
}

std::string cli_usage(const std::string& prog) {
  return "usage: " + prog +
         " [options]\n"
         "  --jobs N | --jobs=N | -j N   worker threads (0 = all cores)\n"
         "  --cache                      cache results under <out>/cache\n"
         "  --out DIR | --out=DIR        output directory (default "
         "bench/out)\n"
         "  --trace[=DIR]                write per-point Chrome traces and\n"
         "                               counter CSVs (default <out>/traces)\n"
         "  --faults PLAN | --faults=PLAN\n"
         "                               fault-injection plan, e.g.\n"
         "                               'seed=7,drop=stop:0.1,crash@1ms=app2'"
         "\n"
         "                               (see docs/fault_injection.md)\n"
         "  --scenario FILE | --scenario=FILE\n"
         "                               a .pap scenario file (repeatable;\n"
         "                               see docs/scenarios.md)\n"
         "  --scenario-family SPEC | --scenario-family=SPEC\n"
         "                               a seeded scenario family,\n"
         "                               NAME[,seed=S][,n=K] (repeatable)\n"
         "  --smoke                      reduced sweep for CI smoke runs\n"
         "  --help                       show this message and exit\n";
}

namespace {

Expected<CliOptions> cli_error(const std::string& msg) {
  return Expected<CliOptions>::error(msg);
}

/// Shape check for `--scenario-family NAME[,seed=S][,n=K]`: family token
/// in [a-z0-9_]+, options decimal. Known-family validation happens in the
/// scenario layer (exp sits below it).
bool family_spec_shape_ok(const std::string& spec) {
  const std::size_t comma = spec.find(',');
  if (!is_name(std::string_view(spec).substr(0, comma))) return false;
  std::size_t start = comma;
  while (start != std::string::npos) {
    ++start;
    const std::size_t next = spec.find(',', start);
    const std::string part = spec.substr(
        start, next == std::string::npos ? std::string::npos : next - start);
    std::size_t digits = 0;
    if (part.rfind("seed=", 0) == 0) {
      digits = 5;
    } else if (part.rfind("n=", 0) == 0) {
      digits = 2;
    } else {
      return false;
    }
    std::uint64_t value = 0;
    if (!parse_u64(std::string_view(part).substr(digits), &value)) {
      return false;
    }
    start = next;
  }
  return true;
}

}  // namespace

Expected<CliOptions> parse_cli_args(int argc, const char* const* argv) {
  CliOptions cli;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--help" || a == "-h") {
      cli.help = true;
    } else if (a.rfind("--jobs=", 0) == 0) {
      if (!parse_int(a.substr(7), 0, 100000, &cli.jobs)) {
        return cli_error("invalid value for --jobs: '" + a.substr(7) + "'");
      }
    } else if (a == "--jobs" || a == "-j") {
      if (i + 1 >= argc) return cli_error(a + " requires a value");
      if (!parse_int(argv[++i], 0, 100000, &cli.jobs)) {
        return cli_error("invalid value for " + a + ": '" + argv[i] + "'");
      }
    } else if (a == "--cache") {
      cli.cache = true;
    } else if (a == "--smoke") {
      cli.smoke = true;
    } else if (a.rfind("--out=", 0) == 0) {
      if (a.size() == 6) return cli_error("--out requires a directory");
      cli.out_dir = a.substr(6);
    } else if (a == "--out") {
      if (i + 1 >= argc) return cli_error("--out requires a directory");
      cli.out_dir = argv[++i];
    } else if (a == "--trace") {
      cli.trace = true;
    } else if (a.rfind("--trace=", 0) == 0) {
      if (a.size() == 8) return cli_error("--trace= requires a directory");
      cli.trace = true;
      cli.trace_dir = a.substr(8);
    } else if (a == "--faults" || a.rfind("--faults=", 0) == 0) {
      std::string plan_text;
      if (a.rfind("--faults=", 0) == 0) {
        plan_text = a.substr(9);
      } else {
        if (i + 1 >= argc) return cli_error("--faults requires a plan");
        plan_text = argv[++i];
      }
      if (plan_text.empty()) return cli_error("--faults requires a plan");
      // Validate eagerly so a typo'd plan fails at the CLI (exit 64 via
      // parse_cli), not deep inside a sweep.
      auto plan = fault::FaultPlan::parse(plan_text);
      if (!plan) {
        return cli_error("invalid --faults plan: " + plan.error_message());
      }
      cli.faults = plan_text;
    } else if (a == "--scenario" || a.rfind("--scenario=", 0) == 0) {
      std::string file;
      if (a.rfind("--scenario=", 0) == 0) {
        file = a.substr(11);
      } else {
        if (i + 1 >= argc) return cli_error("--scenario requires a file");
        file = argv[++i];
      }
      if (file.empty()) return cli_error("--scenario requires a file");
      cli.scenarios.push_back(std::move(file));
    } else if (a == "--scenario-family" ||
               a.rfind("--scenario-family=", 0) == 0) {
      std::string spec;
      if (a.rfind("--scenario-family=", 0) == 0) {
        spec = a.substr(18);
      } else {
        if (i + 1 >= argc) {
          return cli_error("--scenario-family requires a spec");
        }
        spec = argv[++i];
      }
      if (!family_spec_shape_ok(spec)) {
        return cli_error("invalid --scenario-family spec '" + spec +
                         "' (want NAME[,seed=S][,n=K])");
      }
      cli.scenario_families.push_back(std::move(spec));
    } else {
      return cli_error("unknown argument: '" + a + "'");
    }
  }
  return cli;
}

CliOptions parse_cli(int argc, char** argv) {
  const char* prog = argc > 0 && argv[0] != nullptr ? argv[0] : "bench";
  auto parsed = parse_cli_args(argc, argv);
  if (!parsed) {
    std::fprintf(stderr, "%s\n%s", parsed.error_message().c_str(),
                 cli_usage(prog).c_str());
    std::exit(64);  // EX_USAGE
  }
  if (parsed.value().help) {
    std::fputs(cli_usage(prog).c_str(), stdout);
    std::exit(0);
  }
  return std::move(parsed).value();
}

RunnerOptions to_runner_options(const CliOptions& cli) {
  RunnerOptions opts;
  opts.jobs = cli.jobs;
  if (cli.cache) opts.cache_dir = cli.out_dir + "/cache";
  if (cli.trace) {
    opts.trace_dir =
        cli.trace_dir.empty() ? cli.out_dir + "/traces" : cli.trace_dir;
  }
  opts.faults = cli.faults;
  return opts;
}

}  // namespace pap::exp
