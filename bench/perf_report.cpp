// Perf-regression harness: runs the shared microbenchmark set and writes the
// results to BENCH_nc.json (NC curve algebra + WCD analysis) and
// BENCH_sim.json (DES kernel, SoC simulator) in a stable, diff-friendly
// schema:
//
//   {
//     "schema": "pap-bench-v1",
//     "suite": "nc",
//     "build_type": "Release",
//     "benchmarks": [
//       {"name": "BM_NcDeconvolve", "real_ns": 1.23e3,
//        "cpu_ns": 1.20e3, "iterations": 567890},
//       ...
//     ]
//   }
//
// No timestamps or host info on purpose: reruns on the same machine diff
// cleanly except for the numbers. The build type is recorded because a
// Debug run is no baseline for a Release one. tools/bench_compare.py consumes these
// files, both to compare a fresh run against the committed baselines (warn
// or fail on >25% regressions) and to enforce machine-independent
// optimized-vs-reference speedup floors. See docs/performance.md.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "perf_benchmarks.hpp"

namespace {

struct Result {
  std::string name;
  double real_ns = 0.0;
  double cpu_ns = 0.0;
  std::int64_t iterations = 0;
  /// User counters (e.g. ns_per_access), written after "iterations".
  std::vector<std::pair<std::string, double>> counters;
};

/// Collects per-iteration results while still printing the familiar console
/// table, so interactive runs remain readable. A benchmark run with
/// --benchmark_repetitions keeps one result: its fastest repetition by real
/// time, the one least disturbed by the rest of the machine.
class CollectingReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& runs) override {
    for (const auto& r : runs) {
      if (r.run_type != Run::RT_Iteration) continue;
      if (r.error_occurred) continue;
      Result res;
      res.name = r.benchmark_name();
      res.real_ns = r.GetAdjustedRealTime();
      res.cpu_ns = r.GetAdjustedCPUTime();
      res.iterations = r.iterations;
      for (const auto& [name, counter] : r.counters) {
        res.counters.emplace_back(name, counter.value);
      }
      auto seen = std::find_if(
          results_.begin(), results_.end(),
          [&](const Result& other) { return other.name == res.name; });
      if (seen == results_.end()) {
        results_.push_back(std::move(res));
      } else if (res.real_ns < seen->real_ns) {
        *seen = std::move(res);
      }
    }
    ConsoleReporter::ReportRuns(runs);
  }

  const std::vector<Result>& results() const { return results_; }

 private:
  std::vector<Result> results_;
};

bool is_sim_bench(const std::string& name) {
  return name.rfind("BM_Kernel", 0) == 0 || name.rfind("BM_Sim", 0) == 0 ||
         name.rfind("BM_Soc", 0) == 0;
}

bool write_suite(const std::string& path, const std::string& suite,
                 const std::vector<Result>& results) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) {
    std::fprintf(stderr, "perf_report: cannot open %s for writing\n",
                 path.c_str());
    return false;
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"schema\": \"pap-bench-v1\",\n");
  std::fprintf(f, "  \"suite\": \"%s\",\n", suite.c_str());
  std::fprintf(f, "  \"build_type\": \"%s\",\n", PAP_BUILD_TYPE);
  std::fprintf(f, "  \"benchmarks\": [\n");
  for (std::size_t i = 0; i < results.size(); ++i) {
    const auto& r = results[i];
    std::fprintf(f,
                 "    {\"name\": \"%s\", \"real_ns\": %.6g, "
                 "\"cpu_ns\": %.6g, \"iterations\": %lld",
                 r.name.c_str(), r.real_ns, r.cpu_ns,
                 static_cast<long long>(r.iterations));
    for (const auto& [name, value] : r.counters) {
      std::fprintf(f, ", \"%s\": %.6g", name.c_str(), value);
    }
    std::fprintf(f, "}%s\n", i + 1 < results.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n");
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::printf("perf_report: wrote %zu benchmarks to %s\n", results.size(),
              path.c_str());
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  // Strip our own flags before google-benchmark sees the argv.
  // --min-runtime-ms N is a warmup/repeat knob: it maps to google-benchmark's
  // --benchmark_min_time=<N/1000>s, forcing every benchmark to run at least
  // that long so short kernels get enough iterations for a stable median on
  // noisy CI runners.
  std::string out_dir = ".";
  std::string min_time_flag;  // owns the synthesized argv entry
  std::vector<char*> args;
  args.push_back(argv[0]);
  auto set_min_runtime = [&](const char* val) {
    const double ms = std::atof(val);
    if (ms <= 0.0) {
      std::fprintf(stderr,
                   "perf_report: --min-runtime-ms needs a positive number, "
                   "got '%s'\n",
                   val);
      std::exit(64);
    }
    min_time_flag = "--benchmark_min_time=" + std::to_string(ms / 1000.0);
  };
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--out-dir=", 10) == 0) {
      out_dir = argv[i] + 10;
    } else if (std::strcmp(argv[i], "--out-dir") == 0 && i + 1 < argc) {
      out_dir = argv[++i];
    } else if (std::strncmp(argv[i], "--min-runtime-ms=", 17) == 0) {
      set_min_runtime(argv[i] + 17);
    } else if (std::strcmp(argv[i], "--min-runtime-ms") == 0 && i + 1 < argc) {
      set_min_runtime(argv[++i]);
    } else {
      args.push_back(argv[i]);
    }
  }
  if (!min_time_flag.empty()) args.push_back(min_time_flag.data());
  int bench_argc = static_cast<int>(args.size());
  benchmark::Initialize(&bench_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(bench_argc, args.data())) {
    return 1;
  }

  CollectingReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();

  std::vector<Result> nc_results;
  std::vector<Result> sim_results;
  for (const auto& r : reporter.results()) {
    (is_sim_bench(r.name) ? sim_results : nc_results).push_back(r);
  }
  const bool ok = write_suite(out_dir + "/BENCH_nc.json", "nc", nc_results) &&
                  write_suite(out_dir + "/BENCH_sim.json", "sim", sim_results);
  return ok ? 0 : 1;
}
