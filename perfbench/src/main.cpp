// perfbench — one binary, three workloads (README.md in this directory):
//
//   perfbench --workload serve_mix|admit_churn|soc_sim --seed N --seconds S
//             --trace 0|1 --papd PATH --root DIR [--spans-out FILE]
//
// Run from an empty working directory: papd's socket is created there under a
// relative name. The last stdout line is the JSON result; with --trace 0 it
// holds the end-to-end metrics, with --trace 1 the per-layer metrics of the
// traced in-process replay. run.py builds and invokes this.
#include <cstdio>
#include <cstdlib>
#include <string>

#include "bench.hpp"

namespace {

void usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload serve_mix|admit_churn|soc_sim "
               "--seed N --seconds S --trace 0|1 --papd PATH --root DIR "
               "[--spans-out FILE]\n");
}

bool parse_u64(const char* text, std::uint64_t* out) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text, &end, 10);
  if (end == text || *end != '\0') return false;
  *out = v;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opt;
  bool have_seconds = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) {
      usage();
      return 2;
    }
    const char* value = argv[++i];
    std::uint64_t v = 0;
    if (arg == "--workload") {
      opt.workload = value;
    } else if (arg == "--seed" && parse_u64(value, &v)) {
      opt.seed = v;
    } else if (arg == "--seconds" && parse_u64(value, &v) && v >= 1 &&
               v <= 600) {
      opt.seconds = static_cast<double>(v);
      have_seconds = true;
    } else if (arg == "--trace" && parse_u64(value, &v) && v <= 1) {
      opt.trace = v == 1;
    } else if (arg == "--papd") {
      opt.papd = value;
    } else if (arg == "--root") {
      opt.root = value;
    } else if (arg == "--spans-out") {
      opt.spans_out = value;
    } else {
      std::fprintf(stderr, "perfbench: bad argument '%s'\n", arg.c_str());
      usage();
      return 2;
    }
  }
  if (!have_seconds || opt.papd.empty() || opt.root.empty()) {
    usage();
    return 2;
  }

  perfbench::Report report;
  int rc = 2;
  if (opt.workload == "serve_mix") {
    rc = perfbench::run_serve_mix(opt, report);
  } else if (opt.workload == "admit_churn") {
    rc = perfbench::run_admit_churn(opt, report);
  } else if (opt.workload == "soc_sim") {
    rc = perfbench::run_soc_sim(opt, report);
  } else {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 opt.workload.c_str());
    usage();
    return 2;
  }
  if (rc != 0) return rc;
  report.print_json();
  return 0;
}
