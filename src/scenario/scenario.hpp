// Scenario description language (`.pap` files).
//
// The paper's predictability techniques (Memguard, DSU/MPAM partitioning,
// FR-FCFS WCD bounds, RM admission) must hold across *many* workload
// scenarios, not the handful a bench author hand-codes. This subsystem
// turns a scenario into data: a small line-oriented text format with a
// strict validating parser (eager errors carrying line and column), a
// canonical printer (parse -> print -> parse round-trips byte-identically,
// the fault::FaultPlan precedent), a seeded scenario-family generator
// (generate.hpp) and an exp-engine runner (run.hpp).
//
// Grammar (line-oriented; `#` starts a full-line comment; blank lines are
// skipped; tokens separated by spaces/tabs; full reference in
// docs/scenarios.md):
//
//   scenario soc            # first directive: soc | dram | admission
//   name three_hogs         # [a-z0-9_]+ label, used for results
//   sim_time 1ms            # durations need a ns/us/ms suffix
//   hogs 3
//   dsu on                  # booleans are on|off
//   memguard off
//   ...
//   master crowd1 hog base=34359738368 working_set=8388608 ... paused=on
//   phase 200us start crowd1
//   phase 400us stop crowd1
//
// Three scenario kinds cover the repository's worlds:
//   * `soc`       — the mixed-criticality SoC scenario (platform/scenario
//                   .hpp): RT reader vs hogs, isolation knobs, extra
//                   masters (readers / hogs / trace replay), timed phases,
//                   fault plan.
//   * `dram`      — a bare DRAM controller under periodic reads + shaped
//                   writes (the Fig. 5 watermark-policy world).
//   * `admission` — NoC + RM end-to-end admission control over an app mix
//                   (the Fig. 6 world).
#pragma once

#include <string>
#include <vector>

#include "common/status.hpp"
#include "platform/scenario.hpp"

namespace pap::scenario {

enum class Kind { kSoc, kDram, kAdmission };

std::string to_string(Kind kind);

/// `scenario dram`: a single DRAM controller, one periodic read master and
/// one token-bucket-shaped write master (Fig. 5's watermark world).
struct DramScenario {
  Time sim_time = Time::ms(1);
  std::string device = "ddr3_1600";
  int banks = 1;
  int w_high = 8;
  int w_low = 4;
  int n_wd = 4;
  Time read_period = Time::ns(400);
  int read_bank = 0;
  int read_stride = 1;
  double write_rate_gbps = 5.0;
  double write_burst = 8.0;
  int write_bank = 0;

  Status validate() const;
};

/// One `app` line of an admission scenario.
struct AdmissionApp {
  int id = 0;
  double burst = 1.0;
  double rate = 0.0;  ///< packets per nanosecond (accepts `A/B` rationals)
  int src_x = 0, src_y = 0;
  int dst_x = 0, dst_y = 0;
  Time deadline;
  bool uses_dram = false;
};

/// `scenario admission`: NoC mesh + RM, an app mix pushed through
/// end-to-end admission control, the admitted set simulated with (or
/// without) RM-enforced shapers (Fig. 6's world).
struct AdmissionScenario {
  int mesh_cols = 4;
  int mesh_rows = 4;
  double link_rate_gbps = 64.0;
  int rm_node = 15;
  double burst_factor = 4.0;
  int packets = 300;
  bool enforce = true;
  std::vector<AdmissionApp> apps;

  Status validate() const;
};

/// A parsed scenario: kind plus the kind's payload. `soc` scenarios parse
/// straight into the platform runner's `ScenarioConfig`.
struct Scenario {
  Kind kind = Kind::kSoc;
  std::string name = "scenario";
  platform::ScenarioConfig soc;  ///< kind == kSoc
  DramScenario dram;             ///< kind == kDram
  AdmissionScenario admission;   ///< kind == kAdmission

  /// Canonical text: every knob printed in a fixed order with canonical
  /// value formats. `parse_scenario(canonical())` reproduces this scenario
  /// and `parse(print(parse(x)))` is byte-identical to `parse(x)` printed —
  /// generated scenario families rely on this for byte-stable output.
  std::string canonical() const;
};

/// Strict parse. Errors are eager and always carry the offending position
/// as `line L, col C: ...` (1-based).
Expected<Scenario> parse_scenario(const std::string& text);

/// File wrapper: reads `path` and parses; errors are prefixed with the
/// path. Relative `master ... trace file=` paths are rewritten relative to
/// the scenario file's directory.
Expected<Scenario> load_scenario(const std::string& path);

}  // namespace pap::scenario
