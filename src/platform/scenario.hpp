// Mixed-criticality scenario runner: one RT reader vs. N bandwidth hogs on
// a shared cluster, with the paper's isolation mechanisms as switchable
// knobs. This is the harness behind the motivation bench (latency
// inflation under interference), the Fig. 2 bench (DSU partitioning
// efficacy), the Memguard ablation, and the scenario description language
// (src/scenario): every `.pap` file of kind `soc` lowers to a
// `ScenarioConfig`.
//
// Configuration is one plain aggregate of knobs:
//
//   auto r = run_scenario({.hogs = 3, .memguard = true,
//                          .sim_time = Time::ms(2)},
//                         "3 hogs, memguard");
//
// `ScenarioConfig::validate()` Status-checks the knob combination;
// `run_scenario` validates before running. A tracer and a trace-recording
// sink are run arguments, not knobs. Each run constructs its own
// `sim::Kernel`, so scenario runs are safe to execute concurrently from
// the exp::Runner thread pool.
//
// Beyond the classic RT-reader-vs-hogs world, a scenario can add extra
// masters (`MasterSpec`: more readers, more hogs, or trace-replay masters
// feeding a recorded access stream back through the SoC) and a phase
// script (`PhaseSpec`: timed start/stop actions against named masters —
// flash crowds, mode changes). The default world is byte-identical to the
// pre-master-list runner when `masters`/`phases` are empty.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common/status.hpp"
#include "fault/plan.hpp"
#include "platform/soc.hpp"
#include "platform/trace_master.hpp"
#include "platform/workload.hpp"

namespace pap::trace {
class Tracer;
}

namespace pap::platform {

/// One additional master beyond the default RT-reader/hog world. Masters
/// are named so timed phases can address them; names share a namespace
/// with the built-in "rt" and "hog1".."hogN".
struct MasterSpec {
  enum class Kind { kRtReader, kBandwidthHog, kTraceReplay };

  Kind kind = Kind::kBandwidthHog;
  std::string name;          ///< unique, [a-z0-9_]+, not a built-in name
  /// Critical masters run under the RT L3 scheme and are unregulated by
  /// Memguard/MPAM (like the built-in reader); non-critical masters get a
  /// budgeted domain / limited PARTID each (like the hogs).
  bool critical = false;
  bool start_paused = false;  ///< created stalled; a phase `start`s it

  // RtReader knobs (kind == kRtReader).
  Time period = Time::us(10);
  int reads_per_batch = 32;
  cache::Addr base = 0;
  std::uint64_t working_set = 64 * 1024;
  bool writes = false;

  // BandwidthHog knobs (kind == kBandwidthHog; `base`/`working_set` above
  // are shared).
  double write_fraction = 0.5;
  Time think_time;
  std::uint64_t seed = 42;

  // TraceReplay knobs (kind == kTraceReplay): inline `records` win over
  // `trace_path` (which is loaded when the scenario runs). The recorded
  // core indices address this scenario's cores directly; the SoC is sized
  // to cover them, and a record's criticality flag promotes its core to
  // the RT scheme.
  std::string trace_path;
  std::vector<TraceRecord> records;
};

/// One timed action of the scenario's phase script.
struct PhaseSpec {
  enum class Action { kStart, kStop };

  Time at;                           ///< absolute scenario time
  Action action = Action::kStart;
  std::string master;  ///< "rt", "hog1".."hogN", or a MasterSpec name

  bool operator==(const PhaseSpec&) const = default;
};

/// Every knob of one SoC scenario, with the defaults of the classic
/// world. Set fields directly or by designated initializer (the `{}` on
/// the class-type fields keeps -Wmissing-field-initializers quiet when an
/// initializer leaves them out).
struct ScenarioConfig {
  int hogs = 3;                     ///< interfering cores
  bool dsu_partitioning = false;    ///< give the RT reader a private L3 group
  bool memguard = false;            ///< regulate hog DRAM bandwidth (SW)
  bool mpam_bw = false;             ///< regulate hog DRAM bandwidth (HW)
  bool stop_the_world = false;      ///< stall all hogs during RT batches
  std::uint64_t hog_budget_per_period = 20;  ///< Memguard accesses/period
  Time memguard_period = Time::us(10);
  Time sim_time = Time::ms(2);
  bool rt_enabled = true;           ///< run the built-in RT reader on core 0
  int rt_reads_per_batch = 32;      ///< RT duty cycle knobs
  Time rt_period = Time::us(10);
  std::uint64_t rt_working_set = 64 * 1024;  ///< > L3 makes RT DRAM-bound
  /// DRAM arbitration policy of the scenario's memory controller.
  dram::PolicyKind dram_policy = dram::PolicyKind::kFrFcfs;
  /// DRAM timing preset by name (dram::device_by_name; validated).
  std::string dram_device = "ddr3_1600";
  /// Extra masters beyond the default world (empty = classic scenario).
  std::vector<MasterSpec> masters{};
  /// Timed start/stop script over named masters (empty = all run always).
  /// Actions at t=0 take effect before any master issues.
  std::vector<PhaseSpec> phases{};
  /// Fault plan for this scenario. The scenario world has a DRAM controller
  /// but no NoC or RM, so only `dram@T=DUR` entries are meaningful;
  /// `validate()` rejects any other fault kind by name. Empty = no faults
  /// (byte-identical to a pre-fault-subsystem run).
  fault::FaultPlan fault_plan{};

  /// Why the knob combination is invalid, or OK. Every message names the
  /// offending knob and the value it was given.
  Status validate() const;
};

struct ScenarioResult {
  std::string label;
  LatencyHistogram rt_latency;      ///< per-access latency of RT readers
  LatencyHistogram rt_batch;        ///< per-batch completion
  std::uint64_t hog_accesses = 0;   ///< interfering throughput achieved
  std::uint64_t trace_accesses = 0;  ///< replayed trace records issued
  LatencyHistogram trace_latency;    ///< per-access latency of replay masters
  std::uint64_t memguard_throttles = 0;
  Time memguard_overhead;
  std::uint64_t mpam_throttles = 0;
  std::uint64_t injected_dram_stalls = 0;  ///< fault-plan stalls that fired
  /// Per-core access latency distributions as the Soc saw them (index =
  /// global core). This is the ps-exact ground truth trace replay is
  /// pinned against.
  std::vector<LatencyHistogram> core_latency;
  /// Kernel events the run executed: the simulator's own cost measure
  /// (events per simulated access). Not a simulated statistic, so it is
  /// not rendered into results.
  std::uint64_t kernel_events = 0;

  /// Inflation of the given percentile vs. a baseline run.
  static double inflation(const ScenarioResult& base,
                          const ScenarioResult& loaded, double percentile);
};

/// Validate `config` and run the scenario. Deterministic for a given knob
/// set (seeded workloads, DES kernel); errors name the offending knob.
/// `tracer` (not owned) is attached to the run's kernel, so every
/// instrumented mechanism emits, plus scenario phase spans.
/// `record_trace` (not owned) receives one TraceRecord per
/// `Soc::memory_access` of the run (the pap_tracegen hook). Neither ever
/// changes simulation results (asserted in tests/trace_test.cpp).
Expected<ScenarioResult> run_scenario(
    const ScenarioConfig& config, std::string label,
    trace::Tracer* tracer = nullptr,
    std::vector<TraceRecord>* record_trace = nullptr);

}  // namespace pap::platform
