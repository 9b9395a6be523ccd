// Fault plans: the typed, declarative description of what to break.
//
// The admission-control protocol of Section V is only meaningful on an
// ASIL-rated platform if it tolerates the failures such platforms must
// survive: lost/duplicated/delayed control messages, crashing clients,
// flaky NoC links, transient DRAM stalls. A `FaultPlan` names those faults
// — parsed from a CLI string or built programmatically — and a
// `fault::Injector` (injector.hpp) schedules them deterministically on a
// `sim::Kernel`. Same plan + same seed => bit-identical fault sequence,
// so every degraded run is as reproducible as a healthy one.
//
// Plan grammar (comma-separated entries; docs/fault_injection.md):
//
//   seed=N                      RNG seed for probabilistic faults
//   drop=[TYPE:]P[:N]           drop a control leg with probability P
//   dup=[TYPE:]P[:N]            duplicate a control leg (extra copy later)
//   delay=[TYPE:]P:DUR[:N]      add DUR to a control leg's latency
//   reorder=[TYPE:]P:DUR[:N]    add uniform jitter in [0, DUR) (reorders
//                               relative to other in-flight messages)
//   crash@T=appA[+DUR]          crash app A's client at T; restart after
//                               DUR (omitted: never restarts)
//   link@T=rR:D:DUR             router R's output port D down for DUR
//                               (D in {L,E,W,N,S})
//   dram@T=DUR                  DRAM controller stalled for DUR from T
//
// TYPE restricts message faults to one leg kind (act, ter, stop, conf,
// stopack, confack; default any). N caps how many times the fault fires
// (0 / omitted: unlimited). T and DUR are durations like `200ns`, `1.5us`,
// `2ms`; values follow the shared grammar of common/grammar.hpp.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.hpp"
#include "common/time.hpp"

namespace pap::fault {

enum class FaultKind : std::uint8_t {
  kMsgDrop,      ///< control-message leg lost
  kMsgDup,       ///< control-message leg duplicated
  kMsgDelay,     ///< fixed extra latency on a control-message leg
  kMsgReorder,   ///< random jitter on a control-message leg
  kClientCrash,  ///< client crash (and optional restart)
  kLinkDown,     ///< NoC output channel down for a window
  kDramStall,    ///< DRAM controller issue stall window
};

std::string to_string(FaultKind kind);

/// Which control-protocol leg a message fault applies to.
enum class MsgClass : std::uint8_t {
  kAct,
  kTer,
  kStop,
  kConf,
  kStopAck,
  kConfAck,
  kAny,
};

std::string to_string(MsgClass cls);

/// One fault. Message faults (kMsg*) use {msg_class, probability, delay,
/// max_count}; timed faults (crash/link/dram) use {at, duration} plus their
/// target fields. Unused fields stay at their defaults.
struct FaultSpec {
  FaultKind kind = FaultKind::kMsgDrop;

  // --- message faults ---
  MsgClass msg_class = MsgClass::kAny;
  double probability = 0.0;     ///< per matching leg
  Time delay;                   ///< kMsgDelay: added; kMsgReorder: max jitter
  std::uint64_t max_count = 0;  ///< fire at most N times; 0 = unlimited

  // --- timed faults ---
  Time at;        ///< injection instant
  Time duration;  ///< window length; kClientCrash: restart delay (zero =
                  ///< the client never restarts)
  int app = 0;    ///< kClientCrash target
  int router = 0; ///< kLinkDown target router
  int port = 0;   ///< kLinkDown output port (noc::Direction enumerator value)

  /// Round-trippable plan-grammar rendering of this spec.
  std::string canonical() const;
};

/// An ordered list of faults plus the seed driving the probabilistic ones.
class FaultPlan {
 public:
  FaultPlan() = default;

  /// Strict parse of the plan grammar above. Unknown fault kinds, malformed
  /// probabilities/durations and out-of-range values are errors.
  static Expected<FaultPlan> parse(const std::string& text);

  FaultPlan& add(FaultSpec spec) {
    specs_.push_back(spec);
    return *this;
  }
  FaultPlan& set_seed(std::uint64_t seed) {
    seed_ = seed;
    has_seed_ = true;
    return *this;
  }

  bool empty() const { return specs_.empty(); }
  std::uint64_t seed() const { return seed_; }
  const std::vector<FaultSpec>& specs() const { return specs_; }

  /// Semantic validation (probabilities in [0,1], positive windows, ...).
  /// `parse` already applies it; programmatic builders may call it too.
  Status validate() const;

  /// This plan plus `other`'s specs appended; `other`'s explicit seed wins.
  FaultPlan merged_with(const FaultPlan& other) const;

  /// Round-trippable plan-grammar rendering (stable: used for labels and
  /// experiment cache identity).
  std::string canonical() const;

 private:
  std::vector<FaultSpec> specs_;
  std::uint64_t seed_ = 1;
  bool has_seed_ = false;
};

}  // namespace pap::fault
