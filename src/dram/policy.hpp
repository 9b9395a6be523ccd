// Pluggable DRAM arbitration policies for the controller in controller.hpp.
//
// The paper's Sec. IV-A/V argument is that the *arbitration policy* — not
// raw bandwidth — determines a memory system's predictability. This module
// turns the policy into a strategy object so the same command engine
// (queues, refresh, bus turnaround, hit pipelining, tracing) can host the
// whole design space the predictable-platform literature compares:
//
//  * kFrFcfs          — the paper's baseline: oldest row hit promoted over
//                       older misses, capped at N_cap back-to-back, write
//                       batches of N_wd under the W_low/W_high watermarks.
//  * kFcfs            — strict arrival order inside the selected priority
//                       class; no promotion, so the WCD loses its hit-block
//                       term at the price of the open-row average case.
//  * kClosePage       — auto-precharge after every access: rows never stay
//                       open, every access pays the same ACT+CAS+PRE cycle.
//                       Flat latency, zero hit block (the classic
//                       predictable baseline, Sec. V).
//  * kWriteDrain      — ChampSim-style drain-to-empty write mode: enter at
//                       W_high (or on an idle read queue), leave only when
//                       the queue is empty or falls under W_low with reads
//                       pending, and pay an extra data-bus turn-around
//                       penalty on every direction change. Average-friendly
//                       but the drain length is unbounded by N_wd, so no
//                       analytic WCD bound exists.
//  * kStarvationGuard — FR-FCFS plus an age cap: a read that has waited
//                       longer than `age_cap` bypasses row-hit promotion
//                       (PCMCsim's find_starved rule). The cap tightens the
//                       promoted-hit term of the WCD.
//
// Policies are stateless const strategies; all mutable scheduling state
// (queues, streaks, batch counters) lives in the Controller, which exposes
// it read-only. That keeps determinism and tracing in one place and makes
// the FR-FCFS policy bit-identical to the pre-strategy controller.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.hpp"
#include "dram/request_queue.hpp"
#include "dram/timing.hpp"

namespace pap::dram {

class Controller;

enum class PolicyKind : std::uint8_t {
  kFrFcfs,
  kFcfs,
  kClosePage,
  kWriteDrain,
  kStarvationGuard,
};

/// All kinds, in the canonical sweep/report order.
const std::vector<PolicyKind>& all_policy_kinds();

/// Canonical names: "frfcfs", "fcfs", "close_page", "write_drain",
/// "starvation_guard".
std::string to_string(PolicyKind kind);

/// Strict parse of a canonical name; the error lists the valid names.
Expected<PolicyKind> parse_policy(const std::string& name);

/// Does WcdAnalysis have a sound worst-case bound for this policy?
/// Everything except kWriteDrain, whose drain length is unbounded by N_wd.
bool policy_analyzable(PolicyKind kind);

/// Arbitration strategy: request pick, row management and read/write
/// turnaround decisions. Implementations are stateless and read controller
/// state through the const accessors on Controller.
class SchedulerPolicy {
 public:
  virtual ~SchedulerPolicy() = default;

  virtual PolicyKind kind() const = 0;

  /// Position in the read queue of the request to serve next, or
  /// RequestQueue::kNone when the queue is empty.
  virtual RequestQueue::Pos pick_read(const Controller& c) const = 0;

  /// Position in the (non-empty) write queue of the write to serve next.
  virtual RequestQueue::Pos pick_write(const Controller& c) const = 0;

  /// In read mode: leave the read queue and start serving writes?
  virtual bool switch_to_writes(const Controller& c) const = 0;

  /// In write mode: end the current write batch and go back to reads?
  virtual bool write_batch_done(const Controller& c) const = 0;

  /// Row management: precharge after every access (close-page)? A fixed
  /// property of the policy: the controller reads it once, at construction.
  virtual bool auto_precharge() const = 0;

  /// Extra bus penalty added to both mode-switch turnarounds (the
  /// write-drain policy models the data-bus turn-around as tCS).
  virtual Time turnaround_penalty(const Timings& t) const = 0;
};

/// Factory for the built-in policies.
std::unique_ptr<SchedulerPolicy> make_policy(PolicyKind kind);

}  // namespace pap::dram
