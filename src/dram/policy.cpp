#include "dram/policy.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "dram/controller.hpp"

namespace pap::dram {

namespace {

// --- building blocks shared between policies -------------------------------
//
// Every per-request test below (row hit, priority class) is an inline
// Controller accessor, so a pick scans its queue without a call per
// queued request.

using Pos = RequestQueue::Pos;

/// Highest-priority (lowest value) master class present in the read queue.
/// MPAM priority partitioning restricts every read pick to this class.
/// With no priorities set, every request is in the lowest class.
std::uint8_t best_read_priority(const Controller& c) {
  if (!c.has_master_priorities()) return 255;
  const RequestQueue& q = c.read_queue();
  std::uint8_t best = 255;
  for (Pos p = q.front(); p != RequestQueue::kNone; p = q.next(p)) {
    best = std::min(best, c.master_priority(q[p].master));
  }
  return best;
}

/// Oldest request of the selected class: FCFS within the class.
Pos class_fcfs_head(const Controller& c, std::uint8_t best_prio) {
  return c.read_queue().find_first([&c, best_prio](const Request& r) {
    return c.master_priority(r.master) == best_prio;
  });
}

/// FR-FCFS read pick: the oldest eligible row hit is promoted over older
/// misses, but only for up to N_cap consecutive promotions; then FCFS.
Pos frfcfs_pick_read(const Controller& c) {
  const RequestQueue& q = c.read_queue();
  if (q.empty()) return RequestQueue::kNone;
  const std::uint8_t best_prio = best_read_priority(c);
  if (c.hit_streak() < c.params().n_cap) {
    const Pos hit = q.find_first([&c, best_prio](const Request& r) {
      return c.master_priority(r.master) == best_prio && c.row_open_hit(r);
    });
    if (hit != RequestQueue::kNone) return hit;
  }
  return class_fcfs_head(c, best_prio);
}

/// Oldest row hit first (no cap on the write side: writes are not
/// latency-critical, Sec. IV-A), else FCFS.
Pos frfcfs_pick_write(const Controller& c) {
  const RequestQueue& q = c.write_queue();
  const Pos hit =
      q.find_first([&c](const Request& r) { return c.row_open_hit(r); });
  return hit != RequestQueue::kNone ? hit : q.front();
}

/// Fig. 5: in read mode, go to writes when the read queue is empty and at
/// least W_low writes wait, or unconditionally at W_high. The
/// one-read-per-batch guard prevents the degenerate instant re-switch that
/// would starve reads outright (the worst-case pattern of Sec. IV-A is
/// "one read miss followed by a batch of N_wd writes").
bool watermark_switch_to_writes(const Controller& c) {
  const ControllerParams& p = c.params();
  if (c.write_queue().empty()) return false;
  if (c.read_queue().empty() &&
      c.write_queue().size() >= static_cast<std::size_t>(p.w_low)) {
    return true;
  }
  if (c.must_serve_read() && !c.read_queue().empty()) return false;
  return c.write_queue().size() >= static_cast<std::size_t>(p.w_high);
}

/// End the batch after N_wd writes when reads wait, when the queue is
/// empty, or when it drained below max(W_low - N_wd, 0) with no reads.
bool watermark_batch_done(const Controller& c) {
  const ControllerParams& p = c.params();
  const bool batch_done = c.writes_in_batch() >= p.n_wd;
  const bool drained =
      c.read_queue().empty() &&
      c.write_queue().size() <
          static_cast<std::size_t>(std::max(p.w_low - p.n_wd, 0));
  return (batch_done && !c.read_queue().empty()) || c.write_queue().empty() ||
         drained;
}

// --- the five policies ------------------------------------------------------

class FrFcfsPolicy final : public SchedulerPolicy {
 public:
  PolicyKind kind() const override { return PolicyKind::kFrFcfs; }
  Pos pick_read(const Controller& c) const override {
    return frfcfs_pick_read(c);
  }
  Pos pick_write(const Controller& c) const override {
    return frfcfs_pick_write(c);
  }
  bool switch_to_writes(const Controller& c) const override {
    return watermark_switch_to_writes(c);
  }
  bool write_batch_done(const Controller& c) const override {
    return watermark_batch_done(c);
  }
  bool auto_precharge() const override { return false; }
  Time turnaround_penalty(const Timings&) const override {
    return Time::zero();
  }
};

/// Strict arrival order within the selected priority class. Rows still stay
/// open (a head-of-queue hit is served as a hit), but hits are never
/// promoted over older misses — the WCD loses its hit-block term.
class FcfsPolicy final : public SchedulerPolicy {
 public:
  PolicyKind kind() const override { return PolicyKind::kFcfs; }
  Pos pick_read(const Controller& c) const override {
    if (c.read_queue().empty()) return RequestQueue::kNone;
    return class_fcfs_head(c, best_read_priority(c));
  }
  Pos pick_write(const Controller& c) const override {
    return c.write_queue().front();
  }
  bool switch_to_writes(const Controller& c) const override {
    return watermark_switch_to_writes(c);
  }
  bool write_batch_done(const Controller& c) const override {
    return watermark_batch_done(c);
  }
  bool auto_precharge() const override { return false; }
  Time turnaround_penalty(const Timings&) const override {
    return Time::zero();
  }
};

/// Auto-precharge after every access: rows never stay open, every access
/// pays the full ACT + CAS (+ PRE) cycle, and there is nothing to promote —
/// flat latency bought with a worse average (Sec. V).
class ClosePagePolicy final : public SchedulerPolicy {
 public:
  PolicyKind kind() const override { return PolicyKind::kClosePage; }
  Pos pick_read(const Controller& c) const override {
    if (c.read_queue().empty()) return RequestQueue::kNone;
    return class_fcfs_head(c, best_read_priority(c));
  }
  Pos pick_write(const Controller& c) const override {
    return c.write_queue().front();
  }
  bool switch_to_writes(const Controller& c) const override {
    return watermark_switch_to_writes(c);
  }
  bool write_batch_done(const Controller& c) const override {
    return watermark_batch_done(c);
  }
  bool auto_precharge() const override { return true; }
  Time turnaround_penalty(const Timings&) const override {
    return Time::zero();
  }
};

/// ChampSim-style drain-to-empty write mode: enter at W_high (or whenever
/// the read queue is idle with writes pending), leave only when the write
/// queue empties or falls under W_low with reads waiting, and charge the
/// data-bus turn-around (modelled as tCS) on every direction change. The
/// drain length is not bounded by N_wd, so no analytic WCD bound exists.
class WriteDrainPolicy final : public SchedulerPolicy {
 public:
  PolicyKind kind() const override { return PolicyKind::kWriteDrain; }
  Pos pick_read(const Controller& c) const override {
    return frfcfs_pick_read(c);
  }
  Pos pick_write(const Controller& c) const override {
    return frfcfs_pick_write(c);
  }
  bool switch_to_writes(const Controller& c) const override {
    const ControllerParams& p = c.params();
    if (c.write_queue().empty()) return false;
    if (c.read_queue().empty()) return true;
    if (c.must_serve_read()) return false;
    return c.write_queue().size() >= static_cast<std::size_t>(p.w_high);
  }
  bool write_batch_done(const Controller& c) const override {
    const ControllerParams& p = c.params();
    if (c.write_queue().empty()) return true;
    return !c.read_queue().empty() &&
           c.write_queue().size() < static_cast<std::size_t>(p.w_low);
  }
  bool auto_precharge() const override { return false; }
  Time turnaround_penalty(const Timings& t) const override { return t.tCS; }
};

/// FR-FCFS plus PCMCsim's find_starved rule: a read that has waited longer
/// than `age_cap` bypasses row-hit promotion and is served in arrival
/// order. The cap bounds the promoted-hit block of the WCD by
/// age_cap + tCL + tBurst.
class StarvationGuardPolicy final : public SchedulerPolicy {
 public:
  PolicyKind kind() const override { return PolicyKind::kStarvationGuard; }
  Pos pick_read(const Controller& c) const override {
    const RequestQueue& q = c.read_queue();
    if (q.empty()) return RequestQueue::kNone;
    const std::uint8_t best_prio = best_read_priority(c);
    // The queue is in arrival order, so the first eligible request past the
    // age cap is the most starved one.
    const Time now = c.now();
    const Time age_cap = c.params().age_cap;
    const Pos starved =
        q.find_first([&c, best_prio, now, age_cap](const Request& r) {
          return c.master_priority(r.master) == best_prio &&
                 now - r.arrival > age_cap;
        });
    return starved != RequestQueue::kNone ? starved : frfcfs_pick_read(c);
  }
  Pos pick_write(const Controller& c) const override {
    return frfcfs_pick_write(c);
  }
  bool switch_to_writes(const Controller& c) const override {
    return watermark_switch_to_writes(c);
  }
  bool write_batch_done(const Controller& c) const override {
    return watermark_batch_done(c);
  }
  bool auto_precharge() const override { return false; }
  Time turnaround_penalty(const Timings&) const override {
    return Time::zero();
  }
};

}  // namespace

const std::vector<PolicyKind>& all_policy_kinds() {
  static const std::vector<PolicyKind> kAll{
      PolicyKind::kFrFcfs, PolicyKind::kFcfs, PolicyKind::kClosePage,
      PolicyKind::kWriteDrain, PolicyKind::kStarvationGuard};
  return kAll;
}

std::string to_string(PolicyKind kind) {
  switch (kind) {
    case PolicyKind::kFrFcfs:
      return "frfcfs";
    case PolicyKind::kFcfs:
      return "fcfs";
    case PolicyKind::kClosePage:
      return "close_page";
    case PolicyKind::kWriteDrain:
      return "write_drain";
    case PolicyKind::kStarvationGuard:
      return "starvation_guard";
  }
  PAP_UNREACHABLE("bad PolicyKind");
}

Expected<PolicyKind> parse_policy(const std::string& name) {
  for (const PolicyKind kind : all_policy_kinds()) {
    if (name == to_string(kind)) return kind;
  }
  std::string valid;
  for (const PolicyKind kind : all_policy_kinds()) {
    if (!valid.empty()) valid += ", ";
    valid += to_string(kind);
  }
  return Expected<PolicyKind>::error("unknown DRAM policy '" + name +
                                     "' (valid: " + valid + ")");
}

bool policy_analyzable(PolicyKind kind) {
  return kind != PolicyKind::kWriteDrain;
}

std::unique_ptr<SchedulerPolicy> make_policy(PolicyKind kind) {
  switch (kind) {
    case PolicyKind::kFrFcfs:
      return std::make_unique<FrFcfsPolicy>();
    case PolicyKind::kFcfs:
      return std::make_unique<FcfsPolicy>();
    case PolicyKind::kClosePage:
      return std::make_unique<ClosePagePolicy>();
    case PolicyKind::kWriteDrain:
      return std::make_unique<WriteDrainPolicy>();
    case PolicyKind::kStarvationGuard:
      return std::make_unique<StarvationGuardPolicy>();
  }
  PAP_UNREACHABLE("bad PolicyKind");
}

}  // namespace pap::dram
