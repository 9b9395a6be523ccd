// Task model for the CPU-scheduling substrate (Section II of the paper).
//
// The paper's mixed-criticality setting: "software categories ... range
// from real-time safety-critical embedded software all the way up to
// 'app'-like software". Tasks carry an ASIL level so scenarios and the
// configurator can treat criticalities differently (e.g. non-symmetric
// guarantees in the RM, Sec. V).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/time.hpp"

namespace pap::sched {

/// ISO 26262 criticality levels (QM = no safety requirement).
enum class Asil : std::uint8_t { kQM = 0, kA, kB, kC, kD };

std::string to_string(Asil level);

using TaskId = std::uint32_t;

struct PeriodicTask {
  TaskId id = 0;
  std::string name;
  Time period;
  Time wcet;              ///< worst-case execution time
  Time deadline;          ///< relative; defaults to the period if zero
  int priority = 0;       ///< lower number = higher priority
  Asil asil = Asil::kQM;
  int core = 0;           ///< partitioned placement (ignored when global)
  Time jitter;            ///< release jitter

  Time effective_deadline() const {
    return deadline.is_zero() ? period : deadline;
  }
};

struct TaskSet {
  std::vector<PeriodicTask> tasks;

  int max_core() const;
};

/// One execution instance of a task.
struct Job {
  TaskId task = 0;
  std::uint64_t seq = 0;
  Time release;
  Time absolute_deadline;
};

/// Completion record produced by the schedulers.
struct JobRecord {
  Job job;
  Time completion;
  Time response() const { return completion - job.release; }
  bool deadline_met() const { return completion <= job.absolute_deadline; }
};

}  // namespace pap::sched
