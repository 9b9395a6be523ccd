// The design-time ("ex-ante") side of Section IV for CPU reservations —
// "it is not sufficient that [systems] are found to meet QoS requirements
// via ex-post performance analysis ... They must instead meet those
// requirements by design": a bridge from reservation-based scheduling to
// Network Calculus, so computation and communication compose in one
// end-to-end analysis.
#pragma once

#include <optional>

#include "nc/curve.hpp"
#include "sched/cbs.hpp"
#include "sched/task.hpp"

namespace pap::sched {

/// Jitter-aware arrival curve of a periodic task's *load* on a resource
/// (wcet units every period), for feeding shared-resource analyses.
nc::Curve task_arrival_curve(const PeriodicTask& task);

/// Supply curve of a CPU partition under TDMA-like reservation (budget Q
/// per period P): the CBS/periodic-server lower supply bound as a curve.
nc::Curve reservation_supply_curve(CbsParams params);

/// Delay bound for work arriving as `arrival` (execution-time units) into
/// a reservation (Q, P): NC horizontal deviation against the supply curve.
std::optional<Time> reservation_delay_bound(const nc::Curve& arrival,
                                            CbsParams params);

}  // namespace pap::sched
