// QoS bounds. "As far as QoS is concerned, the most important bounds are on
// the backlog, which allows system builders to dimension buffer space ...
// and on the delay, which allows them to compute component-wise or
// end-to-end guarantees on the response time of an application" (Sec. IV).
#pragma once

#include <optional>

#include "common/time.hpp"
#include "nc/curve.hpp"

namespace pap::nc {

/// Worst-case delay of a flow with arrival curve `alpha` through a server
/// with service curve `beta` (horizontal deviation), as a Time.
std::optional<Time> delay_bound(const Curve& alpha, const Curve& beta);

/// Worst-case backlog (vertical deviation), in the flow's work units.
std::optional<double> backlog_bound(const Curve& alpha, const Curve& beta);

}  // namespace pap::nc
