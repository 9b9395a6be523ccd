// Compositional Performance Analysis (CPA) busy-window bounds.
//
// Section V: "Providing end-to-end guarantees across computation and
// communication resources often requires complex analysis approaches, such
// as compositional performance analysis [18] ... for the worst-case
// end-to-end timing behavior." This module provides the classic CPA
// building block — the level-i busy window for a static-priority resource
// with event-model (token-bucket) arrival bounds — as a second, independent
// formal method next to the NC analysis. Having both matters: the paper's
// Sec. VI laments that "overly pessimistic analytic bounds ... prevent the
// wide-spread use of formal analysis"; comparing two sound analyses on the
// same configuration quantifies that pessimism (tests do exactly that).
//
// Resource model: one shared resource (a NoC link, a bus) arbitrating
// fixed-size requests by static priority, non-preemptive per request.
// Flow i's arrival is bounded by eta_i^+(dt) = ceil(b_i + r_i * dt)
// (token bucket); each of its requests occupies the resource for C_i.
#pragma once

#include <optional>
#include <vector>

#include "common/time.hpp"
#include "nc/arrival.hpp"

namespace pap::core::cpa {

struct Flow {
  nc::TokenBucket arrival;  ///< burst in requests, rate in requests/ns
  Time service_time;        ///< resource occupancy per request (C)
  int priority = 0;         ///< lower number = higher priority
};

/// Maximum number of flow arrivals within a window (the eta^+ event model
/// of a token-bucketed flow).
std::int64_t eta_plus(const nc::TokenBucket& arrival, Time window);

/// Worst-case response time of `flow` on the shared resource, against the
/// given interferers (same resource; must NOT include the flow itself):
/// the worst response over the first `q_max` activations inside one busy
/// period (later activations can see more interference when the flow's own
/// burst exceeds 1; q_max = 1 analyses a single request). Non-preemptive
/// static priority: one lower-priority blocker + all higher-or-equal
/// priority interference inside the busy window. nullopt when the busy
/// window does not converge (overload).
std::optional<Time> busy_window_wcrt_multi(const Flow& flow,
                                           const std::vector<Flow>& interferers,
                                           int q_max = 16);

/// Utilization of the resource under all flows; > 1 means no bound exists.
double utilization(const std::vector<Flow>& flows);

}  // namespace pap::core::cpa
