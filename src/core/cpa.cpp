#include "core/cpa.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"

namespace pap::core::cpa {

std::int64_t eta_plus(const nc::TokenBucket& arrival, Time window) {
  if (window < Time::zero()) return 0;
  // Right-continuous event bound: the burst plus the rate-accumulated
  // arrivals, rounded up (an arrival exactly at the window edge counts).
  const double v = arrival.burst + arrival.rate * window.nanos();
  return static_cast<std::int64_t>(std::ceil(v - 1e-9));
}

double utilization(const std::vector<Flow>& flows) {
  double u = 0.0;
  for (const auto& f : flows) {
    u += f.arrival.rate * f.service_time.nanos();
  }
  return u;
}

namespace {

/// Longest single lower-priority request that can block (non-preemptive).
Time blocking_time(const Flow& flow, const std::vector<Flow>& interferers) {
  Time b;
  for (const auto& o : interferers) {
    if (o.priority > flow.priority) b = std::max(b, o.service_time);
  }
  return b;
}

/// Busy-window fixpoint for q own activations.
std::optional<Time> window_for(const Flow& flow,
                               const std::vector<Flow>& interferers, int q) {
  const Time block = blocking_time(flow, interferers);
  Time w = block + flow.service_time * q;
  for (int iter = 0; iter < 10'000; ++iter) {
    Time next = block + flow.service_time * q;
    for (const auto& o : interferers) {
      if (o.priority <= flow.priority) {
        next += o.service_time * eta_plus(o.arrival, w);
      }
    }
    if (next == w) return w;
    if (next > Time::sec(1)) return std::nullopt;  // effectively unbounded
    w = next;
  }
  return std::nullopt;
}

/// Earliest time q activations of the flow can have arrived (pseudo-
/// inverse of eta^+): the q-th arrival cannot be earlier than the time the
/// bucket admits q requests.
Time delta_minus(const nc::TokenBucket& arrival, int q) {
  if (q <= arrival.burst + 1e-12) return Time::zero();
  PAP_CHECK(arrival.rate > 0.0);
  return Time::from_ns((static_cast<double>(q) - arrival.burst) /
                       arrival.rate);
}

}  // namespace

std::optional<Time> busy_window_wcrt_multi(
    const Flow& flow, const std::vector<Flow>& interferers, int q_max) {
  PAP_CHECK(q_max >= 1);
  // `interferers` must not contain the analysed flow itself: its own
  // activations are covered by the q loop.
  const std::vector<Flow>& others = interferers;
  if (utilization(others) + flow.arrival.rate * flow.service_time.nanos() >
      1.0 + 1e-12) {
    return std::nullopt;
  }
  Time worst;
  bool any = false;
  for (int q = 1; q <= q_max; ++q) {
    const auto w = window_for(flow, others, q);
    if (!w) return std::nullopt;
    // Response of the q-th activation: window end minus its earliest
    // possible arrival (the bucket admits the q-th request no earlier
    // than (q - b)/r).
    const Time response = *w - delta_minus(flow.arrival, q);
    worst = std::max(worst, response);
    any = true;
    // Stop once the busy period closes before the (q+1)-th activation
    // could arrive (classic CPA termination condition).
    if (*w <= delta_minus(flow.arrival, q + 1)) break;
  }
  return any ? std::optional<Time>(worst) : std::nullopt;
}

}  // namespace pap::core::cpa
