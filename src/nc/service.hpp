// Service-curve models. "In [real-time calculus] the worst-case service
// offered to a flow by a component is modeled as a function of time, called
// service curve" (Sec. IV). Rate-latency curves model links, TDMA slots and
// schedulers; arbitrary point-wise curves come out of the DRAM WCD analysis.
#pragma once

#include "nc/curve.hpp"

namespace pap::nc {

/// beta_{R,T}(t) = R * max(0, t - T). Rate in units/ns, latency in ns.
struct RateLatency {
  double rate = 0.0;
  double latency = 0.0;

  Curve to_curve() const { return Curve::rate_latency(rate, latency); }
};

}  // namespace pap::nc
