// Automated traffic profiling (Section II: "Finding an optimal
// configuration ... is highly dependent on the characteristics of
// applications and the HW platform. Thus, automated profiling as well as
// sophisticated configuration tooling is required.")
//
// The profiler ingests a timestamped request trace (from a simulator run
// or an MBWU-monitor capture sequence) and derives enforceable token-bucket
// contracts: for any sustained rate r it computes the *minimal* burst b
// such that the whole trace conforms to (b, r) — exactly the contract the
// clients/NICs can enforce and the NC analysis can consume.
#pragma once

#include <vector>

#include "common/time.hpp"
#include "nc/arrival.hpp"

namespace pap::core {

class TraceProfiler {
 public:
  /// Record `amount` requests arriving at `when`. Timestamps must be
  /// non-decreasing (as produced by any monitor readout).
  void record(Time when, double amount = 1.0);

  std::size_t events() const { return times_.size(); }
  double total() const { return total_; }

  /// Long-run arrival rate over the observed span (requests/ns);
  /// 0 for traces spanning a single instant.
  double sustained_rate() const;

  /// Minimal burst such that the trace conforms to (burst, rate).
  /// O(n) over the trace. rate in requests/ns.
  double min_burst_for_rate(double rate) const;

  /// A deployable contract: sustained rate and matching minimal burst,
  /// each padded by its margin (headroom for behaviour not seen in the
  /// profiling run).
  nc::TokenBucket contract(double rate_margin = 1.1,
                           double burst_margin = 1.5) const;

 private:
  std::vector<Time> times_;
  std::vector<double> cumulative_;  ///< inclusive prefix sums
  double total_ = 0.0;
};

}  // namespace pap::core
