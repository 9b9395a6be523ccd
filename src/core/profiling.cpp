#include "core/profiling.hpp"

#include <algorithm>
#include <limits>

#include "common/check.hpp"

namespace pap::core {

void TraceProfiler::record(Time when, double amount) {
  PAP_CHECK_MSG(times_.empty() || when >= times_.back(),
                "trace timestamps must be non-decreasing");
  PAP_CHECK(amount > 0.0);
  total_ += amount;
  times_.push_back(when);
  cumulative_.push_back(total_);
}

double TraceProfiler::sustained_rate() const {
  if (times_.size() < 2) return 0.0;
  const double span = (times_.back() - times_.front()).nanos();
  if (span <= 0.0) return 0.0;
  // Rate of everything after the first event (the first event is the
  // burst's anchor; including it would overestimate short traces).
  return (total_ - cumulative_.front()) / span;
}

double TraceProfiler::min_burst_for_rate(double rate) const {
  PAP_CHECK(rate >= 0.0);
  if (times_.empty()) return 0.0;
  // Conformance: for all i <= j,
  //   S_j - S_{i-1} <= b + rate * (t_j - t_i)
  // so b = max_{i<=j} [ (S_j - rate*t_j) - (S_{i-1} - rate*t_i) ].
  // Sweep j keeping the running minimum of (S_{i-1} - rate*t_i).
  double best = 0.0;
  double min_anchor = std::numeric_limits<double>::infinity();
  for (std::size_t j = 0; j < times_.size(); ++j) {
    const double anchor_j =
        (j == 0 ? 0.0 : cumulative_[j - 1]) - rate * times_[j].nanos();
    min_anchor = std::min(min_anchor, anchor_j);  // i == j joins the pool
    best = std::max(best,
                    cumulative_[j] - rate * times_[j].nanos() - min_anchor);
  }
  return best;
}

nc::TokenBucket TraceProfiler::contract(double rate_margin,
                                        double burst_margin) const {
  PAP_CHECK(rate_margin >= 1.0 && burst_margin >= 1.0);
  const double rate = sustained_rate() * rate_margin;
  const double burst =
      std::max(1.0, min_burst_for_rate(rate) * burst_margin);
  return nc::TokenBucket{burst, rate};
}

}  // namespace pap::core
