#include "nc/bounds.hpp"

#include "nc/ops.hpp"

namespace pap::nc {

std::optional<Time> delay_bound(const Curve& alpha, const Curve& beta) {
  const auto h = h_deviation(alpha, beta);
  if (!h) return std::nullopt;
  return Time::from_ns(*h);
}

std::optional<double> backlog_bound(const Curve& alpha, const Curve& beta) {
  return v_deviation(alpha, beta);
}

}  // namespace pap::nc
