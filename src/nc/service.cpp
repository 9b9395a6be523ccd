#include "nc/service.hpp"

#include "common/check.hpp"
#include "nc/adapter.hpp"
#include "nc/batch.hpp"

namespace pap::nc {

RateLatency tdma_service(double rate, Time slot, Time frame) {
  PAP_CHECK(rate > 0.0);
  PAP_CHECK(slot.picos() > 0 && frame.picos() >= slot.picos());
  const double share = slot / frame;
  return RateLatency{rate * share, (frame - slot).nanos()};
}

RateLatency round_robin_service(double rate, int flows, double quantum) {
  PAP_CHECK(rate > 0.0 && flows >= 1 && quantum > 0.0);
  // One full round of the other flows' quanta can precede every grant.
  const double latency_ns = quantum * static_cast<double>(flows - 1) / rate;
  return RateLatency{rate / static_cast<double>(flows), latency_ns};
}

Curve service_from_points(const std::vector<std::pair<Time, double>>& points,
                          double tail_rate) {
  PAP_CHECK(!points.empty());
  std::vector<std::pair<double, double>> pts;
  pts.reserve(points.size());
  for (const auto& [t, n] : points) pts.emplace_back(t.nanos(), n);
  return Curve::from_points(pts, tail_rate);
}

Curve convex_minorant(const Curve& curve) {
  Arena& arena = detail::adapter_arena();
  return to_curve(convex_minorant_view(arena, to_view(arena, curve)));
}

}  // namespace pap::nc
