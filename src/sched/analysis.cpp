#include "sched/analysis.hpp"

#include "nc/arrival.hpp"
#include "nc/bounds.hpp"

namespace pap::sched {

nc::Curve task_arrival_curve(const PeriodicTask& task) {
  return nc::periodic_arrival(task.wcet.nanos(), task.period, task.jitter);
}

nc::Curve reservation_supply_curve(CbsParams params) {
  // Lower supply bound of a periodic server: rate Q/P after a worst-case
  // initial blackout of 2(P - Q).
  const double rate = params.bandwidth();
  const double latency = 2.0 * (params.period - params.budget).nanos();
  return nc::Curve::rate_latency(rate, latency);
}

std::optional<Time> reservation_delay_bound(const nc::Curve& arrival,
                                            CbsParams params) {
  return nc::delay_bound(arrival, reservation_supply_curve(params));
}

}  // namespace pap::sched
