#include "rm/rate_table.hpp"

#include <algorithm>

namespace pap::rm {

RateTable RateTable::symmetric(Rate noc_budget, Bytes packet_bytes,
                               double burst_packets) {
  RateTable t;
  t.symmetric_ = true;
  t.budget_ = noc_budget;
  t.packet_bytes_ = packet_bytes;
  t.burst_ = burst_packets;
  return t;
}

Expected<RateTable> RateTable::non_symmetric(Rate noc_budget,
                                             Bytes packet_bytes,
                                             double burst_packets,
                                             std::vector<AppQos> qos) {
  if (noc_budget.in_bits_per_sec() <= 0.0) {
    return Expected<RateTable>::error("NoC budget must be positive");
  }
  if (packet_bytes == 0) {
    return Expected<RateTable>::error("packet size must be positive");
  }
  if (burst_packets <= 0.0) {
    return Expected<RateTable>::error("burst must be positive");
  }
  for (std::size_t i = 0; i < qos.size(); ++i) {
    for (std::size_t j = i + 1; j < qos.size(); ++j) {
      if (qos[i].app == qos[j].app) {
        return Expected<RateTable>::error(
            "duplicate QoS entry for app " + std::to_string(qos[i].app));
      }
    }
  }
  // The critical guarantees must fit inside the budget in every mode.
  double guaranteed = 0.0;
  for (const auto& q : qos) {
    if (q.critical) guaranteed += q.guaranteed.in_bits_per_sec();
  }
  if (guaranteed > noc_budget.in_bits_per_sec()) {
    return Expected<RateTable>::error(
        "critical guarantees exceed the NoC budget (" +
        std::to_string(guaranteed / 1e9) + " Gbps > " +
        std::to_string(noc_budget.in_gbps()) + " Gbps)");
  }
  RateTable t;
  t.symmetric_ = false;
  t.budget_ = noc_budget;
  t.packet_bytes_ = packet_bytes;
  t.burst_ = burst_packets;
  t.qos_ = std::move(qos);
  return t;
}

const AppQos* RateTable::qos_of(noc::AppId app) const {
  for (const auto& q : qos_) {
    if (q.app == app) return &q;
  }
  return nullptr;
}

nc::TokenBucket RateTable::rate_for(
    noc::AppId app, const std::vector<noc::AppId>& active) const {
  const std::size_t mode = std::max<std::size_t>(active.size(), 1);
  Rate granted;
  if (symmetric_) {
    granted = budget_ * (1.0 / static_cast<double>(mode));
  } else {
    const AppQos* mine = qos_of(app);
    const bool critical = mine && mine->critical;
    if (critical) {
      granted = mine->guaranteed;
    } else {
      // Best effort: share the budget left over by the *active* critical
      // applications.
      double reserved = 0.0;
      std::size_t best_effort = 0;
      for (auto a : active) {
        const AppQos* q = qos_of(a);
        if (q && q->critical) {
          reserved += q->guaranteed.in_bits_per_sec();
        } else {
          ++best_effort;
        }
      }
      const double left =
          std::max(0.0, budget_.in_bits_per_sec() - reserved);
      granted = Rate::bits_per_sec(
          left / static_cast<double>(std::max<std::size_t>(best_effort, 1)));
    }
  }
  return nc::TokenBucket::from_rate(granted, packet_bytes_, burst_);
}

}  // namespace pap::rm
