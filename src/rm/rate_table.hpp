// Mode-dependent injection-rate tables (Fig. 7 of the paper).
//
// "Each mode is defined by the number of currently active applications, and
// determines the minimum time separating every two transmissions issued
// from the same application. The mechanism is capable of enforcing
// symmetric guarantees where transmission rates decrease uniformly for all
// applications ... Non-symmetric guarantees where transmission rates depend
// not only on the current system mode but also on the application's
// importance can also be enforced. The non-symmetric mode can be used in a
// mixed-criticality system to maintain the critical application guarantees
// while reducing best effort traffic."
#pragma once

#include <cstdint>
#include <vector>

#include "common/status.hpp"
#include "common/units.hpp"
#include "nc/arrival.hpp"
#include "noc/packet.hpp"

namespace pap::rm {

struct AppQos {
  noc::AppId app = 0;
  bool critical = false;
  Rate guaranteed;  ///< kept in every mode when critical
};

class RateTable {
 public:
  /// Symmetric policy: the NoC budget is divided uniformly among the
  /// currently active applications. Infallible: any positive budget is a
  /// valid symmetric table.
  static RateTable symmetric(Rate noc_budget, Bytes packet_bytes,
                             double burst_packets);

  /// Non-symmetric policy: critical apps always keep their guaranteed
  /// rate; best-effort apps share what remains uniformly. The QoS list is
  /// user configuration, so infeasible tables (critical guarantees that
  /// exceed the budget, duplicate app entries, non-positive shaping
  /// parameters) are reported via Expected rather than aborted on.
  static Expected<RateTable> non_symmetric(Rate noc_budget, Bytes packet_bytes,
                                           double burst_packets,
                                           std::vector<AppQos> qos);

  /// Injection bucket (packets) for `app` when `active` lists the currently
  /// active applications (the system mode is active.size()).
  nc::TokenBucket rate_for(noc::AppId app,
                           const std::vector<noc::AppId>& active) const;

  bool is_symmetric() const { return symmetric_; }
  Rate budget() const { return budget_; }

 private:
  bool symmetric_ = true;
  Rate budget_;
  Bytes packet_bytes_ = 64;
  double burst_ = 1.0;
  std::vector<AppQos> qos_;
  const AppQos* qos_of(noc::AppId app) const;
};

}  // namespace pap::rm
