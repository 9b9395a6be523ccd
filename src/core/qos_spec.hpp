// Application QoS requirement specifications — the "abstractions to map QoS
// requirements from applications to resources" the paper calls for
// (Sec. V), and the input language of the configurator and the admission
// controller.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/time.hpp"
#include "common/units.hpp"
#include "nc/arrival.hpp"
#include "noc/packet.hpp"
#include "sched/task.hpp"

namespace pap::core {

/// One application's end-to-end requirement: traffic it will inject
/// (bounded by a token bucket — the enforceable contract), the resource
/// path it takes, and the deadline each transmission must meet.
struct AppRequirement {
  noc::AppId app = 0;
  std::string name;
  sched::Asil asil = sched::Asil::kQM;

  // Traffic contract, in requests (NoC packets / DRAM transactions).
  nc::TokenBucket traffic;    ///< burst in requests, rate in requests/ns
  Bytes request_bytes = 64;
  int flits_per_packet = 4;

  // Path: source node -> destination node (the memory controller's node),
  // then optionally the DRAM itself. The route order is a degree of
  // freedom: the admission controller may flip it to find capacity
  // ("route computation", Sec. IV).
  noc::NodeId src = 0;
  noc::NodeId dst = 0;
  noc::Mesh2D::RouteOrder route_order = noc::Mesh2D::RouteOrder::kXY;
  /// Defaults to true here, but papd's admission_check and admission_admit
  /// default their `uses_dram` parameter to false (docs/serving.md). The
  /// pinned bounds rest on both defaults, so neither follows the other.
  bool uses_dram = true;
  double dram_row_hit_fraction = 0.0;  ///< 0 = all row misses (conservative)

  Time deadline;  ///< end-to-end, per transmission

  bool critical() const { return asil >= sched::Asil::kC; }
};

/// Result of admitting one application: the shaper parameters each
/// enforcement point must be programmed with, plus the proven bound.
struct AdmissionGrant {
  noc::AppId app = 0;
  nc::TokenBucket noc_shaper;  ///< programmed into the client / NIC
  Time e2e_bound;              ///< proven worst-case end-to-end delay
  noc::Mesh2D::RouteOrder route_order =
      noc::Mesh2D::RouteOrder::kXY;  ///< the route the proof holds for
};

}  // namespace pap::core
