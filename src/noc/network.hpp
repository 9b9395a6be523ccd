// The assembled NoC: mesh + routers + NICs, event-driven on sim::Kernel.
//
// Timing model (see router.hpp for the channel equations): packets are
// injected through their node's NIC (token-bucket shaped when the
// admission-control layer programs it), serialized over the node's
// injection link, then traverse the XY route hop by hop, competing for
// wormhole output channels at every router. Delivery time is the tail
// flit's arrival at the destination's local port.
#pragma once

#include <array>
#include <functional>
#include <vector>

#include "common/stats.hpp"
#include "noc/nic.hpp"
#include "noc/packet.hpp"
#include "noc/router.hpp"
#include "noc/topology.hpp"
#include "sim/kernel.hpp"

namespace pap::noc {

struct NocConfig {
  int cols = 4;
  int rows = 4;
  Time flit_time = Time::ns(2);       ///< link serialization per flit
  Time router_latency = Time::ns(3);  ///< per-hop pipeline latency
};

class Network {
 public:
  Network(sim::Kernel& kernel, const NocConfig& config);

  const Mesh2D& mesh() const { return mesh_; }
  const NocConfig& config() const { return cfg_; }

  Nic& nic(NodeId node) { return nics_.at(node); }

  using DeliveryFn = std::function<void(const Packet&, Time delivered)>;
  void set_delivery_handler(DeliveryFn fn) { on_deliver_ = std::move(fn); }

  /// Submit a packet at the current time. It is stamped, shaped by the
  /// source NIC, and injected when conformant.
  void send(Packet packet);

  /// Lower-bound (zero-load) latency of a packet on its route — the
  /// baseline for contention measurements.
  Time zero_load_latency(NodeId src, NodeId dst, int flits) const;

  std::uint64_t delivered() const { return delivered_; }
  const LatencyHistogram& latency() const { return latency_all_; }
  LatencyHistogram latency_of_app(AppId app) const;

  /// Utilization of a router's output channel in [0, 1] over elapsed time.
  double channel_utilization(NodeId router, Direction out) const;

  /// Fault injection: take router `router`'s `out` channel down until
  /// `until`. In-flight and arriving packets queue behind the outage and
  /// resume in FCFS order when the link comes back (fault::Injector's
  /// link-down handler binds here).
  void take_link_down(NodeId router, Direction out, Time until);
  std::uint64_t link_faults() const { return link_faults_; }

 private:
  void process_hop(Packet packet, std::vector<Direction> route,
                   std::size_t hop, NodeId router, Time head_in, Time tail_in);

  OutputChannel& channel(NodeId router, Direction d) {
    return channels_[router * kNumPorts + static_cast<std::size_t>(d)];
  }
  const OutputChannel& channel(NodeId router, Direction d) const {
    return channels_[router * kNumPorts + static_cast<std::size_t>(d)];
  }

  sim::Kernel& kernel_;
  NocConfig cfg_;
  Mesh2D mesh_;
  std::vector<Nic> nics_;
  std::vector<OutputChannel> channels_;    // router x port
  std::vector<OutputChannel> injection_;   // per node, NIC -> router link
  DeliveryFn on_deliver_;
  std::uint64_t delivered_ = 0;
  std::uint64_t link_faults_ = 0;
  LatencyHistogram latency_all_;
  std::vector<std::pair<AppId, Time>> per_packet_latency_;  // (app, latency)
};

}  // namespace pap::noc
