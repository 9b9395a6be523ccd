#include "noc/network.hpp"

#include "common/check.hpp"
#include "trace/tracer.hpp"

namespace pap::noc {

namespace {

const char* direction_name(Direction d) {
  switch (d) {
    case Direction::kNorth: return "N";
    case Direction::kSouth: return "S";
    case Direction::kEast: return "E";
    case Direction::kWest: return "W";
    case Direction::kLocal: return "L";
  }
  return "?";
}

}  // namespace

Network::Network(sim::Kernel& kernel, const NocConfig& config)
    : kernel_(kernel), cfg_(config), mesh_(config.cols, config.rows) {
  PAP_CHECK(cfg_.flit_time > Time::zero());
  const auto nodes = static_cast<std::size_t>(mesh_.num_nodes());
  nics_.resize(nodes);
  channels_.resize(nodes * kNumPorts);
  injection_.resize(nodes);
}

Time Network::zero_load_latency(NodeId src, NodeId dst, int flits) const {
  const int hops = mesh_.hop_count(src, dst) + 1;  // + ejection
  // Injection serialization, then head pipelines through hops, tail follows.
  return cfg_.flit_time  // injection link, head
         + (cfg_.router_latency + cfg_.flit_time) * hops
         + cfg_.flit_time * (flits - 1);
}

void Network::send(Packet packet) {
  PAP_CHECK(packet.flits >= 1);
  PAP_CHECK(packet.src < static_cast<NodeId>(mesh_.num_nodes()));
  PAP_CHECK(packet.dst < static_cast<NodeId>(mesh_.num_nodes()));
  Nic& nic = nics_[packet.src];
  const Time admit = nic.reserve(kernel_.now());
  packet.injected = kernel_.now();
  kernel_.schedule_at(admit, [this, packet] {
    Nic& src_nic = nics_[packet.src];
    src_nic.count_injection();
    // Serialize onto the injection link.
    OutputChannel& inj = injection_[packet.src];
    const Time grant = inj.grant(kernel_.now());
    const Time head_out = grant + cfg_.flit_time;
    const Time tail_out = head_out + cfg_.flit_time * (packet.flits - 1);
    inj.occupy(tail_out);
    inj.add_busy(cfg_.flit_time * packet.flits);
    if (auto* t = kernel_.tracer()) {
      t->span(grant, tail_out - grant, "noc",
              "inject/node" + std::to_string(packet.src), "inject");
    }
    auto route = mesh_.route(packet.src, packet.dst, packet.route_order);
    kernel_.schedule_at(head_out, [this, packet, route = std::move(route),
                                   head_out, tail_out] {
      process_hop(packet, route, 0, packet.src, head_out, tail_out);
    });
  });
}

void Network::process_hop(Packet packet, std::vector<Direction> route,
                          std::size_t hop, NodeId router, Time head_in,
                          Time tail_in) {
  PAP_CHECK(hop < route.size());
  const Direction out = route[hop];
  OutputChannel& ch = channel(router, out);
  // Pipelined forwarding: an uncontended head pays the router pipeline;
  // a queued packet's first flit follows the previous packet's last flit
  // one flit-time later (arbitration overlaps with serialization), so the
  // contended channel sustains exactly one flit per flit_time.
  const Time out_head =
      std::max(head_in + cfg_.router_latency + cfg_.flit_time,
               ch.free_at() + cfg_.flit_time);
  const Time serialization_end =
      out_head + cfg_.flit_time * (packet.flits - 1);
  // The packet's own tail cannot leave before its tail arrived upstream
  // (wormhole pipelining), but the channel capacity it consumes is its
  // serialization time: a tail stalled upstream leaves the wire idle for
  // other packets (virtual-cut-through / VC semantics — see router.hpp).
  const Time out_tail = std::max(
      serialization_end, tail_in + cfg_.router_latency + cfg_.flit_time);
  ch.occupy(serialization_end);
  ch.add_busy(cfg_.flit_time * packet.flits);
  if (auto* t = kernel_.tracer()) {
    // One span per hop: head entering this router until the tail clears
    // the output channel; plus the channel's cumulative busy time, from
    // which Perfetto counter tracks show per-link utilization.
    const std::string link =
        "r" + std::to_string(router) + "/" + direction_name(out);
    t->span(head_in, out_tail - head_in, "noc",
            "hop/" + link + "/pkt" + std::to_string(packet.id) + "/app" +
                std::to_string(packet.app),
            "hop");
    t->counter("noc", "link_busy_ns/" + link, ch.busy().nanos(),
               trace::CounterKind::kMonotonic);
  }

  if (out == Direction::kLocal) {
    kernel_.schedule_at(out_tail, [this, packet, out_tail] {
      ++delivered_;
      const Time latency = out_tail - packet.injected;
      latency_all_.add(latency);
      per_packet_latency_.emplace_back(packet.app, latency);
      if (auto* t = kernel_.tracer()) {
        t->instant("noc", "deliver/pkt" + std::to_string(packet.id), "deliver");
        t->counter("noc", "delivered", static_cast<double>(delivered_),
                   trace::CounterKind::kMonotonic);
      }
      if (on_deliver_) on_deliver_(packet, out_tail);
    });
    return;
  }
  const NodeId next = mesh_.neighbor(router, out);
  kernel_.schedule_at(out_head, [this, packet, route = std::move(route), hop,
                                 next, out_head, out_tail]() mutable {
    process_hop(packet, std::move(route), hop + 1, next, out_head, out_tail);
  });
}

LatencyHistogram Network::latency_of_app(AppId app) const {
  LatencyHistogram h;
  for (const auto& [a, l] : per_packet_latency_) {
    if (a == app) h.add(l);
  }
  return h;
}

void Network::take_link_down(NodeId router, Direction out, Time until) {
  PAP_CHECK(router < static_cast<NodeId>(mesh_.num_nodes()));
  channel(router, out).block_until(until);
  ++link_faults_;
  if (auto* t = kernel_.tracer()) {
    const std::string link =
        "r" + std::to_string(router) + "/" + direction_name(out);
    t->span(kernel_.now(), until - kernel_.now(), "noc", "link_down/" + link,
            "fault");
  }
}

double Network::channel_utilization(NodeId router, Direction out) const {
  const Time now = kernel_.now();
  if (now.is_zero()) return 0.0;
  return channel(router, out).busy() / now;
}

}  // namespace pap::noc
