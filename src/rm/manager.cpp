#include "rm/manager.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "trace/tracer.hpp"

namespace pap::rm {

namespace {

fault::MsgClass msg_class_of(MsgType t) {
  switch (t) {
    case MsgType::kActivate: return fault::MsgClass::kAct;
    case MsgType::kTerminate: return fault::MsgClass::kTer;
    case MsgType::kStop: return fault::MsgClass::kStop;
    case MsgType::kConfigure: return fault::MsgClass::kConf;
    case MsgType::kStopAck: return fault::MsgClass::kStopAck;
    case MsgType::kConfAck: return fault::MsgClass::kConfAck;
  }
  return fault::MsgClass::kAny;
}

std::string leg_label(MsgType type, noc::AppId app) {
  return to_string(type) + "/app" + std::to_string(app);
}

}  // namespace

ResourceManager::ResourceManager(sim::Kernel& kernel, noc::Network& network,
                                 noc::NodeId rm_node, RateTable table,
                                 Time processing_delay)
    : kernel_(kernel),
      network_(network),
      rm_node_(rm_node),
      table_(std::move(table)),
      processing_delay_(processing_delay) {}

void ResourceManager::set_protocol_config(ProtocolConfig config) {
  PAP_CHECK_MSG(phase_ == Phase::kIdle && pending_.empty(),
                "protocol config must be set before client traffic");
  PAP_CHECK_MSG(!config.hardened ||
                    (config.rto > Time::zero() && config.backoff >= 1.0 &&
                     config.max_retries >= 0 &&
                     config.client_watchdog > Time::zero()),
                "invalid hardened-protocol configuration");
  pcfg_ = config;
}

void ResourceManager::set_injector(fault::Injector* injector) {
  PAP_CHECK_MSG(injector == nullptr || pcfg_.hardened,
                "fault injection requires the lossy channel "
                "(ProtocolConfig::hardened, set_protocol_config first)");
  injector_ = injector;
}

Client* ResourceManager::add_client(noc::NodeId node, noc::AppId app) {
  for (const auto& c : clients_) {
    PAP_CHECK_MSG(c->app() != app, "duplicate add_client for app");
  }
  clients_.push_back(
      std::make_unique<Client>(kernel_, network_, *this, node, app));
  return clients_.back().get();
}

Time ResourceManager::control_latency(noc::NodeId node) const {
  // Single-flit control message over a dedicated virtual channel: charged
  // its zero-load route latency to/from the RM's node.
  if (node == rm_node_) return network_.config().router_latency;
  return network_.zero_load_latency(node, rm_node_, /*flits=*/1);
}

void ResourceManager::trace_leg(MsgType type, noc::AppId app,
                                Time latency) const {
  if (auto* t = kernel_.tracer()) {
    t->span(kernel_.now(), latency, "rm", leg_label(type, app), "msg");
  }
}

void ResourceManager::send_act(Client* from) {
  ++stats_.act_msgs;
  send_client_msg(from, MsgType::kActivate, from->act_seq_);
}

void ResourceManager::send_ter(Client* from) {
  ++stats_.ter_msgs;
  send_client_msg(from, MsgType::kTerminate, from->act_seq_);
}

void ResourceManager::send_client_msg(Client* from, MsgType type,
                                      std::uint64_t seq) {
  send_leg(type, *from,
           [this, from, type, seq] { on_client_msg(from, type, seq); });
}

void ResourceManager::send_leg(MsgType type, const Client& peer,
                               sim::EventFn on_arrival) {
  const Time nominal = control_latency(peer.node());
  fault::LegDecision leg;
  leg.latency = nominal;
  if (injector_ != nullptr) {
    leg = injector_->control_leg(msg_class_of(type),
                                 leg_label(type, peer.app()), nominal);
  }
  if (leg.dropped) return;
  trace_leg(type, peer.app(), leg.latency);
  kernel_.schedule_in(leg.latency, on_arrival);
  if (leg.duplicated) kernel_.schedule_in(leg.dup_latency, on_arrival);
}

void ResourceManager::on_client_msg(Client* from, MsgType type,
                                    std::uint64_t seq) {
  switch (type) {
    case MsgType::kActivate:
    case MsgType::kTerminate: {
      // Dedup retransmitted/duplicated act/ter by client seq so one logical
      // request triggers exactly one mode transition.
      auto& seen = seen_from_client_[from];
      if (!seen.insert(seq).second) {
        ++stats_.duplicates_discarded;
        return;
      }
      pending_.push_back(PendingEvent{type == MsgType::kActivate, from});
      maybe_process_next();
      return;
    }
    case MsgType::kStopAck:
    case MsgType::kConfAck:
      acknowledge(seq);
      return;
    default:
      PAP_UNREACHABLE("unexpected client->RM message type");
  }
}

void ResourceManager::acknowledge(std::uint64_t seq) {
  for (std::size_t i = 0; i < outstanding_.size(); ++i) {
    if (outstanding_[i].msg.seq != seq) continue;
    kernel_.cancel(outstanding_[i].timer);
    outstanding_.erase(outstanding_.begin() + static_cast<std::ptrdiff_t>(i));
    if (outstanding_.empty()) phase_done();
    return;
  }
  // Ack for a message no longer outstanding: a duplicate (the client
  // re-acks every replayed delivery) or a straggler after eviction.
  ++stats_.duplicates_discarded;
}

void ResourceManager::maybe_process_next() {
  if (phase_ != Phase::kIdle || pending_.empty()) return;
  // "The activation and termination messages are processed by the RM in
  // their arrival order. Each of them initiate the transition of the
  // system to a different mode."
  PendingEvent ev = pending_.front();
  pending_.pop_front();
  start_transition(ev);
}

// --------------------------------------------------------------------------
// A transition: stop fan-out -> all stop legs acked (or their clients
// evicted) -> processing delay -> conf fan-out -> all conf legs acked (or
// evicted) -> commit.
// --------------------------------------------------------------------------

void ResourceManager::start_transition(PendingEvent ev) {
  const bool already_member =
      std::find(active_.begin(), active_.end(), ev.client->app()) !=
      active_.end();
  if (ev.activation) {
    // Re-admission after a crash keeps the membership but still runs the
    // transition so the client receives a fresh confMsg.
    if (!already_member) active_.push_back(ev.client->app());
  } else {
    active_.erase(std::remove(active_.begin(), active_.end(),
                              ev.client->app()),
                  active_.end());
  }
  ++stats_.mode_changes;
  ++epoch_;
  transition_start_ = kernel_.now();
  if (auto* t = kernel_.tracer()) {
    t->instant("rm", "mode_change/start", "mode");
  }

  phase_ = Phase::kStopping;
  outstanding_.clear();
  granted_.clear();
  // Stop every member except the event's originator and the members that
  // already sent their terMsg (it is in flight or queued). The RM never
  // peeks at remote liveness: a crashed member's legs — or those of a
  // member that terminated while crashed, without a terMsg — simply go
  // unacked and retry exhaustion evicts it: the RM-side per-client
  // watchdog.
  for (const auto& c : clients_) {
    const bool member = std::find(active_.begin(), active_.end(), c->app()) !=
                        active_.end();
    if (!member || c.get() == ev.client || c->ter_sent()) continue;
    ControlMessage msg;
    msg.type = MsgType::kStop;
    msg.app = c->app();
    msg.node = c->node();
    msg.seq = next_seq_++;
    msg.epoch = epoch_;
    ++stats_.stop_msgs;
    send_reliable(c.get(), msg);
  }
  if (outstanding_.empty()) phase_done();
}

void ResourceManager::send_reliable(Client* to, ControlMessage msg) {
  Outstanding o;
  o.client = to;
  o.msg = msg;
  o.rto = pcfg_.rto;
  outstanding_.push_back(std::move(o));
  transmit(outstanding_.back());
}

void ResourceManager::transmit(Outstanding& o) {
  send_leg(o.msg.type, *o.client,
           [this, client = o.client, msg = o.msg] { deliver(client, msg); });
  if (!pcfg_.hardened) return;  // the ideal channel needs no timer
  // The retransmission timer runs regardless of the leg's fate: only the
  // client's ack stops it.
  const std::uint64_t seq = o.msg.seq;
  o.timer = kernel_.schedule_in(o.rto, [this, seq] { on_leg_timeout(seq); });
}

void ResourceManager::deliver(Client* to, const ControlMessage& msg) {
  if (msg.type == MsgType::kStop) {
    to->on_stop(msg);
  } else {
    to->on_configure(msg);
  }
  if (!pcfg_.hardened) acknowledge(msg.seq);
}

void ResourceManager::on_leg_timeout(std::uint64_t seq) {
  for (std::size_t i = 0; i < outstanding_.size(); ++i) {
    Outstanding& o = outstanding_[i];
    if (o.msg.seq != seq) continue;
    ++stats_.timeouts;
    if (o.retries >= pcfg_.max_retries) {
      evict(i);
      return;
    }
    ++o.retries;
    o.rto = Time::from_ns(o.rto.nanos() * pcfg_.backoff);
    ++stats_.retransmissions;
    if (auto* t = kernel_.tracer()) {
      t->instant("rm", "retransmit/" + leg_label(o.msg.type, o.msg.app),
                 "recover");
    }
    transmit(o);
    return;
  }
  // The ack won the race with the timer inside the same timestamp batch.
}

void ResourceManager::evict(std::size_t outstanding_index) {
  Outstanding o = std::move(outstanding_[outstanding_index]);
  outstanding_.erase(outstanding_.begin() +
                     static_cast<std::ptrdiff_t>(outstanding_index));
  ++stats_.evictions;
  // The per-client watchdog gave up: the client is unreachable (crashed,
  // or every leg lost). Drop it from the active set so the transition can
  // complete without it; if it is alive after all, its own watchdog will
  // take it to the safe static rate, and a later actMsg re-admits it.
  active_.erase(
      std::remove(active_.begin(), active_.end(), o.client->app()),
      active_.end());
  granted_.erase(std::remove_if(granted_.begin(), granted_.end(),
                                [&](const auto& g) {
                                  return g.first == o.client->app();
                                }),
                 granted_.end());
  // Forget the evicted client's dedup history: if it crashed, its restarted
  // incarnation restarts seq numbering from scratch.
  seen_from_client_.erase(o.client);
  if (auto* t = kernel_.tracer()) {
    t->instant("rm", "evict/app" + std::to_string(o.client->app()), "recover");
  }
  if (outstanding_.empty()) phase_done();
}

void ResourceManager::phase_done() {
  if (phase_ == Phase::kStopping) {
    begin_configure();
  } else {
    commit();
  }
}

void ResourceManager::begin_configure() {
  phase_ = Phase::kConfiguring;
  kernel_.schedule_in(processing_delay_, [this] {
    granted_.clear();
    const int new_mode = static_cast<int>(active_.size());
    for (const auto& c : clients_) {
      const bool member = std::find(active_.begin(), active_.end(),
                                    c->app()) != active_.end();
      if (!member) continue;
      const auto rate = table_.rate_for(c->app(), active_);
      granted_.emplace_back(c->app(), rate);
      ControlMessage msg;
      msg.type = MsgType::kConfigure;
      msg.app = c->app();
      msg.node = c->node();
      msg.mode = new_mode;
      msg.rate = rate;
      msg.seq = next_seq_++;
      msg.epoch = epoch_;
      ++stats_.conf_msgs;
      send_reliable(c.get(), msg);
    }
    if (outstanding_.empty()) commit();
  });
}

void ResourceManager::commit() {
  mode_ = static_cast<int>(active_.size());
  transitions_.emplace_back(transition_start_, kernel_.now());
  if (auto* t = kernel_.tracer()) {
    t->instant("rm", "mode_change/commit", "mode");
    t->counter("rm", "mode", static_cast<double>(mode_));
  }
  if (on_mode_) on_mode_(kernel_.now(), mode_, granted_);
  phase_ = Phase::kIdle;
  maybe_process_next();
}

}  // namespace pap::rm
