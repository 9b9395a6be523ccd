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
  PAP_CHECK_MSG(!reconfiguring_ && pending_.empty(),
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
                "fault injection requires the hardened protocol "
                "(set_protocol_config first)");
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
  const Time nominal = control_latency(from->node());
  if (pcfg_.hardened) {
    send_client_msg(from, MsgType::kActivate, from->act_seq_);
    return;
  }
  trace_leg(MsgType::kActivate, from->app(), nominal);
  kernel_.schedule_in(nominal, [this, from] {
    pending_.push_back(PendingEvent{true, from});
    maybe_process_next();
  });
}

void ResourceManager::send_ter(Client* from) {
  ++stats_.ter_msgs;
  const Time nominal = control_latency(from->node());
  if (pcfg_.hardened) {
    send_client_msg(from, MsgType::kTerminate, from->act_seq_);
    return;
  }
  trace_leg(MsgType::kTerminate, from->app(), nominal);
  kernel_.schedule_in(nominal, [this, from] {
    pending_.push_back(PendingEvent{false, from});
    maybe_process_next();
  });
}

void ResourceManager::send_client_msg(Client* from, MsgType type,
                                      std::uint64_t seq) {
  const Time nominal = control_latency(from->node());
  fault::LegDecision leg;
  leg.latency = nominal;
  if (injector_ != nullptr) {
    leg = injector_->control_leg(msg_class_of(type),
                                 leg_label(type, from->app()), nominal);
  }
  if (leg.dropped) return;
  trace_leg(type, from->app(), leg.latency);
  kernel_.schedule_in(leg.latency, [this, from, type, seq] {
    on_client_msg(from, type, seq);
  });
  if (leg.duplicated) {
    kernel_.schedule_in(leg.dup_latency, [this, from, type, seq] {
      on_client_msg(from, type, seq);
    });
  }
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
    case MsgType::kConfAck: {
      for (std::size_t i = 0; i < outstanding_.size(); ++i) {
        if (outstanding_[i].msg.seq != seq) continue;
        kernel_.cancel(outstanding_[i].timer);
        outstanding_.erase(outstanding_.begin() +
                           static_cast<std::ptrdiff_t>(i));
        if (outstanding_.empty()) phase_done();
        return;
      }
      // Ack for a message no longer outstanding: a duplicate (the client
      // re-acks every replayed delivery) or a straggler after eviction.
      ++stats_.duplicates_discarded;
      return;
    }
    default:
      PAP_UNREACHABLE("unexpected client->RM message type");
  }
}

void ResourceManager::maybe_process_next() {
  if (reconfiguring_ || pending_.empty()) return;
  // "The activation and termination messages are processed by the RM in
  // their arrival order. Each of them initiate the transition of the
  // system to a different mode."
  PendingEvent ev = pending_.front();
  pending_.pop_front();
  reconfiguring_ = true;
  if (pcfg_.hardened) {
    process_hardened(ev);
  } else {
    process(ev);
  }
}

// --------------------------------------------------------------------------
// Legacy ideal-channel transition (kept bit-identical for the established
// benches: no acks, no retries, completion when the last confMsg lands).
// --------------------------------------------------------------------------

void ResourceManager::process(PendingEvent ev) {
  if (ev.activation) {
    active_.push_back(ev.client->app());
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

  // Phase 1: stop every client that was already active.
  Time last_stop;
  for (const auto& c : clients_) {
    if (c->state() == Client::State::kActive) {
      const Time lat = control_latency(c->node());
      ++stats_.stop_msgs;
      trace_leg(MsgType::kStop, c->app(), lat);
      kernel_.schedule_in(lat, [client = c.get()] { client->on_stop(); });
      last_stop = std::max(last_stop, lat);
    }
  }

  // Phase 2: once all stops have landed and the RM recomputed the table,
  // send the new configuration (including to the newly admitted client).
  const Time conf_at = last_stop + processing_delay_;
  const int new_mode = static_cast<int>(active_.size());
  kernel_.schedule_in(conf_at, [this, new_mode] {
    Time last_conf;
    std::vector<std::pair<noc::AppId, nc::TokenBucket>> granted;
    for (const auto& c : clients_) {
      const bool is_active =
          std::find(active_.begin(), active_.end(), c->app()) != active_.end();
      if (!is_active) continue;
      const auto rate = table_.rate_for(c->app(), active_);
      granted.emplace_back(c->app(), rate);
      const Time lat = control_latency(c->node());
      ++stats_.conf_msgs;
      trace_leg(MsgType::kConfigure, c->app(), lat);
      kernel_.schedule_in(
          lat, [client = c.get(), new_mode, rate] {
            client->on_configure(new_mode, rate);
          });
      last_conf = std::max(last_conf, lat);
    }
    // The transition completes when the last confMsg lands.
    kernel_.schedule_in(last_conf, [this, new_mode, granted] {
      mode_ = new_mode;
      transitions_.emplace_back(transition_start_, kernel_.now());
      if (auto* t = kernel_.tracer()) {
        t->instant("rm", "mode_change/commit", "mode");
        t->counter("rm", "mode", static_cast<double>(mode_));
      }
      if (on_mode_) on_mode_(kernel_.now(), new_mode, granted);
      reconfiguring_ = false;
      maybe_process_next();
    });
  });
}

// --------------------------------------------------------------------------
// Hardened transition: stop fan-out -> all stop legs acked (or their
// clients evicted) -> processing delay -> conf fan-out -> all conf legs
// acked (or evicted) -> commit.
// --------------------------------------------------------------------------

void ResourceManager::process_hardened(PendingEvent ev) {
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
  // Fan out to every member except the event's originator. The RM never
  // peeks at remote liveness: a crashed member's legs simply go unacked and
  // retry exhaustion evicts it — that is the RM-side per-client watchdog.
  for (const auto& c : clients_) {
    const bool member = std::find(active_.begin(), active_.end(), c->app()) !=
                        active_.end();
    if (!member || c.get() == ev.client) continue;
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
  const Time nominal = control_latency(o.client->node());
  fault::LegDecision leg;
  leg.latency = nominal;
  if (injector_ != nullptr) {
    leg = injector_->control_leg(msg_class_of(o.msg.type),
                                 leg_label(o.msg.type, o.msg.app), nominal);
  }
  if (!leg.dropped) {
    trace_leg(o.msg.type, o.msg.app, leg.latency);
    const ControlMessage msg = o.msg;
    Client* client = o.client;
    kernel_.schedule_in(leg.latency, [client, msg] {
      if (msg.type == MsgType::kStop) {
        client->on_stop(msg);
      } else {
        client->on_configure(msg);
      }
    });
    if (leg.duplicated) {
      kernel_.schedule_in(leg.dup_latency, [client, msg] {
        if (msg.type == MsgType::kStop) {
          client->on_stop(msg);
        } else {
          client->on_configure(msg);
        }
      });
    }
  }
  // The retransmission timer runs regardless of the leg's fate: only the
  // client's ack stops it.
  const std::uint64_t seq = o.msg.seq;
  o.timer = kernel_.schedule_in(o.rto, [this, seq] { on_leg_timeout(seq); });
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
  phase_ = Phase::kIdle;
  mode_ = static_cast<int>(active_.size());
  transitions_.emplace_back(transition_start_, kernel_.now());
  if (auto* t = kernel_.tracer()) {
    t->instant("rm", "mode_change/commit", "mode");
    t->counter("rm", "mode", static_cast<double>(mode_));
  }
  if (on_mode_) on_mode_(kernel_.now(), mode_, granted_);
  reconfiguring_ = false;
  maybe_process_next();
}

}  // namespace pap::rm
