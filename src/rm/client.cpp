#include "rm/client.hpp"

#include "common/check.hpp"
#include "rm/manager.hpp"
#include "trace/tracer.hpp"

namespace pap::rm {

Client::Client(sim::Kernel& kernel, noc::Network& network, ResourceManager& rm,
               noc::NodeId node, noc::AppId app)
    : kernel_(kernel),
      network_(network),
      rm_(rm),
      node_(node),
      app_(app),
      watchdog_(kernel,
                [this] {
                  if (state_ == State::kAwaitingAdmission ||
                      state_ == State::kStopped) {
                    enter_degraded();
                  }
                }),
      act_timer_(kernel, [this] { retransmit_act(); }) {}

bool Client::hardened() const { return rm_.protocol_config().hardened; }

void Client::send(noc::Packet packet) {
  if (packet.app != app_ || packet.src != node_) {
    // "prevent non-authorized accesses"
    ++rejected_;
    return;
  }
  if (state_ == State::kTerminated || state_ == State::kCrashed) {
    ++rejected_;
    return;
  }
  queue_.push_back(packet);
  if (state_ == State::kInactive) {
    // First transmission trapped; request admission.
    state_ = State::kAwaitingAdmission;
    stopped_since_ = kernel_.now();
    ++act_seq_;  // a new logical request; retransmits reuse this seq
    if (hardened()) {
      act_retries_ = 0;
      act_rto_ = rm_.protocol_config().rto;
      act_timer_.arm(act_rto_);
      arm_watchdog();
    }
    rm_.send_act(this);
    return;
  }
  pump();
}

void Client::terminate() {
  PAP_CHECK_MSG(state_ != State::kTerminated, "double termination");
  if (state_ == State::kInactive || state_ == State::kCrashed) {
    // No terMsg: the app never activated, or the supervisor is down (or
    // restarted and has not re-admitted). The client stays deaf, so a
    // membership the RM still holds ends like a crashed member's: its legs
    // go unacked and retry exhaustion evicts it.
    state_ = State::kTerminated;
    return;
  }
  settle_degraded();
  disarm_timers();
  ++act_seq_;  // terMsg is its own logical request
  state_ = State::kTerminated;
  ter_sent_ = true;
  rm_.send_ter(this);
}

// --------------------------------------------------------------------------
// Deliveries: act on the first copy; on the lossy channel, ack every copy.
// --------------------------------------------------------------------------

bool Client::accept(const ControlMessage& msg) {
  // A dead client cannot ack, nor can one that ended without a terMsg.
  if (state_ == State::kCrashed ||
      (state_ == State::kTerminated && !ter_sent_)) {
    return false;
  }
  if (msg.epoch < epoch_) {
    // Stale: from a transition that has since been superseded.
    ++rm_.mutable_stats().duplicates_discarded;
    return false;
  }
  const bool dup = !seen_seqs_.insert(msg.seq).second;
  // Ack every delivered copy — acks are idempotent by seq, and re-acking
  // covers the case where the first ack was the leg that got dropped.
  if (hardened()) {
    ProtocolStats& stats = rm_.mutable_stats();
    const bool stop = msg.type == MsgType::kStop;
    ++(stop ? stats.stop_acks : stats.conf_acks);
    rm_.send_client_msg(this, stop ? MsgType::kStopAck : MsgType::kConfAck,
                        msg.seq);
  }
  if (dup) {
    ++rm_.mutable_stats().duplicates_discarded;
    return false;
  }
  epoch_ = msg.epoch;
  return true;
}

void Client::on_stop(const ControlMessage& msg) {
  if (!accept(msg)) return;
  if (state_ == State::kTerminated || state_ == State::kInactive) return;
  settle_degraded();
  if (state_ == State::kActive || state_ == State::kDegraded) {
    state_ = State::kStopped;
    stopped_since_ = kernel_.now();
  }
  arm_watchdog();  // the RM is alive; give it a fresh silence budget
}

void Client::on_configure(const ControlMessage& msg) {
  if (!accept(msg)) return;
  mode_ = msg.mode;
  if (state_ == State::kTerminated) return;
  act_timer_.cancel();  // the confMsg doubles as the actMsg's ack
  watchdog_.cancel();
  settle_degraded();
  if (shaper_) {
    shaper_->reconfigure(msg.rate, kernel_.now());
  } else {
    shaper_.emplace(msg.rate, kernel_.now());
  }
  if (state_ == State::kStopped || state_ == State::kAwaitingAdmission) {
    blocked_ += kernel_.now() - stopped_since_;
  }
  state_ = State::kActive;
  pump();
}

// --------------------------------------------------------------------------
// Fault-injection interface.
// --------------------------------------------------------------------------

void Client::crash() {
  if (state_ == State::kCrashed) return;
  settle_degraded();
  if (state_ == State::kAwaitingAdmission || state_ == State::kStopped) {
    blocked_ += kernel_.now() - stopped_since_;
  }
  // Everything the supervisor held in volatile state is gone. The logical
  // request counter survives (think: derived from a persistent clock) so a
  // restarted incarnation never reuses a seq the RM has already seen.
  queue_.clear();
  shaper_.reset();
  seen_seqs_.clear();
  disarm_timers();
  pump_scheduled_ = false;  // the in-flight pump event dies on incarnation
  ++incarnation_;
  epoch_ = 0;
  mode_ = 0;
  state_ = State::kCrashed;
  if (auto* t = kernel_.tracer()) {
    t->instant("rm", "crash/app" + std::to_string(app_), "fault");
  }
}

void Client::restart() {
  PAP_CHECK_MSG(state_ == State::kCrashed, "restart of a live client");
  state_ = State::kInactive;
  if (auto* t = kernel_.tracer()) {
    t->instant("rm", "restart/app" + std::to_string(app_), "fault");
  }
}

// --------------------------------------------------------------------------
// Internals.
// --------------------------------------------------------------------------

void Client::pump() {
  const bool injectable =
      state_ == State::kActive || state_ == State::kDegraded;
  if (pump_scheduled_ || !injectable || queue_.empty()) return;
  PAP_CHECK(shaper_.has_value());
  pump_scheduled_ = true;
  const Time at = shaper_->earliest_release(kernel_.now());
  kernel_.schedule_at(at, [this, inc = incarnation_] {
    if (inc != incarnation_) return;  // scheduled before a crash
    pump_scheduled_ = false;
    const bool ok = state_ == State::kActive || state_ == State::kDegraded;
    if (!ok || queue_.empty()) return;
    if (!shaper_->conformant(kernel_.now())) {
      // The shaper was reconfigured (mode change / degraded fallback) after
      // this release was scheduled; the instant is no longer conformant.
      pump();
      return;
    }
    shaper_->on_release(kernel_.now());
    network_.send(queue_.front());
    queue_.pop_front();
    ++sent_;
    pump();
  });
}

void Client::arm_watchdog() {
  if (!hardened()) return;
  watchdog_.arm(rm_.protocol_config().client_watchdog);
}

void Client::disarm_timers() {
  watchdog_.cancel();
  act_timer_.cancel();
}

void Client::enter_degraded() {
  // Memguard-style fallback: the RM has been silent past the watchdog
  // bound while we were blocked. Rather than wedge the application, inject
  // at the configured safe static rate until the RM speaks again.
  ++rm_.mutable_stats().degraded_entries;
  blocked_ += kernel_.now() - stopped_since_;  // the blocked period ends here
  const nc::TokenBucket safe = rm_.protocol_config().safe_rate;
  if (shaper_) {
    shaper_->reconfigure(safe, kernel_.now());
  } else {
    shaper_.emplace(safe, kernel_.now());
  }
  state_ = State::kDegraded;
  degraded_open_ = true;
  degraded_since_ = kernel_.now();
  act_timer_.cancel();
  if (auto* t = kernel_.tracer()) {
    t->instant("rm", "degraded/app" + std::to_string(app_), "recover");
  }
  pump();
}

void Client::settle_degraded() {
  if (!degraded_open_) return;
  const Time span = kernel_.now() - degraded_since_;
  degraded_accum_ += span;
  rm_.mutable_stats().degraded_time += span;
  degraded_open_ = false;
  if (auto* t = kernel_.tracer()) {
    t->span(degraded_since_, span, "rm",
            "degraded/app" + std::to_string(app_), "recover");
  }
}

Time Client::degraded_time() const {
  Time total = degraded_accum_;
  if (degraded_open_) total += kernel_.now() - degraded_since_;
  return total;
}

void Client::retransmit_act() {
  if (state_ != State::kAwaitingAdmission) return;
  ++rm_.mutable_stats().timeouts;
  if (act_retries_ >= rm_.protocol_config().max_retries) {
    return;  // stop resending; the watchdog decides what happens next
  }
  ++act_retries_;
  ++rm_.mutable_stats().retransmissions;
  act_rto_ = Time::from_ns(act_rto_.nanos() * rm_.protocol_config().backoff);
  act_timer_.arm(act_rto_);
  // Resend the same logical request (same seq): act_msgs counts logical
  // requests, retransmissions counts the extra copies.
  rm_.send_client_msg(this, MsgType::kActivate, act_seq_);
}

}  // namespace pap::rm
