#include "dram/controller.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "trace/tracer.hpp"

namespace pap::dram {

Expected<ControllerParams> ControllerConfig::build() const {
  using E = Expected<ControllerParams>;
  if (p_.banks <= 0) {
    return E::error("banks must be >= 1 (got " + std::to_string(p_.banks) +
                    ")");
  }
  if (p_.n_cap < 0) {
    return E::error("hit promotion cap n_cap must be >= 0 (got " +
                    std::to_string(p_.n_cap) + ")");
  }
  if (p_.n_wd <= 0) {
    return E::error("write batch size n_wd must be >= 1 (got " +
                    std::to_string(p_.n_wd) + ")");
  }
  if (p_.w_low < 0) {
    return E::error("write watermark w_low must be >= 0 (got " +
                    std::to_string(p_.w_low) + ")");
  }
  if (p_.w_high < p_.w_low) {
    return E::error("write watermarks must satisfy w_high >= w_low (got " +
                    std::to_string(p_.w_high) + " < " +
                    std::to_string(p_.w_low) + ")");
  }
  if (p_.age_cap <= Time::zero()) {
    return E::error("starvation age_cap must be positive");
  }
  return p_;
}

namespace {

ControllerParams checked_params(const Expected<ControllerParams>& built) {
  PAP_CHECK_MSG(built.has_value(),
                built.has_value() ? "" : built.error_message().c_str());
  return built.value();
}

}  // namespace

Controller::Controller(sim::Kernel& kernel, const Timings& timings,
                       const ControllerConfig& config)
    : kernel_(kernel),
      timings_(timings),
      params_(checked_params(config.build())),
      policy_(make_policy(params_.policy)),
      refresh_timer_(kernel, kernel.now() + timings.tREFI, timings.tREFI,
                     [this] {
                       refresh_due_ = true;
                       kick();
                     }) {
  PAP_CHECK_MSG(timings_.valid(), "invalid DRAM timing set");
  PAP_CHECK_MSG(params_.valid(), "invalid controller parameters");
  banks_.assign(static_cast<std::size_t>(params_.banks), Bank{timings_});
}

void Controller::submit(Request request) {
  PAP_CHECK(request.bank < static_cast<std::uint32_t>(params_.banks));
  request.arrival = kernel_.now();
  if (request.op == Op::kRead) {
    read_q_.push_back(request);
    max_read_depth_ = std::max(max_read_depth_, read_q_.size());
    counters_.inc("reads_submitted");
  } else {
    write_q_.push_back(request);
    counters_.inc("writes_submitted");
  }
  if (auto* t = kernel_.tracer()) {
    t->counter("dram", "read_q_depth", static_cast<double>(read_q_.size()));
    t->counter("dram", "write_q_depth", static_cast<double>(write_q_.size()));
  }
  kick();
}

void Controller::inject_stall(Time until) {
  ready_at_ = std::max(ready_at_, until);
  last_was_hit_ = false;  // the stall breaks any data-bus pipeline
  counters_.inc("injected_stalls");
  if (auto* t = kernel_.tracer()) {
    t->span(kernel_.now(), until - kernel_.now(), "dram", "injected_stall",
            "fault");
  }
}

void Controller::kick() {
  if (busy_) return;
  busy_ = true;
  kernel_.schedule_at(std::max(kernel_.now(), ready_at_),
                      [this] { dispatch(); });
}

void Controller::set_master_priority(std::uint32_t master,
                                     std::uint8_t priority) {
  for (auto& [m, p] : master_priorities_) {
    if (m == master) {
      p = priority;
      return;
    }
  }
  master_priorities_.emplace_back(master, priority);
}

std::uint8_t Controller::master_priority(std::uint32_t master) const {
  for (const auto& [m, p] : master_priorities_) {
    if (m == master) return p;
  }
  return 255;
}

bool Controller::row_open_hit(const Request& r) const {
  return params_.page_policy == PagePolicy::kOpenRow &&
         !policy_->auto_precharge() && banks_[r.bank].is_hit(r.row);
}

void Controller::switch_mode(Mode m, Time turnaround) {
  mode_ = m;
  ready_at_ = std::max(ready_at_, kernel_.now()) + turnaround;
  last_was_hit_ = false;  // turnaround breaks any data-bus pipeline
  if (m == Mode::kWrite) {
    writes_in_batch_ = 0;
    counters_.inc("switches_to_write");
  } else if (m == Mode::kRead) {
    hit_streak_ = 0;
    must_serve_read_ = true;
    counters_.inc("switches_to_read");
  }
  if (auto* t = kernel_.tracer()) {
    t->instant("dram",
               m == Mode::kWrite ? "switch_to_write" : "switch_to_read",
               "mode");
    t->counter("dram", "write_q_depth", static_cast<double>(write_q_.size()));
  }
  if (on_mode_) on_mode_(kernel_.now(), m, write_q_.size());
}

void Controller::do_refresh() {
  refresh_due_ = false;
  counters_.inc("refreshes");
  Time done = std::max(kernel_.now(), ready_at_);
  const Time start = done;
  for (auto& b : banks_) done = std::max(done, b.refresh(start));
  ready_at_ = done;
  last_was_hit_ = false;
  if (auto* t = kernel_.tracer()) {
    t->span(start, done - start, "dram", "refresh", "mode");
    t->counter("dram", "refreshes",
               static_cast<double>(counters_.get("refreshes")),
               trace::CounterKind::kMonotonic);
  }
  if (on_mode_) on_mode_(kernel_.now(), Mode::kRefresh, write_q_.size());
  kernel_.schedule_at(done, [this] { dispatch(); });
}

void Controller::dispatch() {
  // Invariant: busy_ == true; we either schedule a follow-up dispatch or
  // set busy_ = false before returning.
  if (refresh_due_) {
    // Refresh takes precedence at every request boundary once its timer
    // expired ("scheduled when a refresh timer expires, after the
    // completion of the ongoing read or write request").
    do_refresh();
    return;
  }

  if (mode_ == Mode::kRead) {
    if (policy_->switch_to_writes(*this)) {
      switch_mode(Mode::kWrite, timings_.switch_read_to_write() +
                                    policy_->turnaround_penalty(timings_));
      kernel_.schedule_at(ready_at_, [this] { dispatch(); });
      return;
    }
    const int idx = policy_->pick_read(*this);
    if (idx < 0) {
      busy_ = false;  // idle; next submit() or refresh kicks us
      return;
    }
    Request r = read_q_[static_cast<std::size_t>(idx)];
    const bool hit = row_open_hit(r);
    if (hit) {
      // A hit served from a non-head position was promoted over an older
      // request (under FCFS-ordered policies the pick is always the class
      // head, so this never fires).
      if (idx != 0) counters_.inc("read_hit_promotions");
      ++hit_streak_;
    } else {
      hit_streak_ = 0;
    }
    must_serve_read_ = false;
    read_q_.erase(read_q_.begin() + idx);
    serve(r, hit);
    return;
  }

  // Write mode.
  if (policy_->write_batch_done(*this)) {
    switch_mode(Mode::kRead, timings_.switch_write_to_read() +
                                 policy_->turnaround_penalty(timings_));
    kernel_.schedule_at(ready_at_, [this] { dispatch(); });
    return;
  }
  const std::size_t idx = policy_->pick_write(*this);
  Request w = write_q_[idx];
  const bool hit = row_open_hit(w);
  write_q_.erase(write_q_.begin() + static_cast<std::ptrdiff_t>(idx));
  ++writes_in_batch_;
  serve(w, hit);
}

void Controller::serve(Request r, bool is_hit) {
  const Time now = std::max(kernel_.now(), ready_at_);
  Time completion;
  if (is_hit) {
    const bool pipelined = last_was_hit_ && last_bank_ == r.bank &&
                           last_row_ == r.row && last_data_end_ >= now;
    if (pipelined) {
      // Back-to-back hits stream at tBurst spacing.
      completion = last_data_end_ + timings_.read_hit_cost();
    } else {
      completion = now + timings_.read_hit_first_latency();
    }
    counters_.inc(r.op == Op::kRead ? "read_hits" : "write_hits");
  } else {
    completion = banks_[r.bank].access(
        now, r.row, r.op == Op::kWrite,
        params_.page_policy == PagePolicy::kClosedPage ||
            policy_->auto_precharge());
    counters_.inc(r.op == Op::kRead ? "read_misses" : "write_misses");
  }
  last_was_hit_ = is_hit;
  last_bank_ = r.bank;
  last_row_ = r.row;
  last_data_end_ = completion;
  // The command engine frees when the data burst ends; write recovery is
  // tracked inside the bank and only delays that bank's next activation.
  ready_at_ = completion;

  const Time latency = completion - r.arrival;
  if (r.op == Op::kRead) {
    read_latency_.add(latency);
  } else {
    write_latency_.add(latency);
  }
  if (auto* t = kernel_.tracer()) {
    // Two spans per request: time spent queued (arrival -> engine pickup)
    // and the command/data phase. Hits are a CAS burst; misses pay the
    // activate as well (closed-page rows always miss).
    const char* op = r.op == Op::kRead ? "read" : "write";
    t->span(r.arrival, now - r.arrival, "dram", std::string(op) + "/queue",
            "queue");
    t->span(now, completion - now, "dram",
            std::string(op) + (is_hit ? "/CAS" : "/ACT+CAS"), "service");
    t->counter("dram", "row_hits",
               static_cast<double>(counters_.get("read_hits") +
                                   counters_.get("write_hits")),
               trace::CounterKind::kMonotonic);
    t->counter("dram", "row_misses",
               static_cast<double>(counters_.get("read_misses") +
                                   counters_.get("write_misses")),
               trace::CounterKind::kMonotonic);
  }
  if (on_complete_) {
    kernel_.schedule_at(
        completion, [this, r, completion] { on_complete_(r, completion); },
        /*priority=*/-1);
  }
  kernel_.schedule_at(completion, [this] { dispatch(); });
}

}  // namespace pap::dram
