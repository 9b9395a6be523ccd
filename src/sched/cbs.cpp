#include "sched/cbs.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace pap::sched {

CbsServer::CbsServer(std::uint32_t id, CbsParams params)
    : id_(id), params_(params), budget_left_(params.budget) {
  PAP_CHECK(params.budget > Time::zero() && params.period >= params.budget);
}

CbsScheduler::CbsScheduler(sim::Kernel& kernel) : kernel_(kernel) {}

double CbsScheduler::total_bandwidth() const {
  double u = 0.0;
  for (const auto& s : servers_) u += s->params().bandwidth();
  return u;
}

Expected<CbsServer*> CbsScheduler::add_server(CbsParams params) {
  const double u = total_bandwidth() + params.budget / params.period;
  if (u > 1.0 + 1e-12) {
    return Expected<CbsServer*>::error(
        "reservation would overbook the core (U = " + std::to_string(u) + ")");
  }
  servers_.push_back(std::make_unique<CbsServer>(next_id_++, params));
  return servers_.back().get();
}

void CbsScheduler::submit(CbsServer* server, Job job, Time execution) {
  PAP_CHECK(server != nullptr && execution > Time::zero());
  job.release = kernel_.now();
  server->queue_.push_back(CbsServer::Pending{job, execution});
  if (!server->active_) wakeup(server);
  reschedule();
}

void CbsScheduler::wakeup(CbsServer* s) {
  // CBS admission rule on wakeup: if the residual budget, consumed at the
  // server's bandwidth, would overrun the current deadline, start a fresh
  // (budget, deadline) pair; otherwise keep them.
  const Time now = kernel_.now();
  const double bw = s->params_.bandwidth();
  const double slack_ns = (s->deadline_ - now).nanos();
  if (s->deadline_ <= now ||
      s->budget_left_.nanos() > slack_ns * bw) {
    s->budget_left_ = s->params_.budget;
    s->deadline_ = now + s->params_.period;
  }
  s->active_ = true;
}

CbsServer* CbsScheduler::earliest_deadline_active() {
  CbsServer* best = nullptr;
  for (const auto& s : servers_) {
    if (!s->active_) continue;
    if (!best || s->deadline_ < best->deadline_) best = s.get();
  }
  return best;
}

void CbsScheduler::stop_running(bool put_back) {
  if (!running_) return;
  kernel_.cancel(next_event_);
  const Time ran = kernel_.now() - resumed_at_;
  running_->budget_left_ -= ran;
  PAP_CHECK(running_->budget_left_ >= Time::zero());
  PAP_CHECK(!running_->queue_.empty());
  running_->queue_.front().remaining -= ran;
  PAP_CHECK(running_->queue_.front().remaining >= Time::zero());
  if (!put_back) {
    // caller handles the server's state
  }
  running_ = nullptr;
}

void CbsScheduler::reschedule() {
  CbsServer* next = earliest_deadline_active();
  if (next == running_) return;
  stop_running(/*put_back=*/true);
  running_ = next;
  if (!running_) return;
  resumed_at_ = kernel_.now();
  const Time work = running_->queue_.front().remaining;
  const Time budget = running_->budget_left_;
  if (budget >= work) {
    next_is_completion_ = true;
    next_event_ = kernel_.schedule_in(work, [this] { job_finished(); });
  } else {
    next_is_completion_ = false;
    next_event_ = kernel_.schedule_in(budget, [this] { budget_exhausted(); });
  }
}

void CbsScheduler::budget_exhausted() {
  PAP_CHECK(running_ != nullptr);
  next_event_ = sim::EventId{};  // this event just fired; nothing to cancel
  CbsServer* s = running_;
  stop_running(/*put_back=*/false);
  // CBS replenishment: postpone the deadline by one period and refill.
  s->budget_left_ = s->params_.budget;
  s->deadline_ += s->params_.period;
  reschedule();
}

void CbsScheduler::job_finished() {
  PAP_CHECK(running_ != nullptr);
  next_event_ = sim::EventId{};  // this event just fired; nothing to cancel
  CbsServer* s = running_;
  stop_running(/*put_back=*/false);
  Job done = s->queue_.front().job;
  s->queue_.pop_front();
  // Report the server's deadline as the job's guarantee reference.
  done.absolute_deadline = s->deadline_;
  records_.push_back(JobRecord{done, kernel_.now()});
  if (s->queue_.empty()) s->active_ = false;
  reschedule();
}

}  // namespace pap::sched
