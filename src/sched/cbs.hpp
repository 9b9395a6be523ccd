// Constant Bandwidth Server (CBS) reservations under EDF.
//
// "Reservation-based scheduling approaches show advantages in offering
// composable QoS guarantees to applications while allowing more flexibility
// than TDMA-based scheduling" (Sec. II). Each server owns a budget Q every
// period P; servers are scheduled EDF by their dynamic deadlines, and a
// depleted server postpones its deadline and replenishes (the classic CBS
// rules), so no server can exceed its bandwidth Q/P no matter how much work
// it queues — temporal isolation by construction.
//
// The composability story: a CBS with (Q, P) supplies the rate-latency
// service curve beta(t) = (Q/P) * max(0, t - 2(P - Q)) — exported via
// `service_curve()` so reservations plug directly into the NC analysis.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <vector>

#include "common/status.hpp"
#include "nc/service.hpp"
#include "sched/task.hpp"
#include "sim/kernel.hpp"

namespace pap::sched {

struct CbsParams {
  Time budget;  ///< Q
  Time period;  ///< P
  double bandwidth() const { return budget / period; }
};

class CbsScheduler;

/// One reservation. Work is queued as (job, execution-time) pairs.
class CbsServer {
 public:
  CbsServer(std::uint32_t id, CbsParams params);

  std::uint32_t id() const { return id_; }
  const CbsParams& params() const { return params_; }

  /// Guaranteed supply as a rate-latency curve (units: ns of CPU per ns).
  nc::RateLatency service_curve() const {
    return nc::RateLatency{params_.bandwidth(),
                           2.0 * (params_.period - params_.budget).nanos()};
  }

 private:
  friend class CbsScheduler;
  struct Pending {
    Job job;
    Time remaining;
  };
  std::uint32_t id_;
  CbsParams params_;
  std::deque<Pending> queue_;
  Time budget_left_;
  Time deadline_;        ///< current server deadline (EDF key)
  bool active_ = false;  ///< has pending work
};

/// Single-core EDF scheduler over CBS servers.
class CbsScheduler {
 public:
  explicit CbsScheduler(sim::Kernel& kernel);

  /// Add a server; total bandwidth must stay <= 1 (admission test).
  Expected<CbsServer*> add_server(CbsParams params);

  /// Queue `execution` of work for `server` at the current time.
  void submit(CbsServer* server, Job job, Time execution);

  const std::vector<JobRecord>& records() const { return records_; }
  double total_bandwidth() const;

 private:
  void wakeup(CbsServer* s);
  void reschedule();
  void budget_exhausted();
  void job_finished();
  void stop_running(bool put_back);
  CbsServer* earliest_deadline_active();

  sim::Kernel& kernel_;
  std::vector<std::unique_ptr<CbsServer>> servers_;
  CbsServer* running_ = nullptr;
  Time resumed_at_;
  sim::EventId next_event_;
  bool next_is_completion_ = false;
  std::vector<JobRecord> records_;
  std::uint32_t next_id_ = 0;
};

}  // namespace pap::sched
