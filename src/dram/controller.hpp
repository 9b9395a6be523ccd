// DRAM controller command engine (Sec. IV-A, Fig. 4) with a pluggable
// arbitration policy (policy.hpp) and the watermark-based read/write
// switching of Fig. 5 as the default FR-FCFS strategy.
//
// Mechanisms modelled, following the paper:
//  * separate read and write queues;
//  * row hits promoted to the front of the read queue, capped at N_cap
//    consecutive promotions to avoid starving misses (FR-FCFS policy);
//  * write batching: switch to writes when (read queue empty and
//    write queue >= W_low) or write queue >= W_high; switch back after
//    N_wd writes when reads are pending (or when the write queue falls
//    below max(W_low - N_wd, 0) with no reads waiting);
//  * bus turnaround overheads tRTW / tWTR on every switch;
//  * periodic refresh every tREFI costing tRFC, executed at the first
//    request boundary after the timer expires.
//
// The engine serves one request at a time (no bank-level parallelism)
// except that consecutive row hits to the same open row pipeline their data
// bursts at tBurst spacing — exactly the cost model the worst-case analysis
// in wcd.hpp uses, so `simulated latency <= analytic upper bound` is a
// meaningful cross-check (tested in tests/dram_wcd_test.cpp and
// tests/dram_policy_zoo_test.cpp).
//
// Which request is served next, when the engine changes direction and
// whether rows stay open are delegated to a SchedulerPolicy; everything
// the policies share (queues, refresh precedence, timing, tracing,
// counters, MPAM priority classes) stays here. The default FR-FCFS policy
// is bit-identical to the pre-strategy monolithic FR-FCFS controller
// (pinned by bench/golden/ablation_dram_policy_frfcfs_ddr3.csv).
#pragma once

#include <deque>
#include <functional>
#include <vector>

#include "common/stats.hpp"
#include "common/status.hpp"
#include "dram/bank.hpp"
#include "dram/policy.hpp"
#include "dram/request.hpp"
#include "dram/timing.hpp"
#include "sim/kernel.hpp"

namespace pap::dram {

/// Row-buffer management policy.
///
/// "Commercial off-the-shelf memory controllers are optimized for the
/// average-case performance and for this they rely on the open-row policy"
/// (Sec. V). The closed-page policy is the classic predictable baseline:
/// every access pays the same ACT + CAS + PRE cycle (auto-precharge), so
/// there are no row hits to promote and no hit-block term in the WCD — a
/// lower worst case bought with a worse average.
///
/// Retained for the legacy knob surface; `PolicyKind::kClosePage` expresses
/// the same row management through the scheduler-policy API.
enum class PagePolicy : std::uint8_t { kOpenRow, kClosedPage };

struct ControllerParams {
  int n_cap = 16;   ///< max consecutive row-hit promotions
  int w_high = 55;  ///< write-queue high watermark (switch to writes)
  int w_low = 28;   ///< write-queue low watermark (serve writes when idle)
  int n_wd = 16;    ///< write batch length
  int banks = 8;
  PagePolicy page_policy = PagePolicy::kOpenRow;
  PolicyKind policy = PolicyKind::kFrFcfs;  ///< arbitration strategy
  /// kStarvationGuard: a read older than this bypasses hit promotion.
  Time age_cap = Time::us(10);

  bool valid() const {
    return n_cap >= 0 && n_wd > 0 && w_high >= w_low && w_low >= 0 &&
           banks > 0 && age_cap > Time::zero();
  }
};

/// Validated builder for ControllerParams. Raw aggregates are easy to get
/// wrong silently (inverted watermarks reorder every write batch; a zero
/// bank count aborts deep inside the simulator); the builder names the
/// violated rule instead. Chainable, mirroring platform::ScenarioConfig:
///
///   auto params = ControllerConfig{}
///                     .policy(PolicyKind::kStarvationGuard)
///                     .age_cap(Time::us(2))
///                     .build();   // Expected<ControllerParams>
class ControllerConfig {
 public:
  ControllerConfig() = default;
  /// Adopt an existing raw aggregate (migration aid for old call sites).
  explicit ControllerConfig(const ControllerParams& params) : p_(params) {}

  ControllerConfig& n_cap(int v) { return (p_.n_cap = v, *this); }
  ControllerConfig& w_high(int v) { return (p_.w_high = v, *this); }
  ControllerConfig& w_low(int v) { return (p_.w_low = v, *this); }
  ControllerConfig& watermarks(int high, int low) {
    p_.w_high = high;
    p_.w_low = low;
    return *this;
  }
  ControllerConfig& n_wd(int v) { return (p_.n_wd = v, *this); }
  ControllerConfig& banks(int v) { return (p_.banks = v, *this); }
  ControllerConfig& page_policy(PagePolicy v) {
    return (p_.page_policy = v, *this);
  }
  ControllerConfig& policy(PolicyKind v) { return (p_.policy = v, *this); }
  ControllerConfig& age_cap(Time v) { return (p_.age_cap = v, *this); }

  /// Unvalidated view (for diffing / labels).
  const ControllerParams& params() const { return p_; }

  /// Validated snapshot; the error names the violated rule.
  Expected<ControllerParams> build() const;

 private:
  ControllerParams p_;
};

enum class Mode { kRead, kWrite, kRefresh };

class Controller {
 public:
  Controller(sim::Kernel& kernel, const Timings& timings,
             const ControllerConfig& config);

  /// Enqueue a request at the current simulation time.
  void submit(Request request);

  /// MPAM priority partitioning at the memory controller (Sec. III-B-4:
  /// "Priority partitioning provides a way for resources to expose
  /// partition-based configuration of internal arbitration policies").
  /// Read scheduling first selects the highest-priority master class
  /// present in the queue, then applies the arbitration policy within that
  /// class. Lower value = more important; unset masters default to the
  /// lowest (255).
  void set_master_priority(std::uint32_t master, std::uint8_t priority);
  std::uint8_t master_priority(std::uint32_t master) const;

  /// Fault injection: freeze command issue until `until` — a transient
  /// stall window (thermal throttle, RAS scrub, rank power event). Requests
  /// keep arriving and queue normally; the in-flight command completes, then
  /// the engine stays idle until the window closes. Counted under
  /// "injected_stalls" (fault::Injector's dram-stall handler binds here).
  void inject_stall(Time until);

  /// Called with every completed request and its completion time.
  void set_completion_handler(CompletionFn fn) { on_complete_ = std::move(fn); }

  /// Called on every read<->write/refresh mode change (for Fig. 5 traces).
  using ModeTraceFn =
      std::function<void(Time when, Mode mode, std::size_t write_queue_depth)>;
  void set_mode_trace(ModeTraceFn fn) { on_mode_ = std::move(fn); }

  std::size_t read_queue_depth() const { return read_q_.size(); }
  std::size_t write_queue_depth() const { return write_q_.size(); }
  Mode mode() const { return mode_; }

  const Counters& counters() const { return counters_; }
  const LatencyHistogram& read_latency() const { return read_latency_; }
  const LatencyHistogram& write_latency() const { return write_latency_; }

  const Timings& timings() const { return timings_; }
  const ControllerParams& params() const { return params_; }
  const SchedulerPolicy& policy() const { return *policy_; }

  // --- read-only scheduling state, for SchedulerPolicy implementations ---
  const std::deque<Request>& read_queue() const { return read_q_; }
  const std::deque<Request>& write_queue() const { return write_q_; }
  /// Would `r` hit an open row right now? False whenever row management
  /// (page policy or an auto-precharging scheduler policy) keeps rows
  /// closed.
  bool row_open_hit(const Request& r) const;
  bool must_serve_read() const { return must_serve_read_; }
  int hit_streak() const { return hit_streak_; }
  int writes_in_batch() const { return writes_in_batch_; }
  Time now() const { return kernel_.now(); }

  /// Deepest the read queue has been (at submit), for anchoring a measured
  /// run to the analytic bound at queue position N.
  std::size_t max_read_queue_depth() const { return max_read_depth_; }

 private:
  void init();           ///< shared constructor tail (validates params_)
  void kick();           ///< schedule a dispatch if the engine is idle
  void dispatch();       ///< pick and serve the next command
  void serve(Request r, bool is_hit);
  void do_refresh();
  void switch_mode(Mode m, Time turnaround);

  sim::Kernel& kernel_;
  Timings timings_;
  ControllerParams params_;
  std::unique_ptr<SchedulerPolicy> policy_;

  std::vector<Bank> banks_;
  std::deque<Request> read_q_;
  std::deque<Request> write_q_;

  Mode mode_ = Mode::kRead;
  bool busy_ = false;
  bool refresh_due_ = false;
  bool must_serve_read_ = false;  ///< anti-starvation: one read per batch
  int hit_streak_ = 0;       ///< consecutive promoted hits (vs FCFS order)
  int writes_in_batch_ = 0;
  Time ready_at_;            ///< engine free from this instant
  Time last_data_end_;       ///< data-bus occupancy for hit pipelining
  bool last_was_hit_ = false;
  std::uint32_t last_bank_ = 0;
  std::uint32_t last_row_ = 0;
  std::size_t max_read_depth_ = 0;

  sim::PeriodicEvent refresh_timer_;
  std::vector<std::pair<std::uint32_t, std::uint8_t>> master_priorities_;

  CompletionFn on_complete_;
  ModeTraceFn on_mode_;
  Counters counters_;
  LatencyHistogram read_latency_;
  LatencyHistogram write_latency_;
};

}  // namespace pap::dram
