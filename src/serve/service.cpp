#include "serve/service.hpp"

#include <algorithm>
#include <array>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <list>
#include <mutex>
#include <optional>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/check.hpp"
#include "common/stats.hpp"
#include "nc/arena.hpp"
#include "serve/diskcache.hpp"
#include "serve/sessions.hpp"

namespace pap::serve {

namespace {

using SteadyClock = std::chrono::steady_clock;

double us_since(SteadyClock::time_point t0) {
  return std::chrono::duration<double, std::micro>(SteadyClock::now() - t0)
      .count();
}

/// One LRU shard: mutex + recency list + index. Keys are the request
/// identity (op + canonical params — the exp result-cache content scheme);
/// values are fully rendered result payloads.
class LruShard {
 public:
  void set_capacity(std::size_t cap) { cap_ = cap; }

  std::optional<std::string> get(const std::string& key) {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = index_.find(key);
    if (it == index_.end()) return std::nullopt;
    lru_.splice(lru_.begin(), lru_, it->second);  // touch
    return it->second->second;
  }

  void put(const std::string& key, const std::string& value) {
    if (cap_ == 0) return;
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = index_.find(key);
    if (it != index_.end()) {
      it->second->second = value;
      lru_.splice(lru_.begin(), lru_, it->second);
      return;
    }
    lru_.emplace_front(key, value);
    index_[key] = lru_.begin();
    if (lru_.size() > cap_) {
      index_.erase(lru_.back().first);
      lru_.pop_back();
    }
  }

 private:
  std::mutex mu_;
  std::size_t cap_ = 0;
  std::list<std::pair<std::string, std::string>> lru_;
  std::unordered_map<std::string,
                     std::list<std::pair<std::string, std::string>>::iterator>
      index_;
};

constexpr std::size_t kShards = 16;

/// Per-endpoint latency capture (wall time of accepted analysis replies,
/// measured submit -> reply-dispatch). Counts live in the CounterRegistry;
/// only the histogram needs its own lock.
struct OpLatency {
  std::mutex mu;
  LatencyHistogram hist;  // wall latency carried as Time (ns resolution)

  void record(double us) {
    std::lock_guard<std::mutex> lock(mu);
    hist.add(Time::from_ns(us * 1000.0));
  }
};

}  // namespace

struct AnalysisService::State {
  explicit State(const ServiceConfig& cfg)
      : config(cfg), disk(cfg.cache_dir), sessions(cfg.handlers) {
    const std::size_t per_shard =
        cfg.cache_entries == 0
            ? 0
            : std::max<std::size_t>(1, cfg.cache_entries / kShards);
    for (auto& s : cache) s.set_capacity(per_shard);
    for (const auto& op : analysis_ops()) latency[op];  // materialize keys
    for (const auto& op : SessionRegistry::session_ops()) latency[op];
  }

  struct Waiter {
    std::int64_t id = 0;
    ReplyFn reply;
    SteadyClock::time_point t0;
  };

  struct Job {
    std::string key;
    std::string op;
    exp::Params params;
    std::vector<Waiter> waiters;  // guarded by State::mu
    /// Stateful session op: dispatched to the SessionRegistry with the
    /// cache, coalescing and disk tiers all bypassed — two byte-identical
    /// session requests are different decisions.
    bool session = false;
  };

  const ServiceConfig config;

  std::mutex mu;
  std::condition_variable work_cv;
  std::condition_variable drain_cv;
  std::deque<std::shared_ptr<Job>> queue;  // pending unique jobs, bounded
  std::unordered_map<std::string, std::shared_ptr<Job>> inflight;
  bool stopping = false;
  int running = 0;  // jobs currently executing in a worker

  std::array<LruShard, kShards> cache;
  const DiskCache disk;  // persistent tier under the LRU; no-op when disabled
  SessionRegistry sessions;  // stateful admission sessions (thread-safe)
  trace::CounterRegistry counters;
  // Keys fixed at construction; the map itself is never mutated after, so
  // lock-free lookup is safe and each OpLatency has its own mutex.
  std::unordered_map<std::string, OpLatency> latency;

  LruShard& shard_of(const std::string& key) {
    return cache[std::hash<std::string>{}(key) % kShards];
  }

  void queue_depth_gauge() {  // callers hold mu
    counters.update("serve", "service/queue_depth",
                    static_cast<double>(queue.size()),
                    trace::CounterKind::kGauge);
  }
};

AnalysisService::AnalysisService(ServiceConfig config)
    : config_(config), state_(std::make_shared<State>(config)) {
  PAP_CHECK_MSG(config_.workers >= 1, "AnalysisService needs >= 1 worker");
  PAP_CHECK_MSG(config_.queue_capacity >= 1,
                "AnalysisService needs a non-empty queue");
  workers_.reserve(static_cast<std::size_t>(config_.workers));
  for (int i = 0; i < config_.workers; ++i) {
    workers_.emplace_back([this, state = state_] { worker_loop(state); });
  }
}

AnalysisService::~AnalysisService() { shutdown(); }

void AnalysisService::submit(const std::string& line, ReplyFn reply) {
  const auto t0 = SteadyClock::now();
  auto parsed = parse_request(line, config_.parse);
  if (!parsed) {
    state_->counters.add("serve", "service/parse_errors");
    reply(error_reply(0, ErrorCode::kParseError, parsed.error_message()));
    return;
  }
  submit_request(std::move(parsed.value()), std::move(reply), t0);
}

void AnalysisService::submit_request(Request req, ReplyFn reply,
                                     std::chrono::steady_clock::time_point t0) {
  State& st = *state_;

  // Control endpoints answer inline, even during overload or drain — a
  // health probe must keep working exactly when the server is saturated.
  if (req.op == "ping") {
    reply(ok_reply(req.id, "{\"label\":\"pong\",\"metrics\":{}}"));
    return;
  }
  if (req.op == "stats") {
    reply(ok_reply(req.id, stats_json()));
    return;
  }
  const bool session_op = SessionRegistry::is_session_op(req.op);
  if (!session_op && !is_analysis_op(req.op)) {
    st.counters.add("serve", "service/bad_op");
    reply(error_reply(req.id, ErrorCode::kBadRequest,
                      "unknown op '" + req.op + "'"));
    return;
  }

  st.counters.add("serve", req.op + "/requests");
  const std::string key = req.key();

  // Fast path: answered from the LRU on the submitting thread. Session ops
  // never take it — a repeat of the same request line is a new decision.
  const bool cacheable = !session_op && config_.cache_entries != 0;
  const auto reply_hit = [&](const std::string& payload) {
    st.counters.add("serve", req.op + "/cache_hits");
    st.counters.add("serve", req.op + "/ok");
    st.latency.at(req.op).record(us_since(t0));
    reply(ok_reply(req.id, payload));
  };
  if (cacheable) {
    if (auto hit = st.shard_of(key).get(key)) {
      reply_hit(*hit);
      return;
    }
  }

  // The persistent tier is probed by the worker that picks the job up,
  // never here: submit() runs on a reactor (event-loop) thread, and a
  // blocking file read there would add disk latency to every connection
  // sharing the reactor. Coalescing still means one waiter pays the read.
  ErrorCode inline_error = ErrorCode::kInternal;
  bool send_inline_error = false;
  {
    std::unique_lock<std::mutex> lk(st.mu);
    // Re-probe the LRU under st.mu: a worker fills the LRU before it
    // unpublishes its in-flight entry under st.mu, so between the probe
    // above and this lock the key may have moved from one to the other.
    // Missing both would enqueue a duplicate computation.
    if (cacheable) {
      if (auto hit = st.shard_of(key).get(key)) {
        lk.unlock();
        reply_hit(*hit);
        return;
      }
    }
    if (st.stopping) {
      send_inline_error = true;
      inline_error = ErrorCode::kShuttingDown;
    } else if (session_op) {
      // Session jobs skip the in-flight index entirely: identical lines
      // must each run, in queue order, so nothing may coalesce onto them
      // and they must not shadow a cacheable job with the same key.
      if (st.queue.size() >= config_.queue_capacity) {
        send_inline_error = true;
        inline_error = ErrorCode::kOverloaded;
      } else {
        auto job = std::make_shared<State::Job>();
        job->key = key;
        job->op = req.op;
        job->params = std::move(req.params);
        job->session = true;
        job->waiters.push_back(State::Waiter{req.id, std::move(reply), t0});
        st.queue.push_back(std::move(job));
        st.queue_depth_gauge();
        lk.unlock();
        st.work_cv.notify_one();
        return;
      }
    } else if (config_.coalesce && st.inflight.count(key)) {
      // Batch: ride the in-flight computation for the same identity.
      st.inflight[key]->waiters.push_back(
          State::Waiter{req.id, std::move(reply), t0});
      lk.unlock();
      st.counters.add("serve", req.op + "/coalesced");
      return;
    } else if (st.queue.size() >= config_.queue_capacity) {
      send_inline_error = true;
      inline_error = ErrorCode::kOverloaded;
    } else {
      auto job = std::make_shared<State::Job>();
      job->key = key;
      job->op = req.op;
      job->params = std::move(req.params);
      job->waiters.push_back(State::Waiter{req.id, std::move(reply), t0});
      st.inflight[key] = job;
      st.queue.push_back(std::move(job));
      st.queue_depth_gauge();
      lk.unlock();
      st.work_cv.notify_one();
      return;
    }
  }
  if (send_inline_error) {
    if (inline_error == ErrorCode::kOverloaded) {
      st.counters.add("serve", req.op + "/overloaded");
      reply(error_reply(req.id, ErrorCode::kOverloaded,
                        "request queue is full (capacity " +
                            std::to_string(config_.queue_capacity) +
                            "); retry later"));
    } else {
      reply(error_reply(req.id, ErrorCode::kShuttingDown,
                        "server is draining"));
    }
  }
}

std::string AnalysisService::handle(const std::string& line) {
  std::mutex mu;
  std::condition_variable cv;
  std::string out;
  bool done = false;
  submit(line, [&](std::string reply) {
    std::lock_guard<std::mutex> lock(mu);
    out = std::move(reply);
    done = true;
    cv.notify_one();
  });
  std::unique_lock<std::mutex> lk(mu);
  cv.wait(lk, [&] { return done; });
  return out;
}

void AnalysisService::worker_loop(std::shared_ptr<State> state) {
  State& st = *state;
  for (;;) {
    std::shared_ptr<State::Job> job;
    {
      std::unique_lock<std::mutex> lk(st.mu);
      st.work_cv.wait(lk, [&] { return st.stopping || !st.queue.empty(); });
      if (st.queue.empty()) {
        // Stopping and drained. Handlers that ran admission/e2e analyses
        // grew this worker's thread-local curve arena; hand the blocks
        // back before the thread exits.
        nc::thread_arena().release();
        return;
      }
      job = std::move(st.queue.front());
      st.queue.pop_front();
      ++st.running;
      st.queue_depth_gauge();
    }

    if (st.config.before_dispatch) st.config.before_dispatch(job->op);
    // Second chance below the LRU: the persistent tier, probed here on
    // the worker so the blocking file read never runs on a reactor
    // thread. A verified hit refills the LRU (the read is paid once per
    // key per process) and skips the handler — the payload bytes are
    // identical to a computed answer by construction.
    bool ok = false;
    bool from_disk = false;
    std::string payload;
    HandlerOutcome outcome;
    if (job->session) {
      // Stateful decision: no disk probe, no cache fill — the answer is a
      // function of the session history, not of the request bytes.
      outcome = st.sessions.dispatch(job->op, job->params);
      ok = outcome.ok;
      if (ok) payload = render_result(outcome.result);
    } else {
      if (st.disk.enabled()) {
        if (auto hit = st.disk.load(job->key)) {
          payload = std::move(*hit);
          ok = true;
          from_disk = true;
        }
      }
      if (!from_disk) {
        outcome = dispatch(job->op, job->params, st.config.handlers);
        ok = outcome.ok;
        if (ok) payload = render_result(outcome.result);
      }
      if (ok) {
        // Populate the cache before unpublishing the in-flight entry so an
        // identical request arriving in between hits one of the two.
        if (st.config.cache_entries != 0) {
          st.shard_of(job->key).put(job->key, payload);
        }
        if (!from_disk) st.disk.store(job->key, payload);  // no-op when off
      }
    }

    std::vector<State::Waiter> waiters;
    {
      std::lock_guard<std::mutex> lk(st.mu);
      const auto it = st.inflight.find(job->key);
      if (it != st.inflight.end() && it->second == job) st.inflight.erase(it);
      waiters = std::move(job->waiters);
    }

    for (auto& w : waiters) {
      if (ok) {
        if (from_disk) st.counters.add("serve", job->op + "/disk_hits");
        st.counters.add("serve", job->op + "/ok");
        st.latency.at(job->op).record(us_since(w.t0));
        w.reply(ok_reply(w.id, payload));
      } else {
        st.counters.add("serve", job->op + "/errors");
        w.reply(error_reply(w.id, outcome.error.code, outcome.error.message));
      }
    }

    {
      std::lock_guard<std::mutex> lk(st.mu);
      --st.running;
      if (st.queue.empty() && st.running == 0) st.drain_cv.notify_all();
    }
  }
}

void AnalysisService::shutdown() { (void)shutdown(std::chrono::hours(24)); }

bool AnalysisService::shutdown(std::chrono::milliseconds deadline) {
  State& st = *state_;
  {
    std::lock_guard<std::mutex> lk(st.mu);
    if (st.stopping && workers_.empty()) return true;  // already done
    st.stopping = true;
  }
  st.work_cv.notify_all();
  bool drained = true;
  {
    std::unique_lock<std::mutex> lk(st.mu);
    drained = st.drain_cv.wait_for(
        lk, deadline, [&] { return st.queue.empty() && st.running == 0; });
  }
  if (drained) {
    for (auto& w : workers_) {
      if (w.joinable()) w.join();
    }
  } else {
    // Deadline passed with a handler still running: detach rather than
    // block forever. Workers hold a shared_ptr to the state, so a late
    // completion touches valid memory; its reply is dropped by the caller.
    for (auto& w : workers_) {
      if (w.joinable()) w.detach();
    }
  }
  workers_.clear();
  return drained;
}

const trace::CounterRegistry& AnalysisService::counters() const {
  return state_->counters;
}

std::string AnalysisService::stats_json() const {
  State& st = *state_;
  std::size_t depth = 0;
  bool draining = false;
  {
    std::lock_guard<std::mutex> lk(st.mu);
    depth = st.queue.size();
    draining = st.stopping;
  }
  std::string out = "{\"service\":{";
  out += "\"workers\":" + std::to_string(config_.workers);
  out += ",\"queue_capacity\":" + std::to_string(config_.queue_capacity);
  out += ",\"cache_entries\":" + std::to_string(config_.cache_entries);
  out += ",\"queue_depth\":" + std::to_string(depth);
  out += std::string(",\"draining\":") + (draining ? "true" : "false");
  out += ",\"open_sessions\":" + std::to_string(st.sessions.open_sessions());
  out += "},\"endpoints\":{";
  std::vector<std::string> ops = analysis_ops();
  ops.insert(ops.end(), SessionRegistry::session_ops().begin(),
             SessionRegistry::session_ops().end());
  bool first_op = true;
  for (const auto& op : ops) {
    if (!first_op) out += ',';
    first_op = false;
    out += json_quote(op) + ":{";
    const char* names[] = {"requests",   "ok",        "errors",    "cache_hits",
                           "disk_hits",  "coalesced", "overloaded"};
    bool first = true;
    for (const char* n : names) {
      if (!first) out += ',';
      first = false;
      const auto e = st.counters.sample("serve", op + "/" + n);
      const auto v = e ? static_cast<std::uint64_t>(e->value) : 0u;
      out += std::string("\"") + n + "\":" + std::to_string(v);
    }
    OpLatency& lat = st.latency.at(op);
    std::lock_guard<std::mutex> lock(lat.mu);
    out += ",\"latency_us\":{";
    out += "\"count\":" + std::to_string(lat.hist.count());
    if (!lat.hist.empty()) {
      char buf[160];
      std::snprintf(buf, sizeof buf,
                    ",\"p50\":%.1f,\"p95\":%.1f,\"p99\":%.1f,\"max\":%.1f",
                    lat.hist.percentile(50).nanos() / 1000.0,
                    lat.hist.percentile(95).nanos() / 1000.0,
                    lat.hist.percentile(99).nanos() / 1000.0,
                    lat.hist.max().nanos() / 1000.0);
      out += buf;
    }
    out += "}}";
  }
  out += "}}";
  return out;
}

}  // namespace pap::serve
