#include "serve/service.hpp"

#include <algorithm>
#include <array>
#include <atomic>
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
#include "serve/endpoints.hpp"
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

/// One endpoint's stats slot. Counts are lone atomics; only the latency
/// histogram (wall time of ok replies, submit -> reply) takes a lock, and
/// only this endpoint's. The histogram is log-bucketed, so a daemon's
/// memory does not grow with the requests it has served.
struct EndpointStats {
  std::atomic<std::uint64_t> requests{0};
  std::atomic<std::uint64_t> ok{0};
  std::atomic<std::uint64_t> errors{0};
  std::atomic<std::uint64_t> cache_hits{0};
  std::atomic<std::uint64_t> disk_hits{0};
  std::atomic<std::uint64_t> coalesced{0};
  std::atomic<std::uint64_t> overloaded{0};
  mutable std::mutex latency_mu;
  LogHistogram latency;  // carried as Time (ns resolution)

  void count_ok(SteadyClock::time_point t0) {
    ++ok;
    const double us = us_since(t0);
    std::lock_guard<std::mutex> lock(latency_mu);
    latency.add(Time::from_ns(us * 1000.0));
  }

  /// Every count moves after the ones it refines (a request before its
  /// outcome, an ok reply before its cache or disk hit), and a snapshot
  /// reads them in the opposite order with sequentially consistent loads.
  /// So no snapshot shows more outcomes than requests or more hits than ok
  /// replies, even mid-flight.
  EndpointCounts snapshot() const {
    EndpointCounts c;
    c.cache_hits = cache_hits.load();
    c.disk_hits = disk_hits.load();
    c.coalesced = coalesced.load();
    c.ok = ok.load();
    c.errors = errors.load();
    c.overloaded = overloaded.load();
    c.requests = requests.load();
    return c;
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
  }

  struct Waiter {
    std::int64_t id = 0;
    ReplyFn reply;
    SteadyClock::time_point t0;
  };

  struct Job {
    const Endpoint* endpoint = nullptr;  // an analysis or session row
    std::string key;  // analysis jobs only: the in-flight/cache identity
    exp::Params params;
    std::vector<Waiter> waiters;  // guarded by State::mu
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
  std::array<EndpointStats, std::size(kEndpoints)> stats;  // by table row

  LruShard& shard_of(const std::string& key) {
    return cache[std::hash<std::string>{}(key) % kShards];
  }

  EndpointStats& stats_of(const Endpoint& e) {
    return stats[static_cast<std::size_t>(&e - kEndpoints)];
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
    reply(error_reply(0, ErrorCode::kParseError, parsed.error_message()));
    return;
  }
  Request& req = parsed.value();
  State& st = *state_;
  const Endpoint* endpoint = find_endpoint(req.op);
  if (!endpoint) {
    reply(error_reply(req.id, ErrorCode::kBadRequest,
                      "unknown op '" + req.op + "'"));
    return;
  }
  // Control endpoints answer inline, even during overload or drain — a
  // health probe must keep working exactly when the server is saturated.
  if (endpoint->kind == EndpointKind::kControl) {
    reply(ok_reply(req.id, endpoint->control(*this)));
    return;
  }
  EndpointStats& stats = st.stats_of(*endpoint);
  ++stats.requests;

  // Only analysis answers are functions of the request bytes, so only
  // they are cached and coalesced. A session op is a decision against its
  // session's history: a repeat of the same line is a new decision, so it
  // skips the LRU and the in-flight index and every line runs, in queue
  // order.
  const bool analysis = endpoint->kind == EndpointKind::kAnalysis;
  const std::string key = analysis ? req.key() : std::string();
  const bool cacheable = analysis && config_.cache_entries != 0;
  const auto reply_hit = [&](const std::string& payload) {
    stats.count_ok(t0);
    ++stats.cache_hits;
    reply(ok_reply(req.id, payload));
  };
  // Fast path: answered from the LRU on the submitting thread.
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
      lk.unlock();
      reply(error_reply(req.id, ErrorCode::kShuttingDown,
                        "server is draining"));
      return;
    }
    if (analysis) {
      if (const auto it = st.inflight.find(key); it != st.inflight.end()) {
        // Batch: ride the in-flight computation for the same identity.
        it->second->waiters.push_back(
            State::Waiter{req.id, std::move(reply), t0});
        lk.unlock();
        ++stats.coalesced;
        return;
      }
    }
    if (st.queue.size() < config_.queue_capacity) {
      auto job = std::make_shared<State::Job>();
      job->endpoint = endpoint;
      job->key = key;
      job->params = std::move(req.params);
      job->waiters.push_back(State::Waiter{req.id, std::move(reply), t0});
      if (analysis) st.inflight[key] = job;
      st.queue.push_back(std::move(job));
      lk.unlock();
      st.work_cv.notify_one();
      return;
    }
  }
  ++stats.overloaded;
  reply(error_reply(req.id, ErrorCode::kOverloaded,
                    "request queue is full (capacity " +
                        std::to_string(config_.queue_capacity) +
                        "); retry later"));
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
    }

    const Endpoint& endpoint = *job->endpoint;
    if (st.config.before_dispatch) {
      st.config.before_dispatch(std::string(endpoint.op));
    }
    // Second chance below the LRU: the persistent tier, probed here on
    // the worker so the blocking file read never runs on a reactor
    // thread. A verified hit refills the LRU (the read is paid once per
    // key per process) and skips the handler — the payload bytes are
    // identical to a computed answer by construction.
    bool ok = false;
    bool from_disk = false;
    std::string payload;
    HandlerOutcome outcome;
    if (endpoint.kind == EndpointKind::kSession) {
      // Stateful decision: no disk probe, no cache fill — the answer is a
      // function of the session history, not of the request bytes.
      outcome = (st.sessions.*endpoint.session)(job->params);
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
        outcome = endpoint.analysis(job->params, st.config.handlers);
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
      if (endpoint.kind == EndpointKind::kAnalysis) {
        st.inflight.erase(job->key);
      }
      waiters = std::move(job->waiters);
    }

    EndpointStats& stats = st.stats_of(endpoint);
    for (auto& w : waiters) {
      if (ok) {
        stats.count_ok(w.t0);
        if (from_disk) ++stats.disk_hits;
        w.reply(ok_reply(w.id, payload));
      } else {
        ++stats.errors;
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

EndpointCounts AnalysisService::counts(std::string_view op) const {
  const Endpoint* endpoint = find_endpoint(op);
  PAP_CHECK_MSG(endpoint != nullptr, "AnalysisService::counts: unknown op");
  return state_->stats_of(*endpoint).snapshot();
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
  bool first = true;
  for (const Endpoint& endpoint : kEndpoints) {
    if (endpoint.kind == EndpointKind::kControl) continue;
    if (!first) out += ',';
    first = false;
    const EndpointStats& stats = st.stats_of(endpoint);
    const EndpointCounts c = stats.snapshot();
    out += '"';
    out += endpoint.op;
    out += "\":{\"requests\":" + std::to_string(c.requests);
    out += ",\"ok\":" + std::to_string(c.ok);
    out += ",\"errors\":" + std::to_string(c.errors);
    out += ",\"cache_hits\":" + std::to_string(c.cache_hits);
    out += ",\"disk_hits\":" + std::to_string(c.disk_hits);
    out += ",\"coalesced\":" + std::to_string(c.coalesced);
    out += ",\"overloaded\":" + std::to_string(c.overloaded);
    std::lock_guard<std::mutex> lock(stats.latency_mu);
    out += ",\"latency_us\":{\"count\":" +
           std::to_string(stats.latency.count());
    if (!stats.latency.empty()) {
      char buf[160];
      std::snprintf(buf, sizeof buf,
                    ",\"p50\":%.1f,\"p95\":%.1f,\"p99\":%.1f,\"max\":%.1f",
                    stats.latency.percentile(50).nanos() / 1000.0,
                    stats.latency.percentile(95).nanos() / 1000.0,
                    stats.latency.percentile(99).nanos() / 1000.0,
                    stats.latency.max().nanos() / 1000.0);
      out += buf;
    }
    out += "}}";
  }
  out += "}}";
  return out;
}

}  // namespace pap::serve
