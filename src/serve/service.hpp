// AnalysisService: the concurrent admission-analysis core of papd.
//
// A bounded-queue worker pool executing the endpoint handlers
// (serve/handlers.hpp), with three serving-layer mechanisms on top:
//
//   * batching    — identical analysis requests (same op + canonical
//                   params) that arrive while one is queued or running are
//                   coalesced onto the in-flight computation: one handler
//                   run fans its answer out to every waiter.
//   * caching     — completed answers enter a sharded LRU keyed by the
//                   same content identity the offline exp::ResultCache
//                   uses; repeat requests are answered inline on the
//                   submitting thread without touching the queue. With a
//                   cache_dir configured, a persistent disk tier
//                   (serve::DiskCache) sits under the LRU: answers are
//                   persisted on completion, and an LRU-missed job probes
//                   the disk on its worker before computing (never on the
//                   submitting thread — that is a reactor event loop); a
//                   disk hit refills the LRU, so warm results survive
//                   restarts and are shared across a shard fleet.
//   * backpressure— the pending-job queue is bounded. When it is full a
//                   new (non-coalescible) request is answered immediately
//                   with an `overloaded` error instead of buffering — the
//                   429 analogue; memory stays flat no matter the offered
//                   load (asserted by bench/serving_throughput).
//
// Which of them apply to an op is a property of its kind in the endpoint
// table (serve/endpoints.hpp): analysis ops get all three, session ops
// only backpressure, and control ops none — they are answered inline.
//
// Determinism: handlers are pure, so whether an answer was computed,
// coalesced or cached never changes its bytes — replies deliberately carry
// no cache/batch markers. Graceful shutdown (`shutdown`) stops intake
// (new submissions get `shutting_down`), drains every queued and running
// job so no accepted request is ever dropped, and joins the workers;
// a deadline variant detaches stuck workers instead of hanging forever.
//
// Thread-safety: `submit` may be called from any number of threads
// (connection handlers); replies fire on a worker thread for computed and
// disk-served answers and on the submitting thread for LRU hits and error
// replies. Nothing on the submit path blocks on I/O.
// The reply callback must therefore be thread-safe itself; it is invoked
// exactly once per submit, never while service locks are held.
//
// Stats: each endpoint owns a fixed slot, indexed by its table row, of
// atomic counts plus a latency histogram under that endpoint's own lock,
// so no request takes a lock shared by all endpoints to be counted.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "serve/handlers.hpp"
#include "serve/protocol.hpp"

namespace pap::serve {

struct ServiceConfig {
  int workers = 4;                    ///< handler threads (>= 1)
  std::size_t queue_capacity = 1024;  ///< pending unique jobs before 429s
  std::size_t cache_entries = 4096;   ///< LRU capacity; 0 disables caching
  /// Directory for the persistent disk tier under the LRU (serve::DiskCache):
  /// survives restarts and is shared read-mostly across papd processes.
  /// Empty disables it.
  std::string cache_dir;
  ParseLimits parse;                  ///< request line limits
  HandlerLimits handlers;             ///< per-endpoint work bounds
  /// Test-only seam: runs on the worker thread right before a job's
  /// handler. Lets tests hold a worker at a known point to make the
  /// coalescing / backpressure / drain windows deterministic. Leave unset
  /// in production.
  std::function<void(const std::string& op)> before_dispatch;
};

/// One endpoint's request counts (the `stats` reply's per-endpoint fields).
struct EndpointCounts {
  std::uint64_t requests = 0;    ///< accepted for this endpoint
  std::uint64_t ok = 0;          ///< ok replies, however they were served
  std::uint64_t errors = 0;      ///< handler errors
  std::uint64_t cache_hits = 0;  ///< ok replies from the LRU
  std::uint64_t disk_hits = 0;   ///< ok replies from the disk tier
  std::uint64_t coalesced = 0;   ///< requests that rode an in-flight twin
  std::uint64_t overloaded = 0;  ///< refused with `overloaded`
};

class AnalysisService {
 public:
  using ReplyFn = std::function<void(std::string reply)>;

  explicit AnalysisService(ServiceConfig config = {});
  /// Destruction shuts down and drains (no deadline).
  ~AnalysisService();

  AnalysisService(const AnalysisService&) = delete;
  AnalysisService& operator=(const AnalysisService&) = delete;

  /// Handle one request line. `reply` fires exactly once with the full
  /// reply line (no trailing newline). Parse errors, LRU cache hits,
  /// overload and shutdown replies fire synchronously on this thread;
  /// computed and disk-served answers fire later on a worker thread.
  void submit(const std::string& line, ReplyFn reply);

  /// Synchronous convenience for tests and in-process callers: submit and
  /// wait for the reply.
  std::string handle(const std::string& line);

  /// Stop intake and wait for queued + running jobs to finish, then join
  /// the workers. Idempotent.
  void shutdown();

  /// Deadline variant: true when fully drained in time; false when the
  /// deadline passed first (workers are detached — service state is
  /// shared-pointer-held, so late completions stay safe, but their replies
  /// may never be delivered).
  bool shutdown(std::chrono::milliseconds deadline);

  /// Counts of endpoint `op` (an analysis or session op), safe to read
  /// mid-flight: every outcome count is read before `requests`, so none
  /// exceeds it. Control ops are never counted.
  EndpointCounts counts(std::string_view op) const;

  /// One-line JSON stats snapshot (the `stats` endpoint's payload):
  /// per-endpoint request/ok/error/cache/coalesce counts and latency
  /// percentiles in microseconds, in endpoint-table order.
  std::string stats_json() const;

  const ServiceConfig& config() const { return config_; }

 private:
  struct State;
  void worker_loop(std::shared_ptr<State> state);

  ServiceConfig config_;
  std::shared_ptr<State> state_;
  std::vector<std::thread> workers_;
};

}  // namespace pap::serve
