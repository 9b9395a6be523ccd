// Stateful admission sessions: the serving-side face of the incremental
// admission engine (docs/admission.md).
//
// The stateless endpoints re-prove a whole flow set per request; an
// admission *session* keeps one core::AdmissionController resident between
// requests, so each admit/release pays only the engine's dirty-set work —
// the serving shape for the paper's resource-manager loop, where clients
// arrive and leave one at a time against standing platform state.
//
// Session ops are deliberately OUTSIDE the service's cache/coalescing
// machinery: two byte-identical `admission_admit` requests are *different*
// decisions (the second is a duplicate rejection), so their replies must
// never be coalesced, cached in the LRU, or persisted to the disk tier.
// Their rows in the endpoint table (serve/endpoints.hpp) say so, and the
// service routes them straight to the worker pool (serve/service.cpp).
//
// Concurrency: the registry serializes ops per session (one mutex per
// session), so concurrent admits are atomic but their order is whatever
// the worker pool runs first. Clients that need a deterministic decision
// sequence — pap_loadgen --churn, the CI determinism job — pipeline
// depth-1 against one session, making the order client-driven.
//
// Determinism: session ids are assigned 1, 2, 3, … in open order, every
// reply is a pure function of the session history, and `admission_stats`
// reports only decision counters (no wall-clock), so a replayed request
// sequence produces byte-identical replies across runs and across
// single-worker vs multi-worker daemons.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "core/admission.hpp"
#include "serve/handlers.hpp"

namespace pap::serve {

class ParamReader;

/// Registry of open admission sessions; owned by the AnalysisService state
/// and shared by its workers.
class SessionRegistry {
 public:
  explicit SessionRegistry(HandlerLimits limits) : limits_(limits) {}

  // The session ops, each a row of the endpoint table (endpoints.hpp).
  // Thread-safe; ops on the same session serialize on its mutex.
  HandlerOutcome open(const exp::Params& params);
  HandlerOutcome admit(const exp::Params& params);
  HandlerOutcome release(const exp::Params& params);
  HandlerOutcome stats(const exp::Params& params);
  HandlerOutcome close(const exp::Params& params);

  std::size_t open_sessions() const;

 private:
  struct Session {
    std::mutex mu;
    core::AdmissionController controller;
    std::uint64_t decisions = 0;  // admit + release calls
    bool closed = false;  // set by admission_close, under `mu`

    Session(core::PlatformModel model, core::AdmissionEngine engine)
        : controller(std::move(model), engine) {}
  };

  /// An open session with its mutex held.
  struct Locked {
    std::shared_ptr<Session> session;
    /// Declared after `session`, so it unlocks before the last reference
    /// to the session (and its mutex) can go.
    std::unique_lock<std::mutex> lock;
  };
  /// Session `id`, locked; a null session when the id is unknown or a
  /// close locked the session first.
  Locked acquire(std::int64_t id) const;

  /// The prologue of every op on an open session: reads `session` first,
  /// so its errors win; `read(reader)` reads the op's own keys and returns
  /// any error of its own, reported only when no key is bad or unknown;
  /// then locks the session and returns `op(session, id)`. A missing or
  /// closed session is refused last.
  template <typename Read, typename Op>
  HandlerOutcome on_session(const exp::Params& params, Read read, Op op);

  HandlerLimits limits_;
  mutable std::mutex mu_;
  std::map<std::int64_t, std::shared_ptr<Session>> sessions_;
  std::int64_t next_id_ = 1;
};

}  // namespace pap::serve
