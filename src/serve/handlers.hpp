// Endpoint handlers: map a parsed request onto the offline analysis
// engines and render the answer as an exp::Result.
//
// Every handler is a pure function of its parameters — no hidden state, no
// wall-clock, no RNG — so the service layer may cache and coalesce calls
// freely, and a served answer is byte-identical to the offline bench that
// wraps the same engine (the serving_throughput bench asserts this for
// wcd_bound vs bench/table2_wcd_bounds). Parameter validation is strict:
// unknown keys, wrong kinds and out-of-range values are kBadRequest
// errors, never silently defaulted — a typo'd key must not produce a
// confidently wrong answer under a fresh cache key.
#pragma once

#include <string>

#include "common/status.hpp"
#include "common/time.hpp"
#include "exp/experiment.hpp"
#include "serve/protocol.hpp"

namespace pap::serve {

/// Static bounds the handlers enforce on request size; they keep a single
/// request's work bounded (the "bounded platform::Scenario runs" of the
/// scenario_sim endpoint).
struct HandlerLimits {
  Time max_sim_time = Time::ms(20);  ///< scenario_sim cap
  int max_apps = 32;                 ///< admission_check app list cap
  int max_queue_position = 256;      ///< wcd_bound / nc service depth cap
  int max_mesh_dim = 16;             ///< admission_check mesh side cap
  /// Cap on the inline `scenario` text of scenario_sim (the `.pap` source
  /// shipped in the request; docs/scenarios.md).
  std::size_t max_scenario_text = 16 * 1024;
  /// Stateful admission sessions (serve/sessions.hpp): concurrently open
  /// sessions per daemon, and resident flows per session. The flow cap
  /// bounds session memory, not per-decision work — the incremental engine
  /// keeps each decision's cost proportional to its dirty set.
  int max_sessions = 8;
  int max_session_flows = 1 << 20;
};

/// A handler outcome: either a Result to render, or (code, message).
struct HandlerError {
  ErrorCode code = ErrorCode::kBadRequest;
  std::string message;
};

struct HandlerOutcome {
  bool ok = false;
  exp::Result result;     // when ok
  HandlerError error;     // when !ok
  static HandlerOutcome success(exp::Result r) {
    HandlerOutcome o;
    o.ok = true;
    o.result = std::move(r);
    return o;
  }
  static HandlerOutcome fail(ErrorCode code, std::string msg) {
    HandlerOutcome o;
    o.error = HandlerError{code, std::move(msg)};
    return o;
  }
};

/// The kBadRequest outcome every handler gives malformed parameters.
inline HandlerOutcome bad(std::string msg) {
  return HandlerOutcome::fail(ErrorCode::kBadRequest, std::move(msg));
}

/// Dispatch an analysis request through the endpoint table
/// (endpoints.hpp); an op that is not an analysis op is a bad_request.
/// Never crashes on bad parameters; every failure comes back as a
/// HandlerOutcome error.
HandlerOutcome dispatch(const std::string& op, const exp::Params& params,
                        const HandlerLimits& limits);

// Individual endpoints (rows of the endpoint table; exposed for unit tests).
HandlerOutcome handle_admission_check(const exp::Params& params,
                                      const HandlerLimits& limits);
HandlerOutcome handle_wcd_bound(const exp::Params& params,
                                const HandlerLimits& limits);
HandlerOutcome handle_nc_delay(const exp::Params& params,
                               const HandlerLimits& limits);
HandlerOutcome handle_scenario_sim(const exp::Params& params,
                                   const HandlerLimits& limits);

}  // namespace pap::serve
