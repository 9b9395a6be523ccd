// The papd endpoint table: every op the daemon answers, declared once as
// a row of name, kind and handler. Request validation, both dispatch paths
// (serve::dispatch and the service's workers), caching and coalescing, the
// stats slots (indexed by row) and the `stats` reply's order follow from
// the rows. The kind says how the service treats the op:
//   * kControl  — answered inline, even under overload or during drain;
//   * kAnalysis — a pure function of its parameters: cached (LRU and disk
//                 tier), and identical in-flight requests coalesce;
//   * kSession  — a decision against a standing admission session: never
//                 cached, coalesced or persisted.
// Adding an endpoint is one row here plus its handler (docs/serving.md).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "serve/handlers.hpp"
#include "serve/service.hpp"
#include "serve/sessions.hpp"

namespace pap::serve {

enum class EndpointKind : std::uint8_t { kControl, kAnalysis, kSession };

struct Endpoint {
  /// The reply payload of a control op.
  using Control = std::string (*)(const AnalysisService&);
  using Analysis = HandlerOutcome (*)(const exp::Params&,
                                      const HandlerLimits&);
  using Session = HandlerOutcome (SessionRegistry::*)(const exp::Params&);

  std::string_view op;
  EndpointKind kind;
  /// The handler of the row's kind; the other two stay null.
  Control control = nullptr;
  Analysis analysis = nullptr;
  Session session = nullptr;
};

constexpr Endpoint control_endpoint(std::string_view op, Endpoint::Control h) {
  return {op, EndpointKind::kControl, h, nullptr, nullptr};
}
constexpr Endpoint analysis_endpoint(std::string_view op,
                                     Endpoint::Analysis h) {
  return {op, EndpointKind::kAnalysis, nullptr, h, nullptr};
}
constexpr Endpoint session_endpoint(std::string_view op, Endpoint::Session h) {
  return {op, EndpointKind::kSession, nullptr, nullptr, h};
}

/// Every papd op. The `stats` reply lists the non-control rows in order.
inline constexpr Endpoint kEndpoints[] = {
    control_endpoint("ping",
                     [](const AnalysisService&) {
                       return std::string(R"({"label":"pong","metrics":{}})");
                     }),
    control_endpoint(
        "stats", [](const AnalysisService& s) { return s.stats_json(); }),
    analysis_endpoint("admission_check", handle_admission_check),
    analysis_endpoint("wcd_bound", handle_wcd_bound),
    analysis_endpoint("nc_delay", handle_nc_delay),
    analysis_endpoint("scenario_sim", handle_scenario_sim),
    session_endpoint("admission_open", &SessionRegistry::open),
    session_endpoint("admission_admit", &SessionRegistry::admit),
    session_endpoint("admission_release", &SessionRegistry::release),
    session_endpoint("admission_stats", &SessionRegistry::stats),
    session_endpoint("admission_close", &SessionRegistry::close),
};

/// The row of `op`; nullptr when papd has no such op.
inline const Endpoint* find_endpoint(std::string_view op) {
  for (const Endpoint& e : kEndpoints) {
    if (e.op == op) return &e;
  }
  return nullptr;
}

}  // namespace pap::serve
