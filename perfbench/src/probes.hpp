// Per-layer probes shared by the papd workloads' traced runs: the stage
// split of core::E2eAnalysis::e2e_bounds_into through its public slice API
// (flat_paths, propagate_flat, chain_view_for, dram_service_from), the DRAM
// service-curve probe, papd's cache counters, and the in-process service
// call.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "bench.hpp"
#include "core/e2e_analysis.hpp"
#include "serve/service.hpp"

namespace perfbench {

/// AnalysisService::submit, then poll for the reply instead of sleeping on
/// a condition variable (see LineConn), so the figure is the service's own
/// submit -> reply time.
std::string submit_and_poll(pap::serve::AnalysisService& service,
                            const std::string& line);

struct StageSpans {
  int pass, flat_paths, propagate, chain, dram_from, deviation, service_curve;
  explicit StageSpans(Spans& s);
};

/// One e2e_bounds_into pass rebuilt stage by stage, each stage in its own
/// span under a `core.stages` span. False when any bound differs from
/// `reference` (the one-call result) — the split must measure the same
/// computation, not an approximation of it.
bool staged_e2e_pass(const pap::core::E2eAnalysis& analysis,
                     const std::vector<pap::core::AppRequirement>& flows,
                     const std::vector<std::optional<pap::Time>>& reference,
                     Spans& spans, const StageSpans& ids);

/// Time dram::WcdAnalysis::service_curve_view once per DRAM flow of
/// `flows`, with the write bucket the analysis builds for that flow.
void probe_service_curves(const pap::core::PlatformModel& model,
                          const std::vector<pap::core::AppRequirement>& flows,
                          Spans& spans, const StageSpans& ids);

/// `core.<stage>.us` (mean per staged pass) for every stage.
void report_stage_split(const SpanTable& table, Report& report);

/// LRU-hit and coalesced shares of all requests papd counted, from the
/// reply of its `stats` endpoint. False when the reply does not parse.
bool cache_ratios(const std::string& stats_reply, double* lru_hit_ratio,
                  double* coalesced_ratio);

}  // namespace perfbench
