#include "probes.hpp"

#include <sched.h>

#include <atomic>

#include "dram/wcd.hpp"
#include "nc/batch.hpp"
#include "serve/json.hpp"

namespace perfbench {

namespace {

constexpr const char* kStages[] = {"flat_paths", "propagate_flat",
                                   "chain_view_for", "dram_service_from",
                                   "deviation"};

}  // namespace

std::string submit_and_poll(pap::serve::AnalysisService& service,
                            const std::string& line) {
  std::atomic<bool> done{false};
  std::string reply;
  // The callback fires exactly once, on a worker or on this thread; this
  // frame outlives it because we wait for `done` below.
  service.submit(line, [&](std::string r) {
    reply = std::move(r);
    done.store(true, std::memory_order_release);
  });
  while (!done.load(std::memory_order_acquire)) ::sched_yield();
  return reply;
}

StageSpans::StageSpans(Spans& s)
    : pass(s.intern("core.stages")),
      flat_paths(s.intern("core.flat_paths")),
      propagate(s.intern("core.propagate_flat")),
      chain(s.intern("core.chain_view_for")),
      dram_from(s.intern("core.dram_service_from")),
      deviation(s.intern("core.deviation")),
      service_curve(s.intern("dram.service_curve")) {}

bool staged_e2e_pass(const pap::core::E2eAnalysis& analysis,
                     const std::vector<pap::core::AppRequirement>& flows,
                     const std::vector<std::optional<pap::Time>>& reference,
                     Spans& spans, const StageSpans& ids) {
  using namespace pap;
  nc::Arena& arena = nc::thread_arena();
  arena.reset();
  std::vector<std::optional<Time>> out(flows.size());
  auto pass = spans.scope(ids.pass);
  core::E2eAnalysis::FlatPaths paths;
  {
    auto s = spans.scope(ids.flat_paths);
    paths = analysis.flat_paths(flows, arena);
  }
  core::E2eAnalysis::PropagatedFlat prop;
  {
    auto s = spans.scope(ids.propagate);
    prop = analysis.propagate_flat(flows, paths, arena);
  }
  // The DRAM flows in set order: the order e2e_bounds_into sums them in.
  std::vector<const core::AppRequirement*> dram_flows;
  for (const auto& f : flows) {
    if (f.uses_dram) dram_flows.push_back(&f);
  }
  for (std::size_t i = 0; prop.converged && i < flows.size(); ++i) {
    if (prop.flow_unbounded[i]) continue;
    std::optional<nc::CurveView> chain;
    {
      auto s = spans.scope(ids.chain);
      chain = analysis.chain_view_for(flows, i, prop, paths, arena);
    }
    if (!chain) continue;
    nc::CurveView service = *chain;
    if (flows[i].uses_dram) {
      nc::CurveView dram;
      {
        auto s = spans.scope(ids.dram_from);
        dram = analysis.dram_service_from(flows[i], dram_flows.data(),
                                          dram_flows.size(), arena);
      }
      auto s = spans.scope(ids.deviation);
      service = nc::convolve_view(arena, service, dram);
    }
    auto s = spans.scope(ids.deviation);
    const auto h = nc::h_deviation_view(
        nc::affine_view(arena, flows[i].traffic.burst, flows[i].traffic.rate),
        service);
    if (h) out[i] = Time::from_ns(*h);
  }
  return out == reference;
}

void probe_service_curves(const pap::core::PlatformModel& model,
                          const std::vector<pap::core::AppRequirement>& flows,
                          Spans& spans, const StageSpans& ids) {
  using namespace pap;
  for (const auto& f : flows) {
    if (!f.uses_dram) continue;
    nc::TokenBucket writes = model.background_writes;
    for (const auto& o : flows) {
      if (o.uses_dram && o.app != f.app) {
        writes.burst += o.traffic.burst;
        writes.rate += o.traffic.rate;
      }
    }
    const dram::WcdAnalysis wcd(model.dram, model.dram_ctrl, writes);
    nc::Arena& arena = nc::thread_arena();
    arena.reset();
    auto s = spans.scope(ids.service_curve);
    (void)wcd.service_curve_view(model.dram_service_depth, arena);
  }
}

void report_stage_split(const SpanTable& table, Report& report) {
  const double passes = static_cast<double>(span_count(table, "core.stages"));
  for (const char* stage : kStages) {
    const std::string name = std::string("core.") + stage;
    const auto it = table.find(name);
    const double total = it == table.end() ? 0.0 : it->second.total_us;
    report.metric(name + ".us", passes > 0 ? total / passes : 0.0, "us");
  }
}

bool cache_ratios(const std::string& stats_reply, double* lru_hit_ratio,
                  double* coalesced_ratio) {
  const auto parsed = pap::serve::json_parse(stats_reply);
  if (!parsed) return false;
  const auto* result = parsed.value().get("result");
  const auto* endpoints = result ? result->get("endpoints") : nullptr;
  if (endpoints == nullptr) return false;
  double requests = 0.0, hits = 0.0, coalesced = 0.0;
  for (const auto& [op, ep] : endpoints->object_v) {
    const auto add = [&ep](const char* name, double* total) {
      const auto* v = ep.get(name);
      if (v != nullptr && v->is_number()) *total += v->number();
    };
    add("requests", &requests);
    add("cache_hits", &hits);
    add("coalesced", &coalesced);
  }
  *lru_hit_ratio = requests > 0 ? hits / requests : 0.0;
  *coalesced_ratio = requests > 0 ? coalesced / requests : 0.0;
  return true;
}

}  // namespace perfbench
