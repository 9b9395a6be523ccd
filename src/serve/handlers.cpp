#include "serve/handlers.hpp"

#include <cmath>

#include "core/admission.hpp"
#include "dram/timing.hpp"
#include "dram/wcd.hpp"
#include "nc/arrival.hpp"
#include "nc/bounds.hpp"
#include "nc/service.hpp"
#include "noc/topology.hpp"
#include "platform/scenario.hpp"
#include "rm/rate_table.hpp"
#include "scenario/run.hpp"
#include "scenario/scenario.hpp"
#include "serve/endpoints.hpp"
#include "serve/param_reader.hpp"

namespace pap::serve {

HandlerOutcome dispatch(const std::string& op, const exp::Params& params,
                        const HandlerLimits& limits) {
  const Endpoint* e = find_endpoint(op);
  if (!e || e->kind != EndpointKind::kAnalysis) {
    return bad("unknown op '" + op + "'");
  }
  return e->analysis(params, limits);
}

HandlerOutcome handle_admission_check(const exp::Params& params,
                                      const HandlerLimits& limits) {
  ParamReader r(params);
  const int cols = static_cast<int>(
      r.get_int("mesh_cols", 4, 2, limits.max_mesh_dim));
  const int rows = static_cast<int>(
      r.get_int("mesh_rows", 4, 2, limits.max_mesh_dim));
  const double budget_gbps =
      r.get_double("noc_budget_gbps", 64.0, 0.001, 1e6);
  const double burst_packets = r.get_double("burst_packets", 4.0, 0.0, 1e6);
  const int n_apps = r.count_indexed("apps", limits.max_apps);
  if (n_apps == 0) return bad("admission_check needs at least one apps.0.*");

  core::PlatformModel model;
  model.noc.cols = cols;
  model.noc.rows = rows;
  noc::Mesh2D mesh(cols, rows);

  std::vector<core::AppRequirement> apps;
  std::vector<rm::AppQos> qos;
  for (int i = 0; i < n_apps; ++i) {
    const std::string k = "apps." + std::to_string(i) + ".";
    core::AppRequirement a;
    a.app = static_cast<noc::AppId>(i + 1);
    a.name = "app" + std::to_string(a.app);
    a.traffic.burst = r.get_double(k + "burst", 1.0, 0.0, 1e6);
    r.require(k + "rate");
    a.traffic.rate = r.get_double(k + "rate", 0.0, 0.0, 1e6);
    const int sx = static_cast<int>(r.get_int(k + "src_x", 0, 0, cols - 1));
    const int sy = static_cast<int>(r.get_int(k + "src_y", 0, 0, rows - 1));
    const int dx =
        static_cast<int>(r.get_int(k + "dst_x", cols - 1, 0, cols - 1));
    const int dy = static_cast<int>(r.get_int(k + "dst_y", 0, 0, rows - 1));
    a.src = mesh.node(sx, sy);
    a.dst = mesh.node(dx, dy);
    a.deadline = Time::from_ns(
        r.get_double(k + "deadline_ns", 2000.0, 0.001, 1e9));
    a.uses_dram = r.get_bool(k + "uses_dram", false);
    const bool critical = r.get_bool(k + "critical", true);
    if (critical) a.asil = sched::Asil::kC;
    apps.push_back(a);
    qos.push_back(rm::AppQos{
        a.app, critical,
        Rate::bits_per_sec(a.traffic.rate * 1e9 * 8.0 * 64.0)});
  }
  r.finish();
  if (r.failed()) return bad(r.error());

  // Rate-table feasibility: can the RM even program the requested
  // guarantees into a non-symmetric mode table?
  auto table = rm::RateTable::non_symmetric(Rate::gbps(budget_gbps), 64,
                                            burst_packets, qos);

  // Admission: apps are offered in index order; each decision is taken
  // with everything previously admitted still in place. The incremental
  // engine re-proves only each decision's dirty component; its grants,
  // bounds and rejection text are those of the batch oracle.
  core::AdmissionController ac(model, core::AdmissionEngine::kIncremental);
  exp::Result out("admission_check");
  int admitted = 0;
  for (const auto& a : apps) {
    const std::string k = a.name;
    const auto grant = ac.request(a);
    if (grant) {
      ++admitted;
      out.add(k + ".admitted", true);
      out.add(k + ".bound", grant.value().e2e_bound);
      out.add(k + ".shaper_rate",
              exp::Value{grant.value().noc_shaper.rate, 6});
    } else {
      out.add(k + ".admitted", false);
      out.add(k + ".reason", grant.error_message());
    }
  }
  out.add("admitted", admitted);
  out.add("offered", n_apps);
  out.add("rate_table_feasible", table.has_value());
  if (!table) out.add("rate_table_error", table.error_message());
  return HandlerOutcome::success(std::move(out));
}

HandlerOutcome handle_wcd_bound(const exp::Params& params,
                                const HandlerLimits& limits) {
  ParamReader r(params);
  r.require("write_gbps");
  const double gbps = r.get_double("write_gbps", 0.0, 0.0, 1e4);
  const int n = static_cast<int>(
      r.get_int("n", 13, 1, limits.max_queue_position));
  const double burst = r.get_double("burst_requests", 8.0, 0.0, 1e6);
  dram::ControllerConfig ctrl;
  ctrl.n_cap(static_cast<int>(r.get_int("n_cap", 16, 0, 4096)))
      .w_high(static_cast<int>(r.get_int("w_high", 55, 0, 1 << 20)))
      .w_low(static_cast<int>(r.get_int("w_low", 28, 0, 1 << 20)))
      .n_wd(static_cast<int>(r.get_int("n_wd", 16, 1, 1 << 20)))
      .banks(static_cast<int>(r.get_int("banks", 1, 1, 64)));
  const std::string policy = r.get_string("page_policy", "open");
  const std::string sched_policy = r.get_string("dram.policy", "frfcfs");
  const std::string device = r.get_string("dram.device", "ddr3_1600");
  r.finish();
  if (r.failed()) return bad(r.error());
  if (policy == "closed") {
    ctrl.page_policy(dram::PagePolicy::kClosedPage);
  } else if (policy != "open") {
    return bad("'page_policy' must be \"open\" or \"closed\"");
  }
  const auto kind = dram::parse_policy(sched_policy);
  if (!kind) return bad(kind.error_message());
  if (!dram::WcdAnalysis::analyzable(kind.value())) {
    return bad("no analytic WCD bound for policy '" + sched_policy + "'");
  }
  ctrl.policy(kind.value());
  const auto timings = dram::device_by_name(device);
  if (!timings) return bad(timings.error_message());
  const auto built = ctrl.build();
  if (!built) return bad("invalid controller parameters: " +
                         built.error_message());

  // Identical construction to dram::table2_row (bench/table2_wcd_bounds):
  // with the defaults (burst_requests=8, FR-FCFS, ddr3_1600) the reply is
  // byte-identical to the offline row.
  const auto bucket = nc::TokenBucket::from_rate(Rate::gbps(gbps),
                                                 kCacheLineBytes, burst);
  dram::WcdAnalysis analysis(timings.value(), built.value(), bucket);
  const auto b = analysis.bounds(n);

  exp::Result out("wcd_bound");
  out.add("lower", b.lower)
      .add("upper", b.upper)
      .add("gap", b.upper - b.lower)
      .add("iterations_lower", b.iterations_lower)
      .add("iterations_upper", b.iterations_upper)
      .add("converged", b.converged)
      .add("interference_utilization",
           exp::Value{analysis.interference_utilization(), 6});
  return HandlerOutcome::success(std::move(out));
}

HandlerOutcome handle_nc_delay(const exp::Params& params,
                               const HandlerLimits& limits) {
  (void)limits;
  ParamReader r(params);
  r.require("arrival.rate");
  const double a_burst = r.get_double("arrival.burst", 0.0, 0.0, 1e9);
  const double a_rate = r.get_double("arrival.rate", 0.0, 0.0, 1e9);
  r.require("service.rate");
  const double s_rate = r.get_double("service.rate", 0.0, 0.0, 1e9);
  const double s_latency = r.get_double("service.latency_ns", 0.0, 0.0, 1e12);
  r.finish();
  if (r.failed()) return bad(r.error());
  if (s_rate <= 0.0) return bad("'service.rate' must be positive");

  const nc::Curve alpha = nc::TokenBucket{a_burst, a_rate}.to_curve();
  const nc::Curve beta = nc::RateLatency{s_rate, s_latency}.to_curve();
  const auto delay = nc::delay_bound(alpha, beta);
  const auto backlog = nc::backlog_bound(alpha, beta);

  exp::Result out("nc_delay");
  out.add("bounded", delay.has_value() && backlog.has_value());
  if (delay) out.add("delay", *delay);
  if (backlog) out.add("backlog", exp::Value{*backlog, 6});
  return HandlerOutcome::success(std::move(out));
}

namespace {

/// The inline-text flavour of scenario_sim: the request ships a `.pap`
/// scenario source instead of individual knobs. Parse errors come back as
/// typed kBadRequest answers carrying the parser's line/column position.
HandlerOutcome scenario_sim_from_text(const exp::Params& params,
                                      const HandlerLimits& limits) {
  ParamReader r(params);
  const std::string text = r.get_string("scenario", "");
  r.finish();  // `scenario` is exclusive: no knob params alongside it
  if (r.failed()) return bad(r.error());
  if (text.size() > limits.max_scenario_text) {
    return bad("scenario text exceeds " +
               std::to_string(limits.max_scenario_text) + " bytes");
  }
  auto parsed = scenario::parse_scenario(text);
  if (!parsed) return bad(parsed.error_message());
  const scenario::Scenario& s = parsed.value();

  // Request-size bounds, mirroring the knob flavour's caps.
  switch (s.kind) {
    case scenario::Kind::kSoc: {
      if (s.soc.sim_time > limits.max_sim_time) {
        return bad("sim_time " + s.soc.sim_time.to_string() + " exceeds the " +
                   limits.max_sim_time.to_string() + " serving cap");
      }
      // A pure handler must not touch the filesystem: a served scenario
      // cannot reference trace files (inline knob scenarios only).
      for (const platform::MasterSpec& m : s.soc.masters) {
        if (m.kind == platform::MasterSpec::Kind::kTraceReplay) {
          return bad("master '" + m.name +
                     "': trace masters are not allowed in served scenarios");
        }
      }
      break;
    }
    case scenario::Kind::kDram:
      if (s.dram.sim_time > limits.max_sim_time) {
        return bad("sim_time " + s.dram.sim_time.to_string() +
                   " exceeds the " + limits.max_sim_time.to_string() +
                   " serving cap");
      }
      break;
    case scenario::Kind::kAdmission:
      if (static_cast<int>(s.admission.apps.size()) > limits.max_apps) {
        return bad("scenario has " +
                   std::to_string(s.admission.apps.size()) +
                   " apps, serving cap is " + std::to_string(limits.max_apps));
      }
      if (s.admission.mesh_cols > limits.max_mesh_dim ||
          s.admission.mesh_rows > limits.max_mesh_dim) {
        return bad("mesh exceeds the " + std::to_string(limits.max_mesh_dim) +
                   "-node serving cap per side");
      }
      break;
  }

  auto res = scenario::run_parsed(s);
  if (!res) return bad(res.error_message());
  return HandlerOutcome::success(std::move(res).value());
}

}  // namespace

HandlerOutcome handle_scenario_sim(const exp::Params& params,
                                   const HandlerLimits& limits) {
  if (params.find("scenario") != nullptr) {
    return scenario_sim_from_text(params, limits);
  }
  ParamReader r(params);
  const int hogs = static_cast<int>(r.get_int("hogs", 3, 0, 63));
  const double sim_us = r.get_double("sim_time_us", 500.0, 1.0,
                                     limits.max_sim_time.micros());
  // Initializers run in order, so the keys are read (and the first bad
  // one reported) in field order.
  platform::ScenarioConfig config{
      .hogs = hogs,
      .dsu_partitioning = r.get_bool("dsu_partitioning", false),
      .memguard = r.get_bool("memguard", false),
      .mpam_bw = r.get_bool("mpam_bw", false),
      .stop_the_world = r.get_bool("stop_the_world", false),
      .hog_budget_per_period = static_cast<std::uint64_t>(
          r.get_int("hog_budget", 20, 1, 1 << 20)),
      .memguard_period = Time::from_ns(
          r.get_double("memguard_period_us", 10.0, 0.1, 1e6) * 1000.0),
      .sim_time = Time::from_ns(sim_us * 1000.0),
      .rt_reads_per_batch =
          static_cast<int>(r.get_int("rt_reads_per_batch", 32, 1, 1 << 16)),
      .rt_period = Time::from_ns(
          r.get_double("rt_period_us", 10.0, 0.1, 1e6) * 1000.0),
      .rt_working_set = static_cast<std::uint64_t>(
          r.get_int("rt_working_set", 64 * 1024, 64, 1 << 28)),
      .dram_device = r.get_string("dram.device", "ddr3_1600")};
  const std::string sched_policy = r.get_string("dram.policy", "frfcfs");
  r.finish();
  if (r.failed()) return bad(r.error());
  const auto kind = dram::parse_policy(sched_policy);
  if (!kind) return bad(kind.error_message());
  config.dram_policy = kind.value();

  auto res = platform::run_scenario(config, "scenario_sim");
  if (!res) return bad(res.error_message());
  const platform::ScenarioResult& s = res.value();

  exp::Result out("scenario_sim");
  const bool has_rt = !s.rt_latency.empty();
  out.add("rt_accesses", static_cast<std::int64_t>(s.rt_latency.count()))
      .add("rt_p50", has_rt ? s.rt_latency.percentile(50) : Time::zero())
      .add("rt_p99", has_rt ? s.rt_latency.percentile(99) : Time::zero())
      .add("rt_max", has_rt ? s.rt_latency.max() : Time::zero())
      .add("batches", static_cast<std::int64_t>(s.rt_batch.count()))
      .add("hog_accesses", s.hog_accesses)
      .add("memguard_throttles", s.memguard_throttles)
      .add("mpam_throttles", s.mpam_throttles);
  return HandlerOutcome::success(std::move(out));
}

}  // namespace pap::serve
