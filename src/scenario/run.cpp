#include "scenario/run.hpp"

#include <utility>

#include "core/admission.hpp"
#include "dram/controller.hpp"
#include "dram/timing.hpp"
#include "dram/traffic.hpp"
#include "rm/manager.hpp"
#include "sim/kernel.hpp"

namespace pap::scenario {

namespace {

using RE = Expected<exp::Result>;

Time p_or_zero(const LatencyHistogram& h, double p) {
  return h.empty() ? Time::zero() : h.percentile(p);
}

RE run_soc(const Scenario& s, const RunOptions& opts) {
  auto run = platform::run_scenario(s.soc, s.name, opts.tracer,
                                    opts.record_trace);
  if (!run) return RE::error(run.error_message());
  const platform::ScenarioResult& r = run.value();
  exp::Result out(s.name);
  out.set("rt_accesses", static_cast<std::int64_t>(r.rt_latency.count()))
      .set("rt_p50", p_or_zero(r.rt_latency, 50))
      .set("rt_p99", p_or_zero(r.rt_latency, 99))
      .set("rt_max", r.rt_latency.empty() ? Time::zero() : r.rt_latency.max())
      .set("batches", static_cast<std::int64_t>(r.rt_batch.count()))
      .set("hog_accesses", r.hog_accesses)
      .set("trace_accesses", r.trace_accesses)
      .set("memguard_throttles", r.memguard_throttles)
      .set("mpam_throttles", r.mpam_throttles);
  return out;
}

RE run_dram(const Scenario& s, const RunOptions& opts) {
  const DramScenario& d = s.dram;
  const auto dev = dram::device_by_name(d.device);
  if (!dev) return RE::error("device: " + dev.error_message());
  sim::Kernel kernel;
  kernel.set_tracer(opts.tracer);
  dram::Controller c(kernel, dev.value(),
                     dram::ControllerConfig{}
                         .watermarks(d.w_high, d.w_low)
                         .n_wd(d.n_wd)
                         .banks(d.banks));
  dram::PeriodicReadSource reads(kernel, c, d.read_period, d.read_bank,
                                 d.read_stride, 1);
  dram::ShapedWriteSource writes(
      kernel, c,
      nc::TokenBucket::from_rate(Rate::gbps(d.write_rate_gbps), 64,
                                 d.write_burst),
      d.write_bank, 2);
  reads.start();
  writes.start();
  kernel.run(d.sim_time);
  reads.stop();
  writes.stop();
  exp::Result out(s.name);
  out.set("read_p99", p_or_zero(c.read_latency(), 99))
      .set("write_p99", p_or_zero(c.write_latency(), 99))
      .set("write_batches", c.counters().get("switches_to_write"));
  return out;
}

RE run_admission(const Scenario& s, const RunOptions& opts) {
  const AdmissionScenario& a = s.admission;
  core::PlatformModel model;
  model.noc.cols = a.mesh_cols;
  model.noc.rows = a.mesh_rows;
  core::AdmissionController ac(model, core::AdmissionEngine::kIncremental);
  noc::Mesh2D mesh(a.mesh_cols, a.mesh_rows);

  std::vector<core::AppRequirement> requests;
  for (const AdmissionApp& app : a.apps) {
    core::AppRequirement r;
    r.app = static_cast<noc::AppId>(app.id);
    r.name = "app" + std::to_string(app.id);
    r.traffic = nc::TokenBucket{app.burst, app.rate};
    r.src = mesh.node(app.src_x, app.src_y);
    r.dst = mesh.node(app.dst_x, app.dst_y);
    r.deadline = app.deadline;
    r.uses_dram = app.uses_dram;
    requests.push_back(std::move(r));
  }

  std::vector<core::AppRequirement> admitted;
  for (const auto& r : requests) {
    if (ac.request(r)) admitted.push_back(r);
  }

  // Simulate the admitted mix through RM-programmed clients (or, with
  // `enforce off`, the same apps misbehaving 4x past their contract and
  // bypassing the clients) — the Fig. 6 execution.
  std::vector<std::pair<noc::AppId, Time>> p99s;
  if (!admitted.empty()) {
    sim::Kernel kernel;
    kernel.set_tracer(opts.tracer);
    noc::Network net(kernel, model.noc);
    std::vector<rm::AppQos> qos;
    for (const auto& r : admitted) {
      qos.push_back(rm::AppQos{
          r.app, true, Rate::bits_per_sec(r.traffic.rate * 1e9 * 8 * 64)});
    }
    auto table = rm::RateTable::non_symmetric(Rate::gbps(a.link_rate_gbps),
                                              64, a.burst_factor, qos);
    if (!table) return RE::error("link_rate_gbps: " + table.error_message());
    rm::ResourceManager manager(kernel, net, a.rm_node,
                                std::move(table).value());
    std::vector<rm::Client*> clients;
    for (const auto& r : admitted) {
      clients.push_back(manager.add_client(r.src, r.app));
    }
    for (std::size_t i = 0; i < admitted.size(); ++i) {
      const auto& r = admitted[i];
      const double per_ns =
          a.enforce ? 1.0 / r.traffic.rate : 0.25 / r.traffic.rate;
      for (int p = 0; p < a.packets; ++p) {
        kernel.schedule_at(
            Time::from_ns(per_ns * p),
            [&net, &r, c = clients[i], p, enforce = a.enforce] {
              noc::Packet pkt;
              pkt.id = static_cast<std::uint64_t>(p);
              pkt.src = r.src;
              pkt.dst = r.dst;
              pkt.app = r.app;
              if (enforce) {
                c->send(pkt);
              } else {
                net.send(pkt);
              }
            });
      }
    }
    kernel.run();
    for (const auto& r : admitted) {
      p99s.emplace_back(r.app, p_or_zero(net.latency_of_app(r.app), 99));
    }
  }

  exp::Result out(s.name);
  out.set("admitted", static_cast<std::int64_t>(admitted.size()));
  for (const auto& r : requests) {
    const auto bound = ac.current_bound(r.app);
    Time p99 = Time::zero();
    for (const auto& [app, t] : p99s) {
      if (app == r.app) p99 = t;
    }
    const std::string n = std::to_string(r.app);
    out.set("admit_app" + n, bound.has_value())
        .set("bound_app" + n, bound ? *bound : Time::zero())
        .set("p99_app" + n, p99);
  }
  return out;
}

}  // namespace

Expected<exp::Result> run_parsed(const Scenario& s, const RunOptions& opts) {
  switch (s.kind) {
    case Kind::kSoc: return run_soc(s, opts);
    case Kind::kDram: {
      if (const Status st = s.dram.validate(); !st.is_ok()) {
        return RE::error(st.message());
      }
      return run_dram(s, opts);
    }
    case Kind::kAdmission: {
      if (const Status st = s.admission.validate(); !st.is_ok()) {
        return RE::error(st.message());
      }
      return run_admission(s, opts);
    }
  }
  return RE::error("unknown scenario kind");
}

exp::Experiment family_experiment() {
  exp::Experiment e;
  e.name = "scenario_family";
  e.run_traced = [](const exp::Params& p, trace::Tracer* tracer) {
    const std::string family = p.get_string("family");
    const auto seed = static_cast<std::uint64_t>(p.get_int("seed"));
    const int index = static_cast<int>(p.get_int("index"));
    auto scn = generate_scenario(family, seed, index);
    if (!scn) {
      exp::Result out(p.label());
      out.set("error", scn.error_message());
      return out;
    }
    RunOptions opts;
    opts.tracer = tracer;
    auto result = run_parsed(scn.value(), opts);
    if (!result) {
      exp::Result out(scn.value().name);
      out.set("error", result.error_message());
      return out;
    }
    return std::move(result).value();
  };
  return e;
}

Expected<exp::Sweep> family_sweep(const FamilySpec& spec) {
  exp::SweepBuilder b;
  for (int i = 0; i < spec.count; ++i) {
    b.point(exp::Params{}
                .set("family", spec.family)
                .set("seed", spec.seed)
                .set("index", i));
  }
  return b.build();
}

}  // namespace pap::scenario
