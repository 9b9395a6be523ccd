#include "platform/scenario.hpp"

#include <algorithm>
#include <map>
#include <utility>

#include "cache/dsu.hpp"
#include "common/check.hpp"
#include "common/grammar.hpp"
#include "common/units.hpp"
#include "fault/injector.hpp"
#include "trace/tracer.hpp"

namespace pap::platform {

double ScenarioResult::inflation(const ScenarioResult& base,
                                 const ScenarioResult& loaded,
                                 double percentile) {
  const double b = base.rt_latency.percentile(percentile).nanos();
  const double l = loaded.rt_latency.percentile(percentile).nanos();
  return b > 0 ? l / b : 0.0;
}

namespace {

/// True for the built-in names "rt" and "hog<digits>" that extra masters
/// may not shadow.
bool is_builtin_master_name(const std::string& name) {
  if (name == "rt") return true;
  if (name.size() < 4 || name.compare(0, 3, "hog") != 0) return false;
  return std::all_of(name.begin() + 3, name.end(),
                     [](char c) { return c >= '0' && c <= '9'; });
}

Status validate_master(const MasterSpec& m) {
  const std::string who = "master '" + m.name + "': ";
  if (m.name.empty()) return Status::error("master name must not be empty");
  if (!is_name(m.name)) {
    return Status::error("master name '" + m.name +
                         "' must match [a-z0-9_]+");
  }
  if (is_builtin_master_name(m.name)) {
    return Status::error("master name '" + m.name +
                         "' shadows a built-in master (rt, hog<N>)");
  }
  switch (m.kind) {
    case MasterSpec::Kind::kRtReader:
      if (m.period <= Time::zero()) {
        return Status::error(who + "period must be positive, got " +
                             m.period.to_string());
      }
      if (m.reads_per_batch < 1) {
        return Status::error(who + "reads_per_batch must be >= 1, got " +
                             std::to_string(m.reads_per_batch));
      }
      if (m.working_set < kCacheLineBytes) {
        return Status::error(
            who + "working_set must cover at least one cache line (" +
            std::to_string(kCacheLineBytes) + " bytes), got " +
            std::to_string(m.working_set));
      }
      break;
    case MasterSpec::Kind::kBandwidthHog:
      if (m.working_set < kCacheLineBytes) {
        return Status::error(
            who + "working_set must cover at least one cache line (" +
            std::to_string(kCacheLineBytes) + " bytes), got " +
            std::to_string(m.working_set));
      }
      if (m.write_fraction < 0.0 || m.write_fraction > 1.0) {
        return Status::error(who + "write_fraction must be in [0, 1], got " +
                             std::to_string(m.write_fraction));
      }
      if (m.think_time < Time::zero()) {
        return Status::error(who + "think_time must be non-negative, got " +
                             m.think_time.to_string());
      }
      break;
    case MasterSpec::Kind::kTraceReplay:
      if (m.records.empty() && m.trace_path.empty()) {
        return Status::error(who +
                             "trace master needs a trace (file or records)");
      }
      if (!m.records.empty()) {
        if (const Status st = TraceMaster::validate_trace(m.records);
            !st.is_ok()) {
          return Status::error(who + st.message());
        }
      }
      break;
  }
  return Status::ok();
}

}  // namespace

Status ScenarioConfig::validate() const {
  const ScenarioConfig& k = *this;
  if (k.hogs < 0 || k.hogs > 63) {
    return Status::error("hogs must be in [0, 63], got " +
                         std::to_string(k.hogs));
  }
  if (k.sim_time <= Time::zero()) {
    return Status::error("sim_time must be positive, got " +
                         k.sim_time.to_string());
  }
  if (k.memguard_period <= Time::zero()) {
    return Status::error("memguard_period must be positive, got " +
                         k.memguard_period.to_string());
  }
  if ((k.memguard || k.mpam_bw) && k.hog_budget_per_period == 0) {
    return Status::error(
        "hog_budget_per_period must be >= 1 when memguard/mpam_bw "
        "regulation is enabled, got 0");
  }
  if (k.rt_reads_per_batch < 1) {
    return Status::error("rt_reads_per_batch must be >= 1, got " +
                         std::to_string(k.rt_reads_per_batch));
  }
  if (k.rt_period <= Time::zero()) {
    return Status::error("rt_period must be positive, got " +
                         k.rt_period.to_string());
  }
  if (k.rt_working_set < kCacheLineBytes) {
    return Status::error("rt_working_set must cover at least one cache line (" +
                         std::to_string(kCacheLineBytes) + " bytes), got " +
                         std::to_string(k.rt_working_set));
  }
  if (const auto dev = dram::device_by_name(k.dram_device); !dev) {
    return Status::error("dram_device: " + dev.error_message());
  }
  if (k.stop_the_world && !k.rt_enabled) {
    return Status::error(
        "stop_the_world requires the RT reader (rt_enabled is false)");
  }
  if (!k.rt_enabled && k.hogs == 0 && k.masters.empty()) {
    return Status::error(
        "scenario has no masters (rt_enabled is false, hogs is 0, and no "
        "extra masters are defined)");
  }
  for (const MasterSpec& m : k.masters) {
    if (const Status st = validate_master(m); !st.is_ok()) return st;
    const auto dup =
        std::count_if(k.masters.begin(), k.masters.end(),
                      [&m](const MasterSpec& o) { return o.name == m.name; });
    if (dup > 1) {
      return Status::error("master name '" + m.name + "' is not unique");
    }
  }
  for (const PhaseSpec& p : k.phases) {
    const std::string who = "phase @" + p.at.to_string() + ": ";
    if (p.at < Time::zero()) {
      return Status::error("phase time must be non-negative, got " +
                           p.at.to_string());
    }
    if (p.at > k.sim_time) {
      return Status::error(who + "phase time is after sim_time (" +
                           k.sim_time.to_string() + ")");
    }
    bool known = false;
    if (p.master == "rt") {
      if (!k.rt_enabled) {
        return Status::error(who +
                             "targets 'rt' but rt_enabled is false");
      }
      known = true;
    } else if (p.master.size() > 3 && p.master.compare(0, 3, "hog") == 0 &&
               is_builtin_master_name(p.master)) {
      int idx = 0;
      if (!parse_int(std::string_view(p.master).substr(3), 1, k.hogs, &idx)) {
        return Status::error(who + "targets '" + p.master + "' but only " +
                             std::to_string(k.hogs) + " hogs are configured");
      }
      known = true;
    } else {
      known = std::any_of(
          k.masters.begin(), k.masters.end(),
          [&p](const MasterSpec& m) { return m.name == p.master; });
    }
    if (!known) {
      return Status::error(who + "unknown master '" + p.master + "'");
    }
  }
  for (const auto& spec : k.fault_plan.specs()) {
    if (spec.kind != fault::FaultKind::kDramStall) {
      return Status::error("fault plan: '" + fault::to_string(spec.kind) +
                           "' is not injectable in a scenario (it has no "
                           "NoC or RM); only dram@T=DUR applies");
    }
  }
  return Status::ok();
}

namespace {

/// One constructed extra master; exactly one pointer is set.
struct MasterRuntime {
  std::unique_ptr<RtReader> reader;
  std::unique_ptr<BandwidthHog> hog;
  std::unique_ptr<TraceMaster> trace;
};

}  // namespace

Expected<ScenarioResult> run_scenario(const ScenarioConfig& config,
                                      std::string label,
                                      trace::Tracer* tracer,
                                      std::vector<TraceRecord>* record_trace) {
  using E = Expected<ScenarioResult>;
  if (const Status st = config.validate(); !st.is_ok()) {
    return E::error(st.message());
  }

  // Resolve trace files before constructing any simulation state, so I/O
  // errors surface as config errors rather than mid-run aborts.
  std::vector<std::vector<TraceRecord>> traces(config.masters.size());
  for (std::size_t i = 0; i < config.masters.size(); ++i) {
    const MasterSpec& m = config.masters[i];
    if (m.kind != MasterSpec::Kind::kTraceReplay) continue;
    if (!m.records.empty()) {
      traces[i] = m.records;
    } else {
      auto loaded = load_trace(m.trace_path);
      if (!loaded) {
        return E::error("master '" + m.name + "': " + loaded.error_message());
      }
      traces[i] = std::move(loaded).value();
    }
  }

  // Core plan: core 0 is the built-in RT reader, cores 1..hogs the hogs,
  // then one core per extra non-trace master; trace masters use their
  // recorded core indices, and the SoC is sized to cover them.
  std::vector<int> master_core(config.masters.size(), -1);
  int cores = 1 + config.hogs;
  for (std::size_t i = 0; i < config.masters.size(); ++i) {
    if (config.masters[i].kind == MasterSpec::Kind::kTraceReplay) continue;
    master_core[i] = cores++;
  }
  for (std::size_t i = 0; i < config.masters.size(); ++i) {
    if (config.masters[i].kind != MasterSpec::Kind::kTraceReplay) continue;
    cores = std::max(cores, TraceMaster::max_core(traces[i]) + 1);
  }

  // Criticality per core: core 0 and `critical` extra masters run under
  // the RT scheme and unregulated; everything else is a budgeted
  // interferer. Trace records promote their core when flagged critical,
  // which is how a replay reconstructs the originating world's roles.
  std::vector<bool> critical(static_cast<std::size_t>(cores), false);
  critical[0] = true;
  for (std::size_t i = 0; i < config.masters.size(); ++i) {
    if (master_core[i] >= 0 && config.masters[i].critical) {
      critical[static_cast<std::size_t>(master_core[i])] = true;
    }
  }
  for (std::size_t i = 0; i < config.masters.size(); ++i) {
    for (const TraceRecord& rec : traces[i]) {
      if (rec.criticality) critical[static_cast<std::size_t>(rec.core)] = true;
    }
  }

  sim::Kernel kernel;
  if (tracer) {
    kernel.set_tracer(tracer);
    tracer->instant("scenario", "start/" + label, "phase");
    tracer->begin("scenario", "setup", "phase");
  }
  SocConfig cfg;
  cfg.clusters = 1;
  cfg.cores_per_cluster = cores;
  cfg.dram = dram::device_by_name(config.dram_device).value();  // validated
  cfg.dram_ctrl.policy(config.dram_policy);
  Soc soc(kernel, cfg);

  constexpr cache::SchemeId kRtScheme = 1;
  constexpr cache::SchemeId kHogScheme = 0;
  for (int c = 0; c < cores; ++c) {
    soc.set_scheme_id(c, critical[static_cast<std::size_t>(c)] ? kRtScheme
                                                               : kHogScheme);
  }

  if (config.dsu_partitioning) {
    // RT scheme gets partition group 0 private; group 1 private to the
    // interferers; groups 2-3 stay unassigned (shared overflow).
    cache::GroupOwners owners{};
    owners[0] = kRtScheme;
    owners[1] = kHogScheme;
    const auto reg = cache::encode_clusterpartcr(owners);
    PAP_CHECK(soc.dsu(0).write_partition_register(reg).is_ok());
  }

  std::vector<std::uint32_t> regulated_domains;
  if (config.memguard) {
    sched::MemguardConfig mg;
    mg.period = config.memguard_period;
    auto memguard = std::make_unique<sched::Memguard>(kernel, mg);
    std::vector<std::uint32_t> domain_of_core;
    // Critical cores get effectively unregulated domains (huge budget);
    // one budgeted domain per interfering core, in core order.
    for (int c = 0; c < cores; ++c) {
      if (critical[static_cast<std::size_t>(c)]) {
        domain_of_core.push_back(memguard->add_domain(1'000'000'000ull));
      } else {
        const std::uint32_t d =
            memguard->add_domain(config.hog_budget_per_period);
        domain_of_core.push_back(d);
        regulated_domains.push_back(d);
      }
    }
    soc.set_memguard(std::move(memguard), std::move(domain_of_core));
  }

  RtReader::Config rt;
  rt.core = 0;
  rt.period = config.rt_period;
  rt.reads_per_batch = config.rt_reads_per_batch;
  rt.working_set = config.rt_working_set;
  RtReader reader(kernel, soc, rt);

  std::vector<std::unique_ptr<BandwidthHog>> hogs;
  for (int h = 0; h < config.hogs; ++h) {
    BandwidthHog::Config hc;
    hc.core = 1 + h;
    hc.base = (2ull + static_cast<std::uint64_t>(h)) << 30;
    hc.working_set = 8ull * 1024 * 1024;
    hc.seed = 1000 + static_cast<std::uint64_t>(h);
    hogs.push_back(std::make_unique<BandwidthHog>(kernel, soc, hc));
  }

  std::vector<MasterRuntime> extras(config.masters.size());
  for (std::size_t i = 0; i < config.masters.size(); ++i) {
    const MasterSpec& m = config.masters[i];
    switch (m.kind) {
      case MasterSpec::Kind::kRtReader: {
        RtReader::Config rc;
        rc.core = master_core[i];
        rc.period = m.period;
        rc.reads_per_batch = m.reads_per_batch;
        rc.base = m.base;
        rc.working_set = m.working_set;
        rc.writes = m.writes;
        extras[i].reader = std::make_unique<RtReader>(kernel, soc, rc);
        break;
      }
      case MasterSpec::Kind::kBandwidthHog: {
        BandwidthHog::Config hc;
        hc.core = master_core[i];
        hc.base = m.base;
        hc.working_set = m.working_set;
        hc.write_fraction = m.write_fraction;
        hc.think_time = m.think_time;
        hc.seed = m.seed;
        extras[i].hog = std::make_unique<BandwidthHog>(kernel, soc, hc);
        break;
      }
      case MasterSpec::Kind::kTraceReplay:
        extras[i].trace = std::make_unique<TraceMaster>(kernel, soc,
                                                        std::move(traces[i]));
        break;
    }
  }

  std::vector<mpam::PartId> regulated_pids;
  if (config.mpam_bw) {
    // MPAM hardware bandwidth maximum partitioning: the same budget as the
    // Memguard knob, expressed as a rate over the regulation period, but
    // enforced by hardware buckets with continuous accrual and no software
    // overhead (Sec. III-C).
    auto reg = std::make_unique<mpam::BandwidthRegulator>(64);
    const double bytes_per_sec =
        static_cast<double>(config.hog_budget_per_period) * 64.0 /
        config.memguard_period.seconds();
    std::vector<mpam::PartId> partid_of_core;
    for (int c = 0; c < cores; ++c) {
      if (critical[static_cast<std::size_t>(c)]) {
        partid_of_core.push_back(1);  // critical: PARTID 1, unregulated
      } else {
        const mpam::PartId pid = static_cast<mpam::PartId>(10 + (c - 1));
        PAP_CHECK(reg->set_limit(pid, Rate::bytes_per_sec(bytes_per_sec),
                                 /*burst_requests=*/8.0)
                      .is_ok());
        partid_of_core.push_back(pid);
        regulated_pids.push_back(pid);
      }
    }
    soc.set_mpam_regulator(std::move(reg), std::move(partid_of_core));
  }

  if (config.stop_the_world) {
    // "Extreme isolation mechanisms such as a 'stop-the-world' approach,
    // where the execution of [the] ASIL-D safety application on a single
    // CPU core will stall all other cores in the system during that time
    // in order to generate a single-core equivalent scenario" (Sec. II).
    // Generalized: the critical batch stalls every non-critical master.
    auto set_noncrit_paused = [&hogs, &extras, &config](bool paused) {
      for (auto& h : hogs) {
        if (paused) {
          h->pause();
        } else {
          h->resume();
        }
      }
      for (std::size_t i = 0; i < extras.size(); ++i) {
        if (config.masters[i].critical) continue;
        MasterRuntime& rt_m = extras[i];
        if (rt_m.reader) paused ? rt_m.reader->pause() : rt_m.reader->resume();
        if (rt_m.hog) paused ? rt_m.hog->pause() : rt_m.hog->resume();
        if (rt_m.trace) paused ? rt_m.trace->pause() : rt_m.trace->resume();
      }
    };
    reader.set_batch_hooks([set_noncrit_paused] { set_noncrit_paused(true); },
                           [set_noncrit_paused] { set_noncrit_paused(false); });
  }

  fault::Injector injector(kernel, config.fault_plan);
  if (injector.enabled()) {
    injector.on_dram_stall(
        [&soc](Time until) { soc.dram_controller().inject_stall(until); });
    injector.arm();
  }

  if (record_trace) {
    soc.set_access_probe([sink = record_trace](int core, cache::Addr a,
                                               bool write, Time at,
                                               bool crit) {
      TraceRecord rec;
      rec.at = at;
      rec.core = core;
      rec.addr = a;
      rec.size = kCacheLineBytes;
      rec.write = write;
      rec.criticality = crit ? 1 : 0;
      sink->push_back(rec);
    });
  }

  // Phase script: targets resolved by name, actions scheduled before any
  // master starts so t=0 actions precede the first issue.
  std::map<std::string, std::pair<std::function<void()>,  // start
                                  std::function<void()>>>  // stop
      targets;
  targets["rt"] = {[&reader] { reader.resume(); },
                   [&reader] { reader.pause(); }};
  for (int h = 0; h < config.hogs; ++h) {
    BandwidthHog* hog = hogs[static_cast<std::size_t>(h)].get();
    targets["hog" + std::to_string(1 + h)] = {[hog] { hog->resume(); },
                                              [hog] { hog->pause(); }};
  }
  for (std::size_t i = 0; i < config.masters.size(); ++i) {
    MasterRuntime& m = extras[i];
    if (m.reader) {
      RtReader* r = m.reader.get();
      targets[config.masters[i].name] = {[r] { r->resume(); },
                                        [r] { r->pause(); }};
    } else if (m.hog) {
      BandwidthHog* h = m.hog.get();
      targets[config.masters[i].name] = {[h] { h->resume(); },
                                        [h] { h->pause(); }};
    } else if (m.trace) {
      TraceMaster* tm = m.trace.get();
      targets[config.masters[i].name] = {[tm] { tm->resume(); },
                                        [tm] { tm->pause(); }};
    }
  }
  for (const PhaseSpec& p : config.phases) {
    auto it = targets.find(p.master);
    PAP_CHECK_MSG(it != targets.end(), "phase targets unknown master");
    auto fn = p.action == PhaseSpec::Action::kStart ? it->second.first
                                                    : it->second.second;
    kernel.schedule_at(p.at, [fn = std::move(fn), tracer, p] {
      if (tracer) {
        tracer->instant("scenario",
                        (p.action == PhaseSpec::Action::kStart
                             ? "phase_start/"
                             : "phase_stop/") +
                            p.master,
                        "phase");
      }
      fn();
    });
  }

  if (tracer) {
    tracer->end("scenario", "setup", "phase");
    tracer->begin("scenario", "simulate", "phase");
  }
  if (config.rt_enabled) reader.start();
  for (auto& h : hogs) h->start();
  for (std::size_t i = 0; i < config.masters.size(); ++i) {
    MasterRuntime& m = extras[i];
    const bool paused = config.masters[i].start_paused;
    if (m.reader) {
      if (paused) m.reader->pause();
      m.reader->start();
    } else if (m.hog) {
      if (paused) m.hog->pause();
      m.hog->start();
    } else if (m.trace) {
      m.trace->start();
      if (paused) m.trace->pause();
    }
  }
  kernel.run(config.sim_time);
  if (config.rt_enabled) reader.stop();
  for (auto& h : hogs) h->stop();
  for (auto& m : extras) {
    if (m.reader) m.reader->stop();
    if (m.hog) m.hog->stop();
    if (m.trace) m.trace->stop();
  }
  if (tracer) tracer->end("scenario", "simulate", "phase");

  ScenarioResult result;
  result.label = std::move(label);
  result.rt_latency = reader.latency();
  result.rt_batch = reader.batch_latency();
  for (auto& h : hogs) result.hog_accesses += h->accesses();
  for (auto& m : extras) {
    if (m.reader) {
      result.rt_latency.merge(m.reader->latency());
      result.rt_batch.merge(m.reader->batch_latency());
    } else if (m.hog) {
      result.hog_accesses += m.hog->accesses();
    } else if (m.trace) {
      result.trace_accesses += m.trace->issued();
      result.trace_latency.merge(m.trace->latency());
    }
  }
  if (soc.memguard()) {
    for (const std::uint32_t d : regulated_domains) {
      result.memguard_throttles += soc.memguard()->throttle_events(d);
    }
    result.memguard_overhead = soc.memguard()->total_overhead();
  }
  if (soc.mpam_regulator()) {
    for (const mpam::PartId pid : regulated_pids) {
      result.mpam_throttles += soc.mpam_regulator()->throttled_requests(pid);
    }
  }
  result.injected_dram_stalls = injector.stats().dram_stalls;
  result.kernel_events = kernel.events_executed();
  result.core_latency.reserve(static_cast<std::size_t>(cores));
  for (int c = 0; c < cores; ++c) {
    result.core_latency.push_back(soc.core_latency(c));
  }
  return result;
}

}  // namespace pap::platform
