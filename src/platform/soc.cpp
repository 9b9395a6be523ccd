#include "platform/soc.hpp"

#include <algorithm>
#include <string>
#include <tuple>

#include "common/check.hpp"
#include "trace/tracer.hpp"

namespace pap::platform {

Soc::Soc(sim::Kernel& kernel, const SocConfig& config)
    : kernel_(kernel), cfg_(config) {
  PAP_CHECK(cfg_.clusters >= 1 && cfg_.cores_per_cluster >= 1);
  const int cores = cfg_.total_cores();
  for (int c = 0; c < cores; ++c) {
    l1_.push_back(std::make_unique<cache::Cache>(
        cache::CacheConfig{cfg_.l1_sets, cfg_.l1_ways, 64}));
  }
  for (int cl = 0; cl < cfg_.clusters; ++cl) {
    clusters_.push_back(
        std::make_unique<cache::DsuCluster>(cfg_.l3_sets, cfg_.l3_ways));
  }
  dram_ = std::make_unique<dram::Controller>(kernel_, cfg_.dram,
                                                   cfg_.dram_ctrl);
  // The DSU is functional (no kernel handle); it shares the kernel's
  // tracer so L3 portion-occupancy gauges flow into the same stream.
  if (trace::Tracer* tracer = kernel_.tracer()) {
    for (auto& cl : clusters_) cl->set_tracer(tracer);
  }
  scheme_of_core_.assign(static_cast<std::size_t>(cores), 0);
  core_latency_.resize(static_cast<std::size_t>(cores));

  ids_ = CounterIds{counters_.id("accesses"),
                    counters_.id("l1_hits"),
                    counters_.id("l3_hits"),
                    counters_.id("dram_accesses"),
                    counters_.id("memguard_stalls"),
                    counters_.id("mpam_bw_stalls")};

  // Reads finish after the return trip through the interconnect. The
  // controller reports the completion instant when it serves the read, so
  // the finish is scheduled right then, with no completion event between.
  // Posted writes have no waiter (their slot is gone): they need neither.
  dram_->set_serve_handler([this](const dram::Request& r, Time completion) {
    if (r.op == dram::Op::kWrite) return;
    PAP_CHECK_MSG(r.id < inflight_.size(),
                  "read completion for unknown request");
    // The finish is inserted as of `completion`: among the events at its
    // instant and priority it fires after every one scheduled before
    // `completion` and ahead of every one scheduled at or after it. That
    // is the order a completion event at `completion` (priority -1) would
    // give it by scheduling it there, because such an event would be the
    // first at its instant to schedule anything: the only events that run
    // ahead of priority -1 are Memguard's replenishments (priority -10),
    // and they schedule nothing but their own next firing. Scheduled
    // plainly now, the finish would instead overtake every same-instant
    // event scheduled between serve time and `completion`: a hog's
    // think-time wake-up, or a Memguard/MPAM admit landing on
    // `completion`.
    const auto slot = static_cast<std::uint32_t>(r.id);
    kernel_.schedule_as_of(completion,
                           completion + cfg_.interconnect_latency,
                           [this, slot] { complete(slot); });
  });
}

std::uint32_t Soc::acquire_slot(int core, Time issued, DoneFn done) {
  if (free_slots_.empty()) {
    free_slots_.push_back(static_cast<std::uint32_t>(inflight_.size()));
    inflight_.emplace_back();
  }
  const std::uint32_t slot = free_slots_.back();
  free_slots_.pop_back();
  InFlight& a = inflight_[slot];
  a.done = std::move(done);
  a.issued = issued;
  a.core = core;
  return slot;
}

void Soc::finish_at(Time finish, std::uint32_t slot) {
  kernel_.schedule_at(finish, [this, slot] { complete(slot); });
}

void Soc::complete(std::uint32_t slot) {
  InFlight& a = inflight_[slot];
  const Time latency = kernel_.now() - a.issued;
  core_latency_[static_cast<std::size_t>(a.core)].add(latency);
  // The callback may issue the next access, which can reuse this slot.
  DoneFn done = std::move(a.done);
  a.done = nullptr;
  free_slots_.push_back(slot);
  if (done) done(latency);
}

void Soc::submit_to_dram(std::uint32_t slot) {
  const InFlight& a = inflight_[slot];
  dram::Request r;
  r.id = slot;
  r.op = a.write ? dram::Op::kWrite : dram::Op::kRead;
  r.bank = a.bank;
  r.row = a.row;
  r.master = static_cast<std::uint32_t>(a.core);
  dram_->submit(r);
}

void Soc::set_scheme_id(int core, cache::SchemeId scheme) {
  scheme_of_core_.at(static_cast<std::size_t>(core)) = scheme;
}

cache::SchemeId Soc::scheme_id(int core) const {
  return scheme_of_core_.at(static_cast<std::size_t>(core));
}

void Soc::set_memguard(std::unique_ptr<sched::Memguard> memguard,
                       std::vector<std::uint32_t> domain_of_core) {
  if (memguard) {
    PAP_CHECK(domain_of_core.size() ==
              static_cast<std::size_t>(cfg_.total_cores()));
  }
  memguard_ = std::move(memguard);
  domain_of_core_ = std::move(domain_of_core);
}

void Soc::set_mpam_regulator(
    std::unique_ptr<mpam::BandwidthRegulator> regulator,
    std::vector<mpam::PartId> partid_of_core) {
  if (regulator) {
    PAP_CHECK(partid_of_core.size() ==
              static_cast<std::size_t>(cfg_.total_cores()));
  }
  mpam_reg_ = std::move(regulator);
  partid_of_core_ = std::move(partid_of_core);
}

std::pair<std::uint32_t, std::uint32_t> Soc::addr_to_bank_row(
    cache::Addr addr) const {
  // Row-interleaved mapping: consecutive rows rotate across banks.
  const cache::Addr row_global = addr / cfg_.dram_row_bytes;
  const auto banks = static_cast<std::uint32_t>(cfg_.dram_ctrl.params().banks);
  return {static_cast<std::uint32_t>(row_global % banks),
          static_cast<std::uint32_t>(row_global / banks)};
}

void Soc::memory_access(int core, cache::Addr addr, bool write, DoneFn done) {
  PAP_CHECK(core >= 0 && core < cfg_.total_cores());
  const Time issued = kernel_.now();
  if (probe_) {
    probe_(core, addr, write, issued,
           scheme_of_core_[static_cast<std::size_t>(core)] != 0);
  }
  counters_.inc(ids_.accesses);
  trace::Tracer* tracer = kernel_.tracer();
  if (tracer) {
    tracer->counter("soc", "accesses",
                    static_cast<double>(counters_.get(ids_.accesses)),
                    trace::CounterKind::kMonotonic);
  }
  const std::uint32_t slot = acquire_slot(core, issued, std::move(done));

  // L1, private per core.
  auto& l1 = *l1_[static_cast<std::size_t>(core)];
  if (l1.access(0, addr).hit) {
    counters_.inc(ids_.l1_hits);
    finish_at(issued + cfg_.l1_latency, slot);
    return;
  }

  // Shared L3 of the core's cluster, under the DSU partition filter.
  const int cluster = core / cfg_.cores_per_cluster;
  auto& dsu = *clusters_[static_cast<std::size_t>(cluster)];
  const auto scheme = scheme_of_core_[static_cast<std::size_t>(core)];
  if (dsu.access_scheme(scheme, addr).hit) {
    counters_.inc(ids_.l3_hits);
    finish_at(issued + cfg_.l1_latency + cfg_.l3_latency, slot);
    return;
  }

  // Miss all the way to DRAM: Memguard gate, then interconnect, then the
  // event-driven controller.
  counters_.inc(ids_.dram_accesses);
  Time admit = issued;
  if (memguard_) {
    admit = memguard_->request_access(
        domain_of_core_[static_cast<std::size_t>(core)]);
    if (admit > issued) {
      counters_.inc(ids_.memguard_stalls);
      if (tracer) {
        tracer->span(issued, admit - issued, "soc",
                     "memguard_stall/core" + std::to_string(core), "stall");
      }
    }
  }
  if (mpam_reg_) {
    const Time hw_admit = mpam_reg_->admit(
        partid_of_core_[static_cast<std::size_t>(core)], issued);
    if (hw_admit > issued) {
      counters_.inc(ids_.mpam_bw_stalls);
      if (tracer) {
        tracer->span(issued, hw_admit - issued, "soc",
                     "mpam_bw_stall/core" + std::to_string(core), "stall");
      }
    }
    admit = std::max(admit, hw_admit);
  }
  InFlight& a = inflight_[slot];
  std::tie(a.bank, a.row) = addr_to_bank_row(addr);
  a.write = write;
  const Time at_controller = admit + cfg_.interconnect_latency;
  if (write) {
    // Writes are posted: the core retires them once handed to the memory
    // system ("the latter are not, and can be deferred", Sec. IV-A), in
    // the same event, right after the submit that still reads the slot.
    kernel_.schedule_at(at_controller, [this, slot] {
      submit_to_dram(slot);
      complete(slot);
    });
    return;
  }
  // Reads stall the issuing core until the data returns ("the former are
  // on the critical path for the master requesting them"): the DRAM serve
  // handler finishes them.
  kernel_.schedule_at(at_controller, [this, slot] { submit_to_dram(slot); });
}

}  // namespace pap::platform
