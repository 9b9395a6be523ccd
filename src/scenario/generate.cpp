#include "scenario/generate.hpp"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>

#include "common/hash.hpp"
#include "common/rng.hpp"
#include "dram/policy.hpp"
#include "dram/timing.hpp"

namespace pap::scenario {

namespace {

/// One RNG stream per (family, seed, index, knob): FNV-1a over the
/// identifying tuple seeds an independent xoshiro generator, so knobs
/// never share draws.
Rng stream(const std::string& family, std::uint64_t seed, int index,
           const char* knob) {
  // The basis is one digit short of kFnv1aOffset. Every family member and
  // the soc_sim digests derive from it, so it stays as is.
  std::uint64_t h = 1469598103934665603ull;
  auto mix_byte = [&h](unsigned char b) { h = fnv1a_byte(h, b); };
  h = fnv1a(family, h);
  mix_byte(0);
  h = fnv1a(knob, h);
  mix_byte(0);
  for (int i = 0; i < 8; ++i) mix_byte((seed >> (8 * i)) & 0xff);
  for (int i = 0; i < 4; ++i) {
    mix_byte((static_cast<std::uint64_t>(index) >> (8 * i)) & 0xff);
  }
  return Rng(h);
}

/// Distinct working-set base per extra master, clear of the built-in
/// workloads' regions.
cache::Addr master_base(int i) {
  return 0x8'0000'0000ull + static_cast<cache::Addr>(i) * 0x0400'0000ull;
}

platform::MasterSpec hog_master(std::string name, int slot, Rng& ws_rng,
                                Rng& wf_rng, Rng& seed_rng) {
  platform::MasterSpec m;
  m.kind = platform::MasterSpec::Kind::kBandwidthHog;
  m.name = std::move(name);
  m.base = master_base(slot);
  m.working_set = 1ull << ws_rng.uniform(18, 22);
  m.write_fraction = wf_rng.next_double() * 0.9;
  m.seed = seed_rng.next_u64();
  return m;
}

// ---------------------------------------------------------------------------
// Families. Each draws every knob from its own named stream and fills a
// `soc` scenario; phase instants are whole microseconds so canonical text
// stays compact.

void gen_flash_crowd(const std::string& f, std::uint64_t seed, int index,
                     platform::ScenarioConfig* cfg) {
  const std::int64_t sim_us =
      stream(f, seed, index, "sim_time").uniform(500, 1000);
  const int base_hogs =
      static_cast<int>(stream(f, seed, index, "hogs").uniform(0, 2));
  const int crowd =
      static_cast<int>(stream(f, seed, index, "crowd").uniform(2, 5));
  const std::int64_t onset_us =
      sim_us * stream(f, seed, index, "onset").uniform(10, 40) / 100;
  const std::int64_t leave_us =
      onset_us +
      (sim_us - onset_us) * stream(f, seed, index, "stay").uniform(30, 80) /
          100;
  Rng ws = stream(f, seed, index, "crowd_working_set");
  Rng wf = stream(f, seed, index, "crowd_write_fraction");
  Rng sd = stream(f, seed, index, "crowd_seed");

  cfg->sim_time(Time::us(sim_us))
      .hogs(base_hogs)
      .dsu_partitioning(stream(f, seed, index, "dsu").chance(0.5))
      .memguard(stream(f, seed, index, "memguard").chance(0.5));
  for (int i = 0; i < crowd; ++i) {
    platform::MasterSpec m =
        hog_master("crowd" + std::to_string(i + 1), i, ws, wf, sd);
    m.start_paused = true;
    cfg->add_master(std::move(m));
    cfg->add_phase({Time::us(onset_us), platform::PhaseSpec::Action::kStart,
                    "crowd" + std::to_string(i + 1)});
    cfg->add_phase({Time::us(leave_us), platform::PhaseSpec::Action::kStop,
                    "crowd" + std::to_string(i + 1)});
  }
}

void gen_diurnal(const std::string& f, std::uint64_t seed, int index,
                 platform::ScenarioConfig* cfg) {
  const std::int64_t sim_us =
      stream(f, seed, index, "sim_time").uniform(600, 1200);
  const int base_hogs =
      static_cast<int>(stream(f, seed, index, "hogs").uniform(1, 2));
  const int waves_hogs =
      static_cast<int>(stream(f, seed, index, "day_hogs").uniform(1, 3));
  const std::int64_t period_us =
      stream(f, seed, index, "wave_period").uniform(150, 400);
  const std::int64_t on_us =
      period_us * stream(f, seed, index, "duty").uniform(30, 70) / 100;
  Rng ws = stream(f, seed, index, "day_working_set");
  Rng wf = stream(f, seed, index, "day_write_fraction");
  Rng sd = stream(f, seed, index, "day_seed");

  cfg->sim_time(Time::us(sim_us))
      .hogs(base_hogs)
      .memguard(stream(f, seed, index, "memguard").chance(0.5));
  for (int i = 0; i < waves_hogs; ++i) {
    const std::string name = "day" + std::to_string(i + 1);
    platform::MasterSpec m = hog_master(name, i, ws, wf, sd);
    m.start_paused = true;
    cfg->add_master(std::move(m));
    for (std::int64_t rise = 0; rise + on_us <= sim_us; rise += period_us) {
      cfg->add_phase(
          {Time::us(rise), platform::PhaseSpec::Action::kStart, name});
      cfg->add_phase(
          {Time::us(rise + on_us), platform::PhaseSpec::Action::kStop, name});
    }
  }
}

void gen_mode_storm(const std::string& f, std::uint64_t seed, int index,
                    platform::ScenarioConfig* cfg) {
  const std::int64_t sim_us =
      stream(f, seed, index, "sim_time").uniform(500, 1000);
  const int hogs =
      static_cast<int>(stream(f, seed, index, "hogs").uniform(1, 3));
  const int aux =
      static_cast<int>(stream(f, seed, index, "aux").uniform(1, 2));
  const std::int64_t storm_us =
      sim_us * stream(f, seed, index, "storm_start").uniform(40, 70) / 100;
  const int events =
      static_cast<int>(stream(f, seed, index, "events").uniform(8, 16));
  Rng gap = stream(f, seed, index, "gap");
  Rng pick = stream(f, seed, index, "target");
  Rng ws = stream(f, seed, index, "aux_working_set");
  Rng wf = stream(f, seed, index, "aux_write_fraction");
  Rng sd = stream(f, seed, index, "aux_seed");

  cfg->sim_time(Time::us(sim_us))
      .hogs(hogs)
      .dsu_partitioning(stream(f, seed, index, "dsu").chance(0.5));
  std::vector<std::string> targets;
  std::vector<bool> running;
  for (int i = 0; i < hogs; ++i) {
    targets.push_back("hog" + std::to_string(i + 1));
    running.push_back(true);
  }
  for (int i = 0; i < aux; ++i) {
    const std::string name = "aux" + std::to_string(i + 1);
    cfg->add_master(hog_master(name, i, ws, wf, sd));
    targets.push_back(name);
    running.push_back(true);
  }
  std::int64_t at_us = storm_us;
  for (int e = 0; e < events && at_us < sim_us; ++e) {
    const std::size_t t = static_cast<std::size_t>(
        pick.next_below(static_cast<std::uint64_t>(targets.size())));
    cfg->add_phase({Time::us(at_us),
                    running[t] ? platform::PhaseSpec::Action::kStop
                               : platform::PhaseSpec::Action::kStart,
                    targets[t]});
    running[t] = !running[t];
    at_us += gap.uniform(5, 25);
  }
}

void gen_hog_mix(const std::string& f, std::uint64_t seed, int index,
                 platform::ScenarioConfig* cfg) {
  const std::int64_t sim_us =
      stream(f, seed, index, "sim_time").uniform(400, 800);
  const int readers =
      static_cast<int>(stream(f, seed, index, "readers").uniform(1, 3));
  const int hogs =
      static_cast<int>(stream(f, seed, index, "mix_hogs").uniform(1, 4));
  Rng crit = stream(f, seed, index, "reader_critical");
  Rng period = stream(f, seed, index, "reader_period");
  Rng batch = stream(f, seed, index, "reader_batch");
  Rng rws = stream(f, seed, index, "reader_working_set");
  Rng writes = stream(f, seed, index, "reader_writes");
  Rng ws = stream(f, seed, index, "mix_working_set");
  Rng wf = stream(f, seed, index, "mix_write_fraction");
  Rng think = stream(f, seed, index, "mix_think_time");
  Rng sd = stream(f, seed, index, "mix_seed");

  const auto& policies = dram::all_policy_kinds();
  cfg->sim_time(Time::us(sim_us))
      .hogs(0)
      .memguard(stream(f, seed, index, "memguard").chance(0.5))
      .hog_budget_per_period(
          static_cast<std::uint64_t>(
              stream(f, seed, index, "hog_budget").uniform(10, 40)))
      .dram_policy(policies[stream(f, seed, index, "policy").next_below(
          policies.size())])
      .dram_device(stream(f, seed, index, "device").next_below(2) == 0
                       ? "ddr4_2400"
                       : "lpddr4_3200");
  for (int i = 0; i < readers; ++i) {
    platform::MasterSpec m;
    m.kind = platform::MasterSpec::Kind::kRtReader;
    m.name = "mix_reader" + std::to_string(i + 1);
    m.critical = crit.chance(0.3);
    m.base = master_base(i);
    m.period = Time::us(period.uniform(5, 20));
    m.reads_per_batch = static_cast<int>(batch.uniform(8, 64));
    m.working_set = 1ull << rws.uniform(14, 20);
    m.writes = writes.chance(0.2);
    cfg->add_master(std::move(m));
  }
  for (int i = 0; i < hogs; ++i) {
    platform::MasterSpec m = hog_master(
        "mix_hog" + std::to_string(i + 1), readers + i, ws, wf, sd);
    m.think_time = Time::ns(think.uniform(0, 2000));
    cfg->add_master(std::move(m));
  }
}

}  // namespace

const std::vector<std::string>& family_names() {
  static const std::vector<std::string> names{"flash_crowd", "diurnal",
                                              "mode_storm", "hog_mix"};
  return names;
}

Expected<FamilySpec> parse_family_spec(const std::string& text) {
  using FE = Expected<FamilySpec>;
  FamilySpec spec;
  std::size_t start = 0;
  int field = 0;
  while (start <= text.size()) {
    const std::size_t comma = text.find(',', start);
    const std::string part =
        text.substr(start, comma == std::string::npos ? std::string::npos
                                                      : comma - start);
    if (field == 0) {
      spec.family = part;
    } else if (part.rfind("seed=", 0) == 0) {
      const std::string v = part.substr(5);
      char* end = nullptr;
      errno = 0;
      spec.seed = std::strtoull(v.c_str(), &end, 10);
      if (v.empty() || errno != 0 || *end != '\0') {
        return FE::error("bad family seed '" + v + "' in '" + text + "'");
      }
    } else if (part.rfind("n=", 0) == 0) {
      const std::string v = part.substr(2);
      char* end = nullptr;
      errno = 0;
      const long long n = std::strtoll(v.c_str(), &end, 10);
      if (v.empty() || errno != 0 || *end != '\0' || n < 1 || n > 100000) {
        return FE::error("bad family count '" + v + "' in '" + text +
                         "' (want n=1..100000)");
      }
      spec.count = static_cast<int>(n);
    } else {
      return FE::error("bad family spec part '" + part + "' in '" + text +
                       "' (want NAME[,seed=S][,n=K])");
    }
    ++field;
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  const auto& names = family_names();
  if (std::find(names.begin(), names.end(), spec.family) == names.end()) {
    std::string valid;
    for (const std::string& n : names) {
      valid += (valid.empty() ? "" : ", ") + n;
    }
    return FE::error("unknown scenario family '" + spec.family +
                     "' (valid: " + valid + ")");
  }
  return spec;
}

Expected<Scenario> generate_scenario(const std::string& family,
                                     std::uint64_t seed, int index) {
  using SE = Expected<Scenario>;
  if (index < 0) {
    return SE::error("scenario index must be non-negative, got " +
                     std::to_string(index));
  }
  Scenario s;
  s.kind = Kind::kSoc;
  char name[80];
  std::snprintf(name, sizeof name, "%s_%04d", family.c_str(), index);
  s.name = name;
  if (family == "flash_crowd") {
    gen_flash_crowd(family, seed, index, &s.soc);
  } else if (family == "diurnal") {
    gen_diurnal(family, seed, index, &s.soc);
  } else if (family == "mode_storm") {
    gen_mode_storm(family, seed, index, &s.soc);
  } else if (family == "hog_mix") {
    gen_hog_mix(family, seed, index, &s.soc);
  } else {
    auto spec = parse_family_spec(family);  // reuse the valid-names message
    return SE::error(spec ? "unknown scenario family '" + family + "'"
                          : spec.error_message());
  }
  // A generator bug must never surface downstream as a scenario the user
  // wrote wrong: check the draw against the validator here.
  if (const Status st = s.soc.validate(); !st.is_ok()) {
    return SE::error("generator bug: " + s.name + " is invalid: " +
                     st.message());
  }
  return s;
}

}  // namespace pap::scenario
