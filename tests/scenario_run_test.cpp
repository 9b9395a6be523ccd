// Scenario execution: the example .pap files are byte-identical to their
// C++ twins end-to-end (same canonical text, same run results),
// trace record -> replay reproduces the originating run ps-exact, the
// trace format round-trips, the simulator set of the repository benchmark
// and one fixed SoC run keep their pinned results and counters, and the
// CLI front doors reject malformed input with exit code 64.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "core/admission.hpp"
#include "mpam/regulator.hpp"
#include "noc/topology.hpp"
#include "platform/scenario.hpp"
#include "platform/soc.hpp"
#include "platform/trace_master.hpp"
#include "platform/workload.hpp"
#include "scenario/generate.hpp"
#include "scenario/run.hpp"
#include "scenario/scenario.hpp"
#include "sched/memguard.hpp"
#include "serve/protocol.hpp"

namespace pap::scenario {
namespace {

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.is_open()) << path;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

Scenario load_example(const char* file) {
  const auto s = load_scenario(std::string(PAP_SCENARIO_EXAMPLES) + "/" +
                               file);
  EXPECT_TRUE(s) << file << ": " << s.error_message();
  return s.value();
}

/// The fig6 request table, exactly as bench/fig6_e2e_admission.cpp builds
/// it in C++.
AdmissionScenario fig6_twin() {
  AdmissionScenario a;
  a.mesh_cols = 4;
  a.mesh_rows = 4;
  a.link_rate_gbps = 64;
  a.rm_node = 15;
  a.burst_factor = 4;
  a.packets = 300;
  a.enforce = true;
  auto app = [](int id, double burst, double rate, int sx, int sy, int dx,
                int dy, Time deadline) {
    AdmissionApp x;
    x.id = id;
    x.burst = burst;
    x.rate = rate;
    x.src_x = sx;
    x.src_y = sy;
    x.dst_x = dx;
    x.dst_y = dy;
    x.deadline = deadline;
    x.uses_dram = false;
    return x;
  };
  a.apps = {app(1, 2, 1.0 / 300.0, 0, 0, 3, 0, Time::us(2)),
            app(2, 2, 1.0 / 400.0, 0, 1, 3, 0, Time::us(2)),
            app(3, 2, 1.0 / 500.0, 1, 1, 3, 0, Time::us(2)),
            app(4, 8, 1.0 / 7.0, 2, 1, 3, 0, Time::us(2)),
            app(5, 2, 1.0 / 350.0, 0, 2, 3, 2, Time::us(2)),
            app(6, 4, 1.0 / 60.0, 1, 0, 3, 0, Time::ns(300))};
  return a;
}

TEST(ScenarioTwins, Fig6TextIsByteIdenticalToTheBuilderPath) {
  const Scenario from_file = load_example("fig6_admission.pap");
  ASSERT_EQ(from_file.kind, Kind::kAdmission);

  Scenario twin;
  twin.kind = Kind::kAdmission;
  twin.name = "fig6_admission";
  twin.admission = fig6_twin();

  EXPECT_EQ(from_file.canonical(), twin.canonical());

  // And the runs are indistinguishable, metric for metric.
  const auto a = run_parsed(from_file);
  const auto b = run_parsed(twin);
  ASSERT_TRUE(a) << a.error_message();
  ASSERT_TRUE(b) << b.error_message();
  EXPECT_EQ(a.value().serialize(), b.value().serialize());
}

TEST(ScenarioTwins, Fig6DecisionsMatchTheAdmissionController) {
  const Scenario s = load_example("fig6_admission.pap");
  const auto r = run_parsed(s);
  ASSERT_TRUE(r) << r.error_message();

  // Re-derive the decisions with core::AdmissionController directly, the
  // way bench/fig6_e2e_admission.cpp does.
  core::PlatformModel m;
  m.noc.cols = 4;
  m.noc.rows = 4;
  core::AdmissionController ac(m);
  noc::Mesh2D mesh(4, 4);
  const auto apps = fig6_twin().apps;
  int admitted = 0;
  std::vector<bool> decisions;
  for (const auto& app : apps) {
    core::AppRequirement req;
    req.app = static_cast<noc::AppId>(app.id);
    req.name = "app" + std::to_string(app.id);
    req.traffic = nc::TokenBucket{app.burst, app.rate};
    req.src = mesh.node(app.src_x, app.src_y);
    req.dst = mesh.node(app.dst_x, app.dst_y);
    req.deadline = app.deadline;
    req.uses_dram = false;
    decisions.push_back(static_cast<bool>(ac.request(req)));
    admitted += decisions.back() ? 1 : 0;
  }
  // Bounds are re-proved under the final admitted mix, which is what the
  // scenario runner reports.
  for (std::size_t i = 0; i < apps.size(); ++i) {
    const std::string n = std::to_string(apps[i].id);
    const auto* decision = r.value().find("admit_app" + n);
    ASSERT_NE(decision, nullptr) << n;
    EXPECT_EQ(decision->as_bool(), decisions[i]) << "app " << n;
    const auto* bound = r.value().find("bound_app" + n);
    ASSERT_NE(bound, nullptr);
    const auto proved =
        ac.current_bound(static_cast<noc::AppId>(apps[i].id));
    EXPECT_EQ(bound->as_time(), proved.value_or(Time::zero()))
        << "app " << n;
  }
  EXPECT_EQ(r.value().at("admitted").as_int(), admitted);
  // The bench's known mix: only the link-saturating app4 is rejected.
  EXPECT_FALSE(r.value().at("admit_app4").as_bool());
  EXPECT_TRUE(r.value().at("admit_app1").as_bool());
  EXPECT_TRUE(r.value().at("admit_app6").as_bool());
}

TEST(ScenarioTwins, Fig5TextIsByteIdenticalToTheBuilderPath) {
  const Scenario from_file = load_example("fig5_watermark.pap");
  ASSERT_EQ(from_file.kind, Kind::kDram);

  Scenario twin;
  twin.kind = Kind::kDram;
  twin.name = "fig5_watermark";
  DramScenario d;  // defaults are exactly the fig5 baseline point
  d.sim_time = Time::ms(1);
  d.device = "ddr3_1600";
  d.w_high = 8;
  d.w_low = 4;
  d.n_wd = 4;
  twin.dram = d;

  EXPECT_EQ(from_file.canonical(), twin.canonical());

  const auto a = run_parsed(from_file);
  const auto b = run_parsed(twin);
  ASSERT_TRUE(a) << a.error_message();
  ASSERT_TRUE(b) << b.error_message();
  EXPECT_EQ(a.value().serialize(), b.value().serialize());
  EXPECT_GT(a.value().at("read_p99").as_time(), Time::zero());
  EXPECT_GT(a.value().at("write_batches").as_int(), 0);
}

TEST(ScenarioRun, SocScenarioReportsTheFixedMetricSet) {
  const Scenario s = load_example("ablation_memguard.pap");
  const auto r = run_parsed(s);
  ASSERT_TRUE(r) << r.error_message();
  for (const char* metric :
       {"rt_accesses", "rt_p50", "rt_p99", "rt_max", "batches",
        "hog_accesses", "trace_accesses", "memguard_throttles",
        "mpam_throttles"}) {
    EXPECT_NE(r.value().find(metric), nullptr) << metric;
  }
  EXPECT_GT(r.value().at("rt_accesses").as_int(), 0);
  EXPECT_GT(r.value().at("memguard_throttles").as_int(), 0);
}

/// Record a live run, replay it through a TraceMaster with the same
/// isolation knobs, and pin the replay ps-exact: every core's per-access
/// latency distribution is identical to the originating run's.
TEST(TraceReplay, ReplayReproducesTheOriginatingRunPsExact) {
  const platform::ScenarioConfig recording = {
      .hogs = 2, .dsu_partitioning = true, .sim_time = Time::us(200)};
  std::vector<platform::TraceRecord> records;
  const auto original =
      platform::run_scenario(recording, "original", nullptr, &records);
  ASSERT_TRUE(original) << original.error_message();
  ASSERT_FALSE(records.empty());

  platform::MasterSpec replayer;
  replayer.kind = platform::MasterSpec::Kind::kTraceReplay;
  replayer.name = "rep";
  replayer.records = records;
  const platform::ScenarioConfig replay = {.hogs = 0,
                                           .dsu_partitioning = true,
                                           .sim_time = Time::us(200),
                                           .rt_enabled = false,
                                           .masters = {replayer}};
  const auto replayed = platform::run_scenario(replay, "replay");
  ASSERT_TRUE(replayed) << replayed.error_message();

  EXPECT_EQ(replayed.value().trace_accesses, records.size());
  const auto& orig_cores = original.value().core_latency;
  const auto& rep_cores = replayed.value().core_latency;
  ASSERT_LE(orig_cores.size(), rep_cores.size());
  for (std::size_t core = 0; core < orig_cores.size(); ++core) {
    EXPECT_EQ(orig_cores[core].sorted_samples(),
              rep_cores[core].sorted_samples())
        << "core " << core << " latencies diverge between live run and "
        << "replay";
  }
}

/// `load_scenario` resolves a relative trace path against the scenario
/// file's directory, leaves an absolute one as written, and the loaded
/// scenario replays the file's records.
TEST(ScenarioLoad, TracePathsResolveAgainstTheScenarioFile) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "scenario_load_trace_test";
  std::filesystem::create_directories(dir);
  std::vector<platform::TraceRecord> records;
  for (int i = 0; i < 8; ++i) {
    platform::TraceRecord r;
    r.at = Time::ns(100 * i);
    r.addr = static_cast<cache::Addr>(64 * i);
    r.write = i % 2 == 1;
    records.push_back(r);
  }
  const std::string trace = (dir / "rel.trace").string();
  ASSERT_TRUE(platform::write_trace(trace, records).is_ok());
  const std::string head =
      "scenario soc\nname load_trace\nsim_time 20us\nhogs 0\nrt off\n";
  std::ofstream(dir / "rel.pap") << head << "master t trace file=rel.trace\n";
  std::ofstream(dir / "abs.pap") << head << "master t trace file=" << trace
                                 << "\n";
  const std::string want = "master t trace file=" + trace + " ";

  const auto rel = load_scenario((dir / "rel.pap").string());
  ASSERT_TRUE(rel) << rel.error_message();
  EXPECT_NE(rel.value().canonical().find(want), std::string::npos)
      << rel.value().canonical();
  const auto abs = load_scenario((dir / "abs.pap").string());
  ASSERT_TRUE(abs) << abs.error_message();
  EXPECT_NE(abs.value().canonical().find(want), std::string::npos)
      << abs.value().canonical();

  const auto r = run_parsed(rel.value());
  ASSERT_TRUE(r) << r.error_message();
  EXPECT_EQ(r.value().at("trace_accesses").as_int(),
            static_cast<std::int64_t>(records.size()));
  std::filesystem::remove_all(dir);
}

TEST(TraceFormat, RenderParseRoundTrip) {
  std::vector<platform::TraceRecord> records;
  for (int i = 0; i < 5; ++i) {
    platform::TraceRecord r;
    r.at = Time::from_ns(100.0 * i);
    r.core = i % 3;
    r.addr = 0x1000u + static_cast<cache::Addr>(64 * i);
    r.write = (i % 2) == 1;
    r.criticality = i == 0 ? 1 : 0;
    records.push_back(r);
  }
  const std::string text = platform::render_trace(records);
  const auto back = platform::parse_trace(text);
  ASSERT_TRUE(back) << back.error_message();
  EXPECT_EQ(back.value(), records);

  EXPECT_FALSE(platform::parse_trace("not a trace\n"));
  EXPECT_FALSE(platform::parse_trace("# pap-trace-v1\nbogus header\n"));
  const auto short_line = platform::parse_trace(
      "# pap-trace-v1\ntime_ps,core,addr,size,write,crit\n1,2,3\n");
  ASSERT_FALSE(short_line);
  EXPECT_NE(short_line.error_message().find("line 3"), std::string::npos)
      << short_line.error_message();
}

/// FNV-1a over each rendered result plus a 0xff separator, with the
/// offset basis the repository benchmark's soc_sim digest uses, so the pin
/// below is the value that benchmark prints for --seed 1.
std::uint64_t digest_results(const std::vector<std::string>& rendered) {
  std::uint64_t h = 1469598103934665603ull;
  for (const std::string& r : rendered) {
    for (const char c : r) {
      h ^= static_cast<unsigned char>(c);
      h *= 1099511628211ull;
    }
    h ^= 0xff;
    h *= 1099511628211ull;
  }
  return h;
}

/// The simulator set of the repository benchmark: members 0-3 of each
/// generated family at generator seed 2021 (through their canonical text),
/// then fig5_watermark.pap and fig6_admission.pap, in the run order
/// `Rng(1)` shuffles them into. Every simulated statistic of every member
/// feeds the pinned digest, so any change to event order in the cache,
/// SoC or DRAM controller models shows up here.
TEST(SocSimSet, RenderedResultsKeepTheirDigest) {
  std::vector<Scenario> set;
  for (const char* family : {"hog_mix", "mode_storm", "flash_crowd",
                             "diurnal"}) {
    for (int i = 0; i < 4; ++i) {
      const auto gen = generate_scenario(family, 2021, i);
      ASSERT_TRUE(gen) << gen.error_message();
      const auto parsed = parse_scenario(gen.value().canonical());
      ASSERT_TRUE(parsed) << parsed.error_message();
      set.push_back(parsed.value());
    }
  }
  set.push_back(load_example("fig5_watermark.pap"));
  set.push_back(load_example("fig6_admission.pap"));
  Rng rng(1);
  for (std::size_t i = set.size(); i > 1; --i) {
    std::swap(set[i - 1], set[rng.next_below(i)]);
  }
  std::vector<std::string> rendered;
  for (const Scenario& s : set) {
    const auto r = run_parsed(s);
    ASSERT_TRUE(r) << s.name << ": " << r.error_message();
    rendered.push_back(serve::render_result(r.value()));
  }
  EXPECT_EQ(digest_results(rendered), 0xc68048f43c061049ull);
}

/// FNV-1a step over the eight bytes of `v`.
void fnv_add(std::uint64_t* h, std::int64_t v) {
  for (int i = 0; i < 8; ++i) {
    *h ^= static_cast<std::uint64_t>(v >> (8 * i)) & 0xffu;
    *h *= 1099511628211ull;
  }
}

void fnv_add(std::uint64_t* h, const LatencyHistogram& lat) {
  fnv_add(h, static_cast<std::int64_t>(lat.count()));
  for (const std::int64_t ps : lat.sorted_samples()) fnv_add(h, ps);
}

/// Every simulated statistic of one SoC run, ps-exact: the counts and
/// throttles plus every latency sample of every core, RT reader and
/// replay master.
void fnv_add(std::uint64_t* h, const platform::ScenarioResult& r) {
  for (const char c : r.label) fnv_add(h, c);
  fnv_add(h, r.rt_latency);
  fnv_add(h, r.rt_batch);
  fnv_add(h, r.trace_latency);
  for (const LatencyHistogram& core : r.core_latency) fnv_add(h, core);
  for (const std::int64_t v :
       {static_cast<std::int64_t>(r.hog_accesses),
        static_cast<std::int64_t>(r.trace_accesses),
        static_cast<std::int64_t>(r.memguard_throttles),
        r.memguard_overhead.picos(),
        static_cast<std::int64_t>(r.mpam_throttles),
        static_cast<std::int64_t>(r.injected_dram_stalls)}) {
    fnv_add(h, v);
  }
}

/// Hand-written worlds for the cases where the order of same-instant
/// events is easiest to disturb: Memguard and MPAM admits that defer a
/// DRAM access to a later instant, and hog think times that wake a core
/// at an instant fixed one access earlier.
const char* const kTieWorlds[] = {
    "scenario soc\nname tie_memguard_think\nsim_time 300us\nhogs 2\n"
    "memguard on\nhog_budget 12\nmemguard_period 5us\n"
    "master aux1 hog base=34359738368 working_set=4194304 "
    "write_fraction=0.3 think_time=20ns seed=3\n"
    "master aux2 hog base=38654705664 working_set=1048576 "
    "write_fraction=0.5 think_time=15ns seed=4\n",
    "scenario soc\nname tie_mpam_think\nsim_time 300us\nhogs 3\n"
    "mpam_bw on\nhog_budget 10\nmemguard_period 2us\n"
    "master aux1 hog base=34359738368 working_set=8388608 "
    "write_fraction=0.25 think_time=16ns seed=5\n"
    "master rd reader period=3us reads_per_batch=24 base=42949672960 "
    "working_set=262144 writes=on\n",
    "scenario soc\nname tie_both_regulators\nsim_time 300us\nhogs 2\n"
    "memguard on\nmpam_bw on\nhog_budget 8\nmemguard_period 4us\n"
    "dram_device lpddr4_3200\n"
    "master aux1 hog base=34359738368 working_set=4194304 "
    "write_fraction=0.6 think_time=1ns seed=6\n"
    "master aux2 hog base=38654705664 working_set=4194304 "
    "write_fraction=0.1 think_time=40ns seed=7\n",
    "scenario soc\nname tie_think_policies\nsim_time 300us\nhogs 1\n"
    "memguard on\nhog_budget 20\nmemguard_period 1us\n"
    "dram_policy starvation_guard\n"
    "master aux1 hog base=34359738368 working_set=2097152 "
    "write_fraction=0.4 think_time=25ns seed=8\n"
    "master aux2 hog base=38654705664 working_set=2097152 "
    "write_fraction=0.4 think_time=25ns seed=9\n",
};

/// A wider ps-exact pin than the benchmark set: members 0-7 of each
/// generated family at generator seed 2021 plus the hand-written worlds
/// above, each digested over every latency sample it produced. Any
/// reordering of same-instant events in the SoC, the regulators or the
/// DRAM controller moves it.
TEST(SocSimSet, WiderSetKeepsItsPsExactDigest) {
  std::vector<Scenario> set;
  for (const char* family : {"hog_mix", "mode_storm", "flash_crowd",
                             "diurnal"}) {
    for (int i = 0; i < 8; ++i) {
      const auto gen = generate_scenario(family, 2021, i);
      ASSERT_TRUE(gen) << gen.error_message();
      set.push_back(gen.value());
    }
  }
  for (const char* text : kTieWorlds) {
    const auto parsed = parse_scenario(text);
    ASSERT_TRUE(parsed) << parsed.error_message();
    set.push_back(parsed.value());
  }
  std::uint64_t h = 1469598103934665603ull;
  for (const Scenario& s : set) {
    ASSERT_EQ(s.kind, Kind::kSoc) << s.name;
    const auto r = platform::run_scenario(s.soc, s.name);
    ASSERT_TRUE(r) << s.name << ": " << r.error_message();
    fnv_add(&h, r.value());
  }
  EXPECT_EQ(h, 0x85848cab5233ca2aull);
}

std::uint64_t soc_accesses(const platform::ScenarioResult& r) {
  return r.rt_latency.count() + r.hog_accesses + r.trace_accesses;
}

/// The simulator's cost in kernel events, counted rather than timed: one
/// fixed generated member pins its exact event count (any event added back
/// per access moves it), and the SoC members of the benchmark set stay
/// under 2.65 events per simulated access.
TEST(SocEvents, EventsPerAccessArePinned) {
  const auto member = generate_scenario("hog_mix", 2021, 0);
  ASSERT_TRUE(member) << member.error_message();
  const auto r = platform::run_scenario(member.value().soc, "member");
  ASSERT_TRUE(r) << r.error_message();
  EXPECT_EQ(soc_accesses(r.value()), 6579u);
  EXPECT_EQ(r.value().kernel_events, 18122u);

  std::uint64_t events = 0;
  std::uint64_t accesses = 0;
  for (const char* family : {"hog_mix", "mode_storm", "flash_crowd",
                             "diurnal"}) {
    for (int i = 0; i < 4; ++i) {
      const auto gen = generate_scenario(family, 2021, i);
      ASSERT_TRUE(gen) << gen.error_message();
      const auto run = platform::run_scenario(gen.value().soc, family);
      ASSERT_TRUE(run) << run.error_message();
      events += run.value().kernel_events;
      accesses += soc_accesses(run.value());
    }
  }
  ASSERT_GT(accesses, 0u);
  const double per_access =
      static_cast<double>(events) / static_cast<double>(accesses);
  EXPECT_LE(per_access, 2.65) << events << " events, " << accesses
                              << " accesses";
}

/// One fixed SoC run that drives every counter the Soc, its DRAM
/// controller and its L3 publish: an RT reader, read/write hogs under
/// Memguard and MPAM regulation, a core whose L3 scheme owns no way (every
/// L3 miss bypasses), DSU partitioning and an injected DRAM stall. Each
/// counter is pinned by name.
TEST(SocCounters, FixedRunPinsEveryCounterByName) {
  sim::Kernel kernel;
  platform::SocConfig cfg;
  cfg.l1_sets = 16;  // 4 KiB L1s
  cfg.l3_sets = 32;  // 32 KiB L3: 16 KiB per scheme below
  platform::Soc soc(kernel, cfg);
  soc.set_scheme_id(0, 1);
  soc.set_scheme_id(3, 2);
  cache::GroupOwners owners{};
  owners[0] = 1;
  owners[1] = 0;
  owners[2] = 1;
  owners[3] = 0;
  ASSERT_TRUE(soc.dsu(0)
                  .write_partition_register(cache::encode_clusterpartcr(owners))
                  .is_ok());

  sched::MemguardConfig mg;
  mg.period = Time::us(5);
  auto memguard = std::make_unique<sched::Memguard>(kernel, mg);
  std::vector<std::uint32_t> domains;
  domains.push_back(memguard->add_domain(1'000'000));
  for (int c = 1; c < cfg.total_cores(); ++c) {
    domains.push_back(memguard->add_domain(12));
  }
  soc.set_memguard(std::move(memguard), domains);
  auto regulator = std::make_unique<mpam::BandwidthRegulator>(64);
  ASSERT_TRUE(
      regulator->set_limit(13, Rate::gbps(4), /*burst_requests=*/4.0).is_ok());
  soc.set_mpam_regulator(std::move(regulator), {1, 11, 12, 13});

  // The reader cycles through 12 KiB (L1 misses, L3 hits once warm); the
  // hogs stream over 2 KiB (L1 hits), 24 KiB (L3 hits and evictions) and
  // 4 MiB (DRAM).
  platform::RtReader::Config rc;
  rc.period = Time::us(4);
  rc.reads_per_batch = 32;
  rc.working_set = 12 * 1024;
  platform::RtReader reader(kernel, soc, rc);
  const std::uint64_t hog_working_set[] = {2 * 1024, 24 * 1024,
                                           4 * 1024 * 1024};
  std::vector<std::unique_ptr<platform::BandwidthHog>> hogs;
  for (int c = 1; c < cfg.total_cores(); ++c) {
    platform::BandwidthHog::Config hc;
    hc.core = c;
    hc.base = static_cast<cache::Addr>(c + 1) << 30;
    hc.working_set = hog_working_set[c - 1];
    hc.write_fraction = 0.2 * c;
    hc.think_time = Time::ns(5);
    hc.seed = 7 + static_cast<std::uint64_t>(c);
    hogs.push_back(
        std::make_unique<platform::BandwidthHog>(kernel, soc, hc));
  }
  kernel.schedule_at(Time::us(40), [&soc] {
    soc.dram_controller().inject_stall(Time::us(41));
  });
  reader.start();
  for (auto& h : hogs) h->start();
  kernel.run(Time::us(150));
  reader.stop();
  for (auto& h : hogs) h->stop();

  using Pins = std::vector<std::pair<const char*, std::int64_t>>;
  const Pins soc_pins = {{"accesses", 25463},      {"l1_hits", 23312},
                         {"l3_hits", 1205},        {"dram_accesses", 946},
                         {"memguard_stalls", 62},  {"mpam_bw_stalls", 185}};
  for (const auto& [name, want] : soc_pins) {
    EXPECT_EQ(soc.counters().get(name), want) << "soc " << name;
  }
  const Pins dram_pins = {
      {"reads_submitted", 589},    {"writes_submitted", 355},
      {"read_hits", 444},          {"read_misses", 145},
      {"write_hits", 294},         {"write_misses", 37},
      {"read_hit_promotions", 16}, {"switches_to_write", 20},
      {"switches_to_read", 20},    {"refreshes", 19},
      {"injected_stalls", 1}};
  for (const auto& [name, want] : dram_pins) {
    EXPECT_EQ(soc.dram_controller().counters().get(name), want)
        << "dram " << name;
  }
  const Pins l3_pins = {
      {"0.hits", 181},  {"0.misses", 393},  {"0.bypasses", 0},
      {"1.hits", 1024}, {"1.misses", 192},  {"1.bypasses", 0},
      {"2.hits", 0},    {"2.misses", 361},  {"2.bypasses", 361},
      {"0.evictions_suffered", 137},        {"1.evictions_suffered", 0},
      {"2.evictions_suffered", 0}};
  for (const auto& [name, want] : l3_pins) {
    EXPECT_EQ(soc.dsu(0).l3().counters().get(name), want) << "l3 " << name;
  }
  const std::vector<std::int64_t> core_latency_max_ps = {278750, 3818500,
                                                         5370250, 4145250};
  for (int c = 0; c < cfg.total_cores(); ++c) {
    EXPECT_EQ(soc.core_latency(c).max().picos(),
              core_latency_max_ps[static_cast<std::size_t>(c)])
        << "core " << c;
  }
}

int run_cli(const std::string& cmd) {
  const int rc = std::system(cmd.c_str());
  return WIFEXITED(rc) ? WEXITSTATUS(rc) : -1;
}

TEST(ScenarioCli, MalformedInputExitsSixtyFour) {
  const std::string tmp =
      std::filesystem::temp_directory_path() / "scenario_cli_test";
  std::filesystem::create_directories(tmp);
  {
    std::ofstream bad(tmp + "/bad.pap");
    bad << "scenario soc\nhogs minus_one\n";
  }
  EXPECT_EQ(run_cli(std::string(PAP_SCENARIO_BIN) + " --scenario=" + tmp +
                    "/bad.pap >/dev/null 2>&1"),
            64);
  EXPECT_EQ(run_cli(std::string(PAP_SCENARIO_BIN) + " --scenario=" + tmp +
                    "/missing.pap >/dev/null 2>&1"),
            64);
  EXPECT_EQ(run_cli(std::string(PAP_SCENARIO_BIN) +
                    " --scenario-family=no_such,seed=1 >/dev/null 2>&1"),
            64);
  EXPECT_EQ(run_cli(std::string(PAP_TRACEGEN_BIN) + " " + tmp +
                    "/bad.pap " + tmp + "/out.trace >/dev/null 2>&1"),
            64);
  // tracegen only records soc scenarios.
  EXPECT_EQ(run_cli(std::string(PAP_TRACEGEN_BIN) + " " +
                    PAP_SCENARIO_EXAMPLES +
                    "/fig5_watermark.pap " + tmp + "/out.trace "
                    ">/dev/null 2>&1"),
            64);
}

TEST(ScenarioCli, PrintEmitsTheCanonicalForm) {
  const std::string tmp =
      std::filesystem::temp_directory_path() / "scenario_cli_print";
  std::filesystem::create_directories(tmp);
  const std::string example =
      std::string(PAP_SCENARIO_EXAMPLES) + "/fig6_admission.pap";
  ASSERT_EQ(run_cli(std::string(PAP_SCENARIO_BIN) + " --scenario=" +
                    example + " --print > " + tmp + "/canon.pap"),
            0);
  const auto parsed = load_scenario(example);
  ASSERT_TRUE(parsed) << parsed.error_message();
  EXPECT_EQ(slurp(tmp + "/canon.pap"), parsed.value().canonical());
}

}  // namespace
}  // namespace pap::scenario
