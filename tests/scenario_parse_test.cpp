// The `.pap` scenario language: strict parsing with line/column errors,
// canonical printing with a stable round trip, validator messages that
// name the offending knob, and a 20k-case seeded fuzz sweep that pins the
// two invariants the tooling relies on — the parser never crashes, and
// every rejection carries a position.
#include <gtest/gtest.h>

#include <cctype>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "scenario/generate.hpp"
#include "scenario/scenario.hpp"

namespace pap::scenario {
namespace {

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.is_open()) << path;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// Every parse error must start with "line L, col C: " (1-based).
bool has_position(const std::string& msg) {
  std::size_t i = 0;
  auto digits = [&] {
    const std::size_t start = i;
    while (i < msg.size() && std::isdigit(static_cast<unsigned char>(msg[i])))
      ++i;
    return i > start;
  };
  auto lit = [&](const char* s) {
    const std::string_view v(s);
    if (msg.compare(i, v.size(), v) != 0) return false;
    i += v.size();
    return true;
  };
  return lit("line ") && digits() && lit(", col ") && digits() && lit(": ");
}

const char* kSocSample =
    "scenario soc\n"
    "name sample\n"
    "sim_time 500us\n"
    "hogs 2\n"
    "dsu on\n"
    "memguard on\n"
    "hog_budget 16\n"
    "master rep reader period=5us reads_per_batch=8 base=1048576 "
    "working_set=16384 writes=on critical=on\n"
    "master h hog base=4194304 working_set=262144 write_fraction=0.25 "
    "think_time=100ns seed=9 paused=on\n"
    "phase 100us start h\n"
    "phase 400us stop h\n";

const char* kDramSample =
    "scenario dram\n"
    "name d\n"
    "sim_time 1ms\n"
    "device ddr4_2400\n"
    "w_high 12\n"
    "w_low 6\n"
    "write_rate_gbps 2.5\n";

const char* kAdmissionSample =
    "scenario admission\n"
    "name a\n"
    "mesh 3x3\n"
    "rm_node 8\n"
    "app 1 burst=2 rate=1/300 src=0,0 dst=2,0 deadline=2us\n"
    "app 2 burst=4 rate=0.01 src=0,1 dst=2,0 deadline=500ns dram=on\n";

TEST(ScenarioParse, RoundTripIsCanonicalFixedPoint) {
  for (const char* text : {kSocSample, kDramSample, kAdmissionSample}) {
    const auto first = parse_scenario(text);
    ASSERT_TRUE(first) << first.error_message();
    const std::string canon = first.value().canonical();
    const auto second = parse_scenario(canon);
    ASSERT_TRUE(second) << second.error_message() << "\n" << canon;
    // parse -> print -> parse -> print is byte-identical.
    EXPECT_EQ(second.value().canonical(), canon);
  }
}

TEST(ScenarioParse, SocSampleSurvivesTheTrip) {
  const auto s = parse_scenario(kSocSample);
  ASSERT_TRUE(s) << s.error_message();
  ASSERT_EQ(s.value().kind, Kind::kSoc);
  const auto& k = s.value().soc;
  EXPECT_EQ(k.hogs, 2);
  EXPECT_EQ(k.sim_time, Time::us(500));
  EXPECT_TRUE(k.dsu_partitioning);
  EXPECT_TRUE(k.memguard);
  EXPECT_EQ(k.hog_budget_per_period, 16);
  ASSERT_EQ(k.masters.size(), 2u);
  EXPECT_EQ(k.masters[0].kind, platform::MasterSpec::Kind::kRtReader);
  EXPECT_EQ(k.masters[0].name, "rep");
  EXPECT_TRUE(k.masters[0].critical);
  EXPECT_TRUE(k.masters[0].writes);
  EXPECT_EQ(k.masters[1].kind, platform::MasterSpec::Kind::kBandwidthHog);
  EXPECT_TRUE(k.masters[1].start_paused);
  EXPECT_EQ(k.masters[1].seed, 9u);
  ASSERT_EQ(k.phases.size(), 2u);
  EXPECT_EQ(k.phases[1].action, platform::PhaseSpec::Action::kStop);
}

/// One scenario per kind with every knob away from its default (plus a
/// second soc scenario for `rt off`, which `stop_the_world on` forbids),
/// every master kind with every key, and an `app` with `dram=on`. The
/// canonical text is pinned byte-for-byte: knob order and value formats
/// are part of the format.
TEST(ScenarioParse, EveryKnobRoundTripsToPinnedCanonicalText) {
  struct Case {
    const char* text;
    const char* canonical;
  };
  const Case cases[] = {
      {"scenario soc\n"
       "name every_knob\n"
       "faults seed=5,dram@10us=2us\n"
       "dram_device ddr4_2400\n"
       "dram_policy fcfs\n"
       "rt_working_set 131072\n"
       "rt_reads_per_batch 12\n"
       "rt_period 15us\n"
       "rt on\n"
       "memguard_period 20us\n"
       "hog_budget 7\n"
       "stop_the_world on\n"
       "mpam_bw on\n"
       "memguard on\n"
       "dsu on\n"
       "hogs 2\n"
       "sim_time 3ms\n"
       "master r reader paused=on critical=on writes=on working_set=32768 "
       "base=1048576 reads_per_batch=9 period=7us\n"
       "master h hog paused=on critical=on seed=11 think_time=1.5us "
       "write_fraction=0.125 working_set=524288 base=8388608\n"
       "master t trace paused=on critical=on file=rec.trace\n"
       "phase 100us start r\n"
       "phase 2ms stop h\n",
       "scenario soc\n"
       "name every_knob\n"
       "sim_time 3ms\n"
       "hogs 2\n"
       "dsu on\n"
       "memguard on\n"
       "mpam_bw on\n"
       "stop_the_world on\n"
       "hog_budget 7\n"
       "memguard_period 20us\n"
       "rt on\n"
       "rt_period 15us\n"
       "rt_reads_per_batch 12\n"
       "rt_working_set 131072\n"
       "dram_policy fcfs\n"
       "dram_device ddr4_2400\n"
       "faults seed=5,dram@10us=2us\n"
       "master r reader period=7us reads_per_batch=9 base=1048576 "
       "working_set=32768 writes=on critical=on paused=on\n"
       "master h hog base=8388608 working_set=524288 write_fraction=0.125 "
       "think_time=1500ns seed=11 critical=on paused=on\n"
       "master t trace file=rec.trace critical=on paused=on\n"
       "phase 100us start r\n"
       "phase 2ms stop h\n"},
      {"scenario soc\nname rt_off\nrt off\n",
       "scenario soc\n"
       "name rt_off\n"
       "sim_time 2ms\n"
       "hogs 3\n"
       "dsu off\n"
       "memguard off\n"
       "mpam_bw off\n"
       "stop_the_world off\n"
       "hog_budget 20\n"
       "memguard_period 10us\n"
       "rt off\n"
       "rt_period 10us\n"
       "rt_reads_per_batch 32\n"
       "rt_working_set 65536\n"
       "dram_policy frfcfs\n"
       "dram_device ddr3_1600\n"},
      {"scenario dram\n"
       "name every_knob\n"
       "write_bank 2\n"
       "write_burst 16\n"
       "write_rate_gbps 2.5\n"
       "read_stride 3\n"
       "read_bank 1\n"
       "read_period 300ns\n"
       "n_wd 2\n"
       "w_low 3\n"
       "w_high 10\n"
       "banks 4\n"
       "device ddr4_2400\n"
       "sim_time 2ms\n",
       "scenario dram\n"
       "name every_knob\n"
       "sim_time 2ms\n"
       "device ddr4_2400\n"
       "banks 4\n"
       "w_high 10\n"
       "w_low 3\n"
       "n_wd 2\n"
       "read_period 300ns\n"
       "read_bank 1\n"
       "read_stride 3\n"
       "write_rate_gbps 2.5\n"
       "write_burst 16\n"
       "write_bank 2\n"},
      {"scenario admission\n"
       "name every_knob\n"
       "enforce off\n"
       "packets 120\n"
       "burst_factor 2.5\n"
       "rm_node 5\n"
       "link_rate_gbps 32\n"
       "mesh 3x2\n"
       "app 4 dram=on deadline=1.25us dst=2,1 src=0,1 rate=1/400 burst=3\n",
       "scenario admission\n"
       "name every_knob\n"
       "mesh 3x2\n"
       "link_rate_gbps 32\n"
       "rm_node 5\n"
       "burst_factor 2.5\n"
       "packets 120\n"
       "enforce off\n"
       "app 4 burst=3 rate=0.0025 src=0,1 dst=2,1 deadline=1250ns "
       "dram=on\n"},
  };
  for (const auto& c : cases) {
    const auto s = parse_scenario(c.text);
    ASSERT_TRUE(s) << c.text << " -> " << s.error_message();
    EXPECT_EQ(s.value().canonical(), c.canonical);
    const auto again = parse_scenario(c.canonical);
    ASSERT_TRUE(again) << again.error_message();
    EXPECT_EQ(again.value().canonical(), c.canonical);
  }
}

TEST(ScenarioParse, ErrorsCarryExactPositions) {
  struct Case {
    const char* text;
    const char* expect;  // substring of the full message
  };
  const Case cases[] = {
      {"", "line 1, col 1: empty scenario"},
      {"hogs 3\n", "line 1, col 1: expected 'scenario soc|dram|admission'"},
      {"scenario warp\n", "line 1, col 10: unknown scenario kind 'warp'"},
      {"scenario soc\nhogs x\n", "line 2, col 6: bad value 'x' for 'hogs'"},
      {"scenario soc\nhogs 1\nhogs 2\n",
       "line 3, col 1: duplicate key 'hogs'"},
      {"scenario soc\nbogus 1\n", "line 2, col 1: unknown key 'bogus'"},
      {"scenario soc\nsim_time 10\n",
       "line 2, col 10: bad value '10' for 'sim_time'"},
      {"scenario soc\nphase 10us explode rt\n",
       "line 2, col 12: phase action must be start or stop, got 'explode'"},
      {"scenario soc\nmaster m hog nope=1\n",
       "line 2, col 14: unknown hog master key 'nope'"},
      {"scenario soc\nmaster m hog seed=1 seed=2\n",
       "line 2, col 21: duplicate master key 'seed'"},
      {"scenario dram\nw_high nine\n",
       "line 2, col 8: bad value 'nine' for 'w_high'"},
      {"scenario admission\napp 1 rate=1/300\n",
       "line 2, col 1: app 1 is missing required key 'burst'"},
      {"scenario admission\nmesh 4by4\n",
       "line 2, col 6: bad value '4by4' for 'mesh'"},
      // Durations must be finite and fit int64 picoseconds; a NaN fault
      // time used to reach the simulation kernel as INT64_MIN.
      {"scenario soc\nfaults dram@nanus=5us\n",
       "line 2, col 8: bad fault entry 'dram@nanus=5us'"},
      {"scenario soc\nsim_time 1e300ms\n",
       "line 2, col 10: bad value '1e300ms' for 'sim_time'"},
      {"scenario soc\nmemguard_period 1e10ms\n",
       "line 2, col 17: bad value '1e10ms' for 'memguard_period'"},
      // An infinite rate printed as `inf`, which does not parse back.
      {"scenario admission\napp 1 burst=1 rate=1e300/1e-300 src=0,0 "
       "dst=1,0 deadline=1us\n",
       "line 2, col 20: bad value '1e300/1e-300' for app key 'rate'"},
  };
  for (const auto& c : cases) {
    const auto s = parse_scenario(c.text);
    ASSERT_FALSE(s) << c.text;
    EXPECT_TRUE(has_position(s.error_message()))
        << c.text << " -> " << s.error_message();
    EXPECT_NE(s.error_message().find(c.expect), std::string::npos)
        << c.text << " -> " << s.error_message();
  }
}

TEST(ScenarioParse, ValidatorFailuresMapBackToTheOffendingLine) {
  // The parse succeeds syntactically; final validation rejects, and the
  // error is positioned at the line that set the offending knob.
  const auto bad_sim = parse_scenario("scenario soc\nsim_time 0ms\n");
  ASSERT_FALSE(bad_sim);
  EXPECT_NE(bad_sim.error_message().find("line 2, col 10: sim_time must be "
                                         "positive"),
            std::string::npos)
      << bad_sim.error_message();

  const auto bad_phase = parse_scenario(
      "scenario soc\nsim_time 1ms\nphase 100us start ghost\n");
  ASSERT_FALSE(bad_phase);
  EXPECT_NE(bad_phase.error_message().find("line 3"), std::string::npos)
      << bad_phase.error_message();
  EXPECT_NE(bad_phase.error_message().find("ghost"), std::string::npos);

  const auto bad_master = parse_scenario(
      "scenario soc\nmaster m reader period=0ms\n");
  ASSERT_FALSE(bad_master);
  EXPECT_NE(bad_master.error_message().find("line 2"), std::string::npos)
      << bad_master.error_message();
  EXPECT_NE(bad_master.error_message().find("period must be positive"),
            std::string::npos);

  // Validators name some knobs differently from their `.pap` key, and
  // duplicate names / ids map to the last line defining them.
  struct Case {
    const char* text;
    const char* expect;
  };
  const Case cases[] = {
      {"scenario soc\nhogs 0\nrt off\n",
       "line 3, col 4: scenario has no masters"},
      {"scenario soc\nmemguard on\nhog_budget 0\n",
       "line 3, col 12: hog_budget_per_period must be >= 1"},
      {"scenario soc\nfaults drop=0.5\n",
       "line 2, col 8: fault plan: 'drop' is not injectable"},
      {"scenario soc\nmaster m hog\nmaster m hog\n",
       "line 3, col 8: master name 'm' is not unique"},
      {"scenario admission\n"
       "app 3 burst=1 rate=0.01 src=0,0 dst=1,0 deadline=1us\n"
       "app 3 burst=1 rate=0.01 src=0,0 dst=1,0 deadline=1us\n",
       "line 3, col 1: app 3: app id is not unique"},
      {"scenario dram\nbanks 2\nwrite_bank 2\n",
       "line 3, col 12: write_bank must be in [0, 2), got 2"},
      {"scenario admission\nname a\n",
       "line 1, col 1: admission scenario needs at least one app line"},
  };
  for (const auto& c : cases) {
    const auto s = parse_scenario(c.text);
    ASSERT_FALSE(s) << c.text;
    EXPECT_NE(s.error_message().find(c.expect), std::string::npos)
        << c.text << " -> " << s.error_message();
  }
}

TEST(ScenarioParse, DramValidatorNamesKnobAndValue) {
  DramScenario d;
  d.w_high = 2;
  d.w_low = 5;
  const auto st = d.validate();
  ASSERT_FALSE(st.is_ok());
  EXPECT_NE(st.message().find("w_high"), std::string::npos) << st.message();

  DramScenario dev;
  dev.device = "sram_9000";
  const auto st2 = dev.validate();
  ASSERT_FALSE(st2.is_ok());
  EXPECT_NE(st2.message().find("device"), std::string::npos) << st2.message();
  EXPECT_NE(st2.message().find("sram_9000"), std::string::npos)
      << st2.message();
}

TEST(ScenarioParse, AdmissionValidatorNamesKnobAndValue) {
  AdmissionScenario a;
  const auto none = a.validate();
  ASSERT_FALSE(none.is_ok());
  EXPECT_NE(none.message().find("app"), std::string::npos) << none.message();

  AdmissionApp app;
  app.id = 7;
  app.rate = 0.01;
  app.deadline = Time::us(1);
  app.dst_x = 9;  // outside the 4x4 mesh
  a.apps = {app};
  const auto bad = a.validate();
  ASSERT_FALSE(bad.is_ok());
  EXPECT_NE(bad.message().find("app 7"), std::string::npos) << bad.message();
}

TEST(ScenarioParse, SizeCapAndCommentsAndWhitespace) {
  // Comments, blank lines and CRLF endings are all fine.
  const auto s = parse_scenario(
      "# header\r\n\r\nscenario soc\r\n  name crlf\t\r\n\n# tail\n");
  ASSERT_TRUE(s) << s.error_message();
  EXPECT_EQ(s.value().name, "crlf");

  const std::string big(2 * 1024 * 1024, 'a');
  const auto too_big = parse_scenario(big);
  ASSERT_FALSE(too_big);
  EXPECT_TRUE(has_position(too_big.error_message()));
  EXPECT_NE(too_big.error_message().find("exceeds 1 MiB"), std::string::npos)
      << too_big.error_message();
}

TEST(ScenarioParse, ExampleFilesParseAndAreCanonicalStable) {
  const std::string dir = PAP_SCENARIO_EXAMPLES;
  const char* files[] = {"fig2_dsu.pap",       "ablation_memguard.pap",
                         "fig5_watermark.pap", "fig6_admission.pap",
                         "flash_crowd.pap",    "mode_storm.pap"};
  for (const char* f : files) {
    const std::string text = slurp(dir + "/" + f);
    ASSERT_FALSE(text.empty()) << f;
    const auto s = parse_scenario(text);
    ASSERT_TRUE(s) << f << ": " << s.error_message();
    const std::string canon = s.value().canonical();
    const auto again = parse_scenario(canon);
    ASSERT_TRUE(again) << f << ": " << again.error_message();
    EXPECT_EQ(again.value().canonical(), canon) << f;
  }
}

/// 20k seeded cases: random garbage plus mutations of valid scenarios.
/// The parser must never crash, every rejection must carry "line L, col
/// C:", and every acceptance must print a canonical fixed point.
TEST(ScenarioFuzz, TwentyThousandCasesNeverCrashAlwaysPositioned) {
  std::vector<std::string> corpus = {
      kSocSample, kDramSample, kAdmissionSample,
      "scenario soc\nname faulty\nsim_time 100us\nfaults dram@10us=500ns\n"};
  for (const std::string& fam : family_names()) {
    const auto g = generate_scenario(fam, 7, 0);
    ASSERT_TRUE(g) << g.error_message();
    corpus.push_back(g.value().canonical());
  }

  Rng rng(0x5eed5eedULL);
  int accepted = 0, rejected = 0;
  for (int i = 0; i < 20000; ++i) {
    std::string text;
    const std::uint64_t mode = rng.next_below(5);
    if (mode == 0) {
      // Pure garbage bytes (printable-heavy so lines form).
      const std::size_t n = rng.next_below(200);
      for (std::size_t j = 0; j < n; ++j) {
        const std::uint64_t c = rng.next_below(96);
        text.push_back(c == 95 ? '\n' : static_cast<char>(' ' + c));
      }
    } else {
      text = corpus[rng.next_below(corpus.size())];
      const std::size_t edits = 1 + rng.next_below(4);
      for (std::size_t e = 0; e < edits && !text.empty(); ++e) {
        const std::size_t pos = rng.next_below(text.size());
        switch (rng.next_below(4)) {
          case 0:  // flip a byte
            text[pos] = static_cast<char>(' ' + rng.next_below(95));
            break;
          case 1:  // delete a byte
            text.erase(pos, 1);
            break;
          case 2:  // insert a byte
            text.insert(pos, 1, static_cast<char>(' ' + rng.next_below(95)));
            break;
          case 3:  // truncate
            text.resize(pos);
            break;
        }
      }
    }
    const auto s = parse_scenario(text);
    if (s) {
      ++accepted;
      const std::string canon = s.value().canonical();
      const auto again = parse_scenario(canon);
      ASSERT_TRUE(again) << "canonical text of an accepted scenario must "
                            "re-parse\n"
                         << canon << "\n"
                         << again.error_message();
      ASSERT_EQ(again.value().canonical(), canon) << canon;
    } else {
      ++rejected;
      ASSERT_TRUE(has_position(s.error_message()))
          << "unpositioned error: " << s.error_message() << "\ninput:\n"
          << text;
    }
  }
  // The mix must exercise both paths; mutated canonical text stays valid
  // often enough that a dead acceptance path would be a corpus bug.
  EXPECT_GT(accepted, 100) << "fuzz corpus never produced a valid scenario";
  EXPECT_GT(rejected, 1000);
}

TEST(FamilySpec, ParsesAndRejects) {
  const auto plain = parse_family_spec("flash_crowd");
  ASSERT_TRUE(plain) << plain.error_message();
  EXPECT_EQ(plain.value().family, "flash_crowd");
  EXPECT_EQ(plain.value().seed, 1u);
  EXPECT_EQ(plain.value().count, 1);

  const auto full = parse_family_spec("hog_mix,seed=9,n=25");
  ASSERT_TRUE(full) << full.error_message();
  EXPECT_EQ(full.value().family, "hog_mix");
  EXPECT_EQ(full.value().seed, 9u);
  EXPECT_EQ(full.value().count, 25);

  EXPECT_FALSE(parse_family_spec(""));
  EXPECT_FALSE(parse_family_spec("no_such_family"));
  EXPECT_FALSE(parse_family_spec("diurnal,seed=x"));
  EXPECT_FALSE(parse_family_spec("diurnal,n=0"));
  EXPECT_FALSE(parse_family_spec("diurnal,n=100001"));
  EXPECT_FALSE(parse_family_spec("diurnal,bogus=1"));
  // Integers are digits only: no sign (strtoull wrapped -1), no spaces.
  EXPECT_FALSE(parse_family_spec("diurnal,seed=-1"));
  EXPECT_FALSE(parse_family_spec("diurnal,seed=+1"));
  EXPECT_FALSE(parse_family_spec("diurnal,seed= 1"));
  EXPECT_FALSE(parse_family_spec("diurnal,n=+5"));
}

}  // namespace
}  // namespace pap::scenario
