// The exp sweep engine: Value/Result round trips, sweep enumeration,
// parallel determinism, cancellation, and the content-hash result cache.
#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <bit>
#include <cfloat>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/stats.hpp"
#include "exp/cache.hpp"
#include "exp/experiment.hpp"
#include "exp/runner.hpp"
#include "exp/sink.hpp"
#include "exp/sweep.hpp"
#include "sim/kernel.hpp"
#include "trace/tracer.hpp"

namespace pap::exp {
namespace {

TEST(Value, DisplayMatchesTextTableCells) {
  EXPECT_EQ(Value{42}.display(), "42");
  EXPECT_EQ(Value{true}.display(), "true");
  EXPECT_EQ((Value{3.14159, 2}).display(), "3.14");
  EXPECT_EQ(Value{Time::ns(1500)}.display(), "1500.000");
  EXPECT_EQ(Value{"hi"}.display(), "hi");
}

TEST(Value, EqualityIsExact) {
  EXPECT_EQ(Value{1.0 / 3.0}, Value{1.0 / 3.0});
  EXPECT_NE(Value{1.0 / 3.0}, Value{0.333333});
  EXPECT_NE(Value{1}, Value{1.0});  // kind matters
  EXPECT_EQ(Value{Time::us(3)}, Value{Time::us(3)});
}

TEST(Value, CanonicalDoublesAreExactlyPrintfHexfloat) {
  // Cache keys, routing and content hashes all read these bytes.
  std::mt19937_64 rng(99);
  std::vector<double> values = {0.0, -0.0, 1.0, -1.5, 0.1, 1e-310, -4e-320,
                                DBL_MIN, DBL_MAX, -DBL_TRUE_MIN,
                                std::numeric_limits<double>::infinity(),
                                -std::numeric_limits<double>::infinity(),
                                std::numeric_limits<double>::quiet_NaN()};
  for (int i = 0; i < 100000; ++i) {
    std::uint64_t bits = rng();
    if (i % 2 == 0) bits &= ~((std::uint64_t{1} << (rng() % 52)) - 1);
    values.push_back(std::bit_cast<double>(bits));
  }
  char buf[64];
  for (double d : values) {
    std::snprintf(buf, sizeof buf, "%a", d);
    ASSERT_EQ(Value{d}.canonical(), std::string("d:") + buf);
  }
}

std::string json_of(const Value& v) {
  std::string out;
  v.json_into(&out);
  return out;
}

TEST(Value, JsonAndMachineNumbersAreExactlyPrintf) {
  // CSV cells, JSONL lines and papd replies all read these bytes; they
  // must be what %.17g (doubles) and %.3f (Time in ns) have always given.
  std::mt19937_64 rng(1717);
  std::vector<double> doubles = {0.0, -0.0, 1.0, -1.5, 0.1, 1e308, -1e308,
                                 1e-310, -4e-320, DBL_MIN, DBL_MAX,
                                 DBL_TRUE_MIN, -DBL_TRUE_MIN, 123456789.0,
                                 1e16, 1e17, 0.000123};
  for (int i = 0; i < 100000; ++i) {
    std::uint64_t bits = rng();
    if (i % 2 == 0) bits &= ~((std::uint64_t{1} << (rng() % 52)) - 1);
    doubles.push_back(std::bit_cast<double>(bits));
  }
  char buf[64];
  for (double d : doubles) {
    std::snprintf(buf, sizeof buf, "%.17g", d);
    ASSERT_EQ(Value{d}.machine(), buf);
    ASSERT_EQ(json_of(Value{d}), std::isfinite(d) ? buf : "null");
  }
  for (double d : {std::numeric_limits<double>::infinity(),
                   -std::numeric_limits<double>::infinity(),
                   std::numeric_limits<double>::quiet_NaN(),
                   -std::numeric_limits<double>::quiet_NaN()}) {
    std::snprintf(buf, sizeof buf, "%.17g", d);
    EXPECT_EQ(Value{d}.machine(), buf);  // CSV keeps printf's inf / nan
    EXPECT_EQ(json_of(Value{d}), "null");
  }

  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
  std::vector<std::int64_t> picos = {0, 1, -1, 499, 500, 501, -500, 1500,
                                     -123456789, kMax, kMin, kMax - 1,
                                     kMin + 1, kMax / 3, kMin / 7};
  for (int i = 0; i < 100000; ++i) {
    const auto p = static_cast<std::int64_t>(rng());
    picos.push_back(i % 2 == 0 ? p : p >> (rng() % 63));
  }
  for (std::int64_t p : picos) {
    std::snprintf(buf, sizeof buf, "%.3f", Time::ps(p).nanos());
    ASSERT_EQ(Value{Time::ps(p)}.machine(), buf) << p;
    ASSERT_EQ(json_of(Value{Time::ps(p)}), buf) << p;
    ASSERT_EQ(Value{Time::ps(p)}.display(), buf) << p;
    ASSERT_EQ(json_of(Value{p}), std::to_string(p));
    ASSERT_EQ(Value{p}.display(), std::to_string(p));
  }

  std::string into = "x";
  Value{2.5}.json_into(&into);
  Value{Time::ps(1)}.json_into(&into);
  Value{std::int64_t{-7}}.json_into(&into);
  Value{std::numeric_limits<double>::infinity()}.json_into(&into);
  EXPECT_EQ(into, "x2.50.001-7null");
}

TEST(Value, JsonStringsEscapeOnlyTheFiveBytes) {
  EXPECT_EQ(json_of(Value{"a\"b\\c\nd\te\rf"}),
            R"("a\"b\\c\nd\te\rf")");
  // Other control bytes have always passed through raw.
  EXPECT_EQ(json_of(Value{std::string("\x01\x1f\x7f", 3)}),
            std::string("\"\x01\x1f\x7f\"", 5));
  std::string out = "[";
  json_string_into(&out, "\"\"");
  json_string_into(&out, "");
  EXPECT_EQ(out, std::string("[") + R"("\"\"")" + R"("")");
}

TEST(Result, SerializationRoundTripsBitExact) {
  Result r("point label\twith tab");
  r.set("count", 7)
      .set("ratio", Value{1.0 / 3.0, 5})
      .set("flag", false)
      .set("latency", Time::ps(123456789))
      .set("note", std::string("line\nbreak"));
  const auto back = Result::deserialize(r.serialize());
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back.value(), r);
  EXPECT_EQ(back.value().at("ratio").precision(), 5);
}

TEST(Result, DeserializeRejectsGarbage) {
  EXPECT_FALSE(Result::deserialize("not a result").has_value());
  EXPECT_FALSE(Result::deserialize("pap-exp-result\t1\nbogus line").has_value());
}

TEST(ContentHash, SensitiveToParamsAndVersion) {
  Experiment e{"exp", [](const Params&) { return Result{}; }, 1};
  const Params a = Params{}.set("x", 1);
  const Params b = Params{}.set("x", 2);
  EXPECT_NE(content_hash(e, a), content_hash(e, b));
  Experiment e2 = e;
  e2.version = 2;
  EXPECT_NE(content_hash(e, a), content_hash(e2, a));
  EXPECT_EQ(content_hash(e, a), content_hash(e, Params{}.set("x", 1)));
}

TEST(SweepBuilder, CartesianIsRowMajorFirstAxisOutermost) {
  const auto sweep = SweepBuilder{}
                         .axis("a", {1, 2})
                         .axis("b", {10, 20, 30})
                         .build()
                         .value();
  ASSERT_EQ(sweep.size(), 6u);
  EXPECT_EQ(sweep[0].label(), "a=1 b=10");
  EXPECT_EQ(sweep[1].label(), "a=1 b=20");
  EXPECT_EQ(sweep[3].label(), "a=2 b=10");
  EXPECT_EQ(sweep[5].label(), "a=2 b=30");
}

TEST(SweepBuilder, ExplicitPointsFollowTheGrid) {
  SweepBuilder b;
  b.axis("a", {1, 2}).point(Params{}.set("a", 99));
  EXPECT_EQ(b.size(), 3u);
  const auto sweep = b.build().value();
  EXPECT_EQ(sweep[2].get_int("a"), 99);
}

TEST(SweepBuilder, ValidatesComposition) {
  EXPECT_FALSE(SweepBuilder{}.build().has_value());  // no points
  EXPECT_FALSE(
      SweepBuilder{}.axis("a", {1}).axis("a", {2}).build().has_value());
  EXPECT_FALSE(SweepBuilder{}.axis("a", {}).build().has_value());
}

// A small but real workload: every point runs its own sim::Kernel, like
// the migrated benches do.
Experiment kernel_experiment() {
  return Experiment{"exp_test_kernel", [](const Params& p) {
                      const int n = static_cast<int>(p.get_int("events"));
                      sim::Kernel k;
                      std::int64_t sum = 0;
                      for (int i = 0; i < n; ++i) {
                        k.schedule_at(Time::ns(10) * i, [&sum, i] { sum += i; });
                      }
                      k.run();
                      Result r(p.label());
                      r.set("sum", sum).set("end (ns)", k.now());
                      return r;
                    }};
}

Sweep event_sweep() {
  return SweepBuilder{}
      .axis("events", {50, 100, 150, 200, 250, 300, 350, 400})
      .build()
      .value();
}

TEST(Runner, DeterministicAcrossJobsAndReruns) {
  const auto exp = kernel_experiment();
  const auto sweep = event_sweep();
  RunnerOptions serial;
  serial.jobs = 1;
  RunnerOptions pooled;
  pooled.jobs = 4;  // more threads than this container has cores: still fine

  const auto a = Runner(serial).run(exp, sweep).results();
  const auto b = Runner(pooled).run(exp, sweep).results();
  const auto c = Runner(pooled).run(exp, sweep).results();
  ASSERT_EQ(a.size(), sweep.size());
  EXPECT_EQ(a, b);  // submission order, independent of jobs
  EXPECT_EQ(b, c);  // and of which thread finished first
}

TEST(Runner, CancellationSkipsUnstartedPoints) {
  Runner runner{[] {
    RunnerOptions o;
    o.jobs = 1;  // inline: cancellation point is deterministic
    return o;
  }()};
  Experiment exp{"exp_test_cancel", [&runner](const Params& p) {
                   if (p.get_int("i") == 1) runner.cancel();
                   Result r(p.label());
                   r.set("i", p.at("i"));
                   return r;
                 }};
  const auto sweep =
      SweepBuilder{}.axis("i", {0, 1, 2, 3, 4}).build().value();
  const auto summary = runner.run(exp, sweep);
  EXPECT_TRUE(summary.cancelled);
  EXPECT_EQ(summary.completed(), 2u);  // points 0 and 1 ran
  EXPECT_EQ(summary.points[2].status, PointStatus::kSkipped);
  EXPECT_EQ(summary.points[4].status, PointStatus::kSkipped);
  EXPECT_NE(summary.timing_summary().find("CANCELLED"), std::string::npos);

  // The next run starts clean: the cancel request does not stick.
  const auto again = runner.run(kernel_experiment(), event_sweep());
  EXPECT_FALSE(again.cancelled);
  EXPECT_EQ(again.completed(), 8u);
}

class CacheTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Unique per test case: ctest runs the discovered cases in parallel,
    // and a shared directory would let two cases race on remove_all.
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    dir_ = std::filesystem::temp_directory_path() /
           (std::string("pap-exp-cache-test-") + info->name());
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }
  std::filesystem::path dir_;
};

TEST_F(CacheTest, HitMissAndForcedRefresh) {
  std::atomic<int> calls{0};
  Experiment exp{"exp_test_cache", [&calls](const Params& p) {
                   calls.fetch_add(1);
                   Result r(p.label());
                   r.set("twice", p.get_int("x") * 2)
                       .set("third", p.get_double("x") / 3.0);
                   return r;
                 }};
  const auto sweep = SweepBuilder{}.axis("x", {1, 2, 3}).build().value();
  RunnerOptions opts;
  opts.jobs = 1;
  opts.cache_dir = dir_.string();

  const auto cold = Runner(opts).run(exp, sweep);
  EXPECT_EQ(cold.cache_hits, 0u);
  EXPECT_EQ(calls.load(), 3);
  for (const auto& p : cold.points) EXPECT_EQ(p.status, PointStatus::kRan);

  const auto warm = Runner(opts).run(exp, sweep);
  EXPECT_EQ(warm.cache_hits, 3u);
  EXPECT_EQ(calls.load(), 3);  // functor never invoked
  for (const auto& p : warm.points) {
    EXPECT_EQ(p.status, PointStatus::kCached);
  }
  EXPECT_EQ(cold.results(), warm.results());  // bit-exact round trip

  // A version bump misses (stale entries keyed by the old hash).
  Experiment v2 = exp;
  v2.version = 2;
  const auto bumped = Runner(opts).run(v2, sweep);
  EXPECT_EQ(bumped.cache_hits, 0u);
  EXPECT_EQ(calls.load(), 6);

  // read_cache = false re-runs but re-warms the cache.
  opts.read_cache = false;
  const auto forced = Runner(opts).run(exp, sweep);
  EXPECT_EQ(forced.cache_hits, 0u);
  EXPECT_EQ(calls.load(), 9);
}

TEST_F(CacheTest, CorruptEntriesAreMisses) {
  const Experiment exp{"exp_test_corrupt", [](const Params& p) {
                         return Result{p.label()};
                       }};
  const ResultCache cache(dir_.string());
  const Params p = Params{}.set("x", 1);
  cache.store(exp, p, Result{"ok"});
  ASSERT_TRUE(cache.load(exp, p).has_value());
  // Truncate the entry on disk: the next load must read the file and
  // reject it.
  std::filesystem::resize_file(cache.path_for(exp, p), 4);
  const ResultCache fresh(dir_.string());
  EXPECT_FALSE(fresh.load(exp, p).has_value());
}

std::string read_file(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

void write_file(const std::filesystem::path& path, const std::string& bytes) {
  std::ofstream(path, std::ios::binary | std::ios::trunc) << bytes;
}

TEST_F(CacheTest, FlippedDigitIsAMiss) {
  // A stored value that still parses after one byte flips must not load:
  // 12345 -> 92345 is a well-formed Result, only the checksum catches it.
  const Experiment exp{"exp_test_flip",
                       [](const Params& p) { return Result{p.label()}; },
                       1, {}};
  const ResultCache cache(dir_.string());
  const Params p = Params{}.set("x", 1);
  Result stored{"flip"};
  stored.set("x", 12345);
  cache.store(exp, p, stored);
  ASSERT_TRUE(cache.load(exp, p).has_value());
  const std::string path = cache.path_for(exp, p);
  std::string bytes = read_file(path);
  const std::size_t at = bytes.rfind("12345");
  ASSERT_NE(at, std::string::npos);
  bytes[at] = '9';
  write_file(path, bytes);
  EXPECT_FALSE(ResultCache(dir_.string()).load(exp, p).has_value());
}

TEST_F(CacheTest, TruncatedAtALineBoundaryIsAMiss) {
  // Cut after the first metric line: what is left is a well-formed Result
  // with 1 of its 3 metrics, so only the exact-size check catches it.
  const Experiment exp{"exp_test_cut",
                       [](const Params& p) { return Result{p.label()}; },
                       1, {}};
  const ResultCache cache(dir_.string());
  const Params p = Params{}.set("x", 1);
  Result stored{"cut"};
  stored.set("a", 1).set("b", 2).set("c", 3);
  cache.store(exp, p, stored);
  ASSERT_TRUE(cache.load(exp, p).has_value());
  const std::string path = cache.path_for(exp, p);
  const std::string bytes = read_file(path);
  const std::size_t first_metric = bytes.find("\nm\t");
  ASSERT_NE(first_metric, std::string::npos);
  const std::size_t line_end = bytes.find('\n', first_metric + 1);
  ASSERT_NE(line_end, std::string::npos);
  std::filesystem::resize_file(path, line_end + 1);
  EXPECT_FALSE(ResultCache(dir_.string()).load(exp, p).has_value());
}

TEST_F(CacheTest, FilenameCollisionIsAMiss) {
  // The 64-bit FNV filename hash is an index, not an identity proof. Two
  // distinct (experiment, params) identities landing on the same file —
  // simulated here by copying one identity's entry onto the other's path —
  // must never serve each other's Result: load verifies the embedded
  // identity header, not the filename.
  const Experiment exp_a{"exp_test_victim",
                         [](const Params& p) { return Result{p.label()}; }};
  const Experiment exp_b{"exp_test_victim", [](const Params& p) {
                           return Result{p.label()};
                         }, /*version=*/7};
  const ResultCache cache(dir_.string());
  const Params pa = Params{}.set("x", 1);
  const Params pb = Params{}.set("x", 2);

  Result stored{"a-result"};
  stored.set("answer", 41);
  cache.store(exp_a, pa, stored);
  ASSERT_TRUE(cache.load(exp_a, pa).has_value());

  // Deliberate collision: (exp_b, pb) hashes to a different filename, but
  // an adversarial filesystem state (or a real 64-bit collision) puts
  // exp_a's bytes there.
  ASSERT_NE(cache.path_for(exp_a, pa), cache.path_for(exp_b, pb));
  std::filesystem::copy_file(cache.path_for(exp_a, pa),
                             cache.path_for(exp_b, pb));
  EXPECT_FALSE(cache.load(exp_b, pb).has_value());  // header mismatch → miss
  // Same params but different version: also a miss, not a stale hit.
  std::filesystem::copy_file(
      cache.path_for(exp_a, pa), cache.path_for(exp_b, pa),
      std::filesystem::copy_options::overwrite_existing);
  EXPECT_FALSE(cache.load(exp_b, pa).has_value());
  // The genuine owner still hits.
  const auto hit = cache.load(exp_a, pa);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit.value(), stored);
}

TEST_F(CacheTest, ConcurrentReadersAndWritersNeverCorrupt) {
  // Contention micro-test (run under TSan in the CI thread-safety job):
  // readers hammer a hot key while writers keep storing fresh points.
  // Every load must return the exact Result stored for that key — torn or
  // mixed-up values mean publication is broken.
  const Experiment exp{"exp_test_contention",
                       [](const Params& p) { return Result{p.label()}; }};
  const ResultCache cache(dir_.string());

  const Params hot = Params{}.set("x", -1);
  Result hot_result{"hot"};
  hot_result.set("answer", 42);
  cache.store(exp, hot, hot_result);

  constexpr int kReaders = 4;
  constexpr int kWriters = 2;
  constexpr int kIters = 500;
  std::atomic<int> bad{0};
  std::vector<std::thread> threads;
  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back([&] {
      for (int i = 0; i < kIters; ++i) {
        const auto got = cache.load(exp, hot);
        if (!got || !(got.value() == hot_result)) bad.fetch_add(1);
      }
    });
  }
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&, w] {
      for (int i = 0; i < kIters; ++i) {
        const Params p = Params{}.set("x", w * kIters + i);
        Result r{p.label()};
        r.set("i", i);
        cache.store(exp, p, r);
        const auto back = cache.load(exp, p);
        if (!back || !(back.value() == r)) bad.fetch_add(1);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(bad.load(), 0);
}

TEST_F(CacheTest, ForkedWritersOfOneKeyLeaveNoTornEntryOrTempFile) {
  // A forked child and its parent store the same key concurrently. Their
  // main threads carry equal thread ids, so the temp file name must also
  // carry the pid: with per-thread names alone both processes truncate and
  // write one shared temp file and rename torn bytes into place. Every
  // fresh-instance load must hit the exact Result, and no temp file may be
  // left behind.
  const Experiment exp{"exp_test_fork",
                       [](const Params& p) { return Result{p.label()}; }};
  const Params p = Params{}.set("x", 1);
  Result stored{"forked"};
  for (int i = 0; i < 64; ++i) {
    stored.set("field" + std::to_string(i), std::string(256, 'a' + i % 26));
  }
  std::filesystem::create_directories(dir_);
  const auto hammer = [&] {
    int bad = 0;
    const ResultCache cache(dir_.string());
    for (int i = 0; i < 200; ++i) {
      cache.store(exp, p, stored);
      const auto got = ResultCache(dir_.string()).load(exp, p);
      if (!got || !(got.value() == stored)) ++bad;
    }
    return bad;
  };
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) ::_exit(hammer() == 0 ? 0 : 1);
  const int parent_bad = hammer();
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0) << "the child saw a missing or torn entry";
  EXPECT_EQ(parent_bad, 0);
  const auto got = ResultCache(dir_.string()).load(exp, p);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got.value(), stored);
  for (const auto& entry : std::filesystem::directory_iterator(dir_)) {
    EXPECT_EQ(entry.path().filename().string().find(".tmp."),
              std::string::npos)
        << entry.path();
  }
}

namespace cli {

Expected<CliOptions> parse(std::vector<const char*> argv) {
  argv.insert(argv.begin(), "bench");
  return parse_cli_args(static_cast<int>(argv.size()), argv.data());
}

}  // namespace cli

TEST(ParseCli, AcceptsTheDocumentedFlags) {
  const auto cli =
      cli::parse({"--jobs=8", "--cache", "--out", "some/dir", "--trace"});
  ASSERT_TRUE(cli.has_value());
  EXPECT_EQ(cli.value().jobs, 8);
  EXPECT_TRUE(cli.value().cache);
  EXPECT_EQ(cli.value().out_dir, "some/dir");
  EXPECT_TRUE(cli.value().trace);
  EXPECT_TRUE(cli.value().trace_dir.empty());

  const auto split = cli::parse({"-j", "4", "--out=o", "--trace=t/dir"});
  ASSERT_TRUE(split.has_value());
  EXPECT_EQ(split.value().jobs, 4);
  EXPECT_EQ(split.value().out_dir, "o");
  EXPECT_EQ(split.value().trace_dir, "t/dir");

  const auto none = cli::parse({});
  ASSERT_TRUE(none.has_value());
  EXPECT_EQ(none.value().jobs, 0);
  EXPECT_FALSE(none.value().cache);
  EXPECT_FALSE(none.value().trace);
  EXPECT_FALSE(none.value().smoke);
}

TEST(ParseCli, SmokeIsAFlag) {
  const auto cli = cli::parse({"--smoke", "--jobs=2"});
  ASSERT_TRUE(cli.has_value());
  EXPECT_TRUE(cli.value().smoke);
  EXPECT_EQ(cli.value().jobs, 2);
  EXPECT_NE(cli_usage("prog").find("--smoke"), std::string::npos);
  // No value form: --smoke=1 is an unknown argument, not a silent accept.
  EXPECT_FALSE(cli::parse({"--smoke=1"}).has_value());
}

TEST(ParseCli, RejectsUnknownArguments) {
  EXPECT_FALSE(cli::parse({"--bogus"}).has_value());
  EXPECT_FALSE(cli::parse({"extra"}).has_value());
  EXPECT_FALSE(cli::parse({"--jobs=2", "--cahce"}).has_value());  // typo
  const auto err = cli::parse({"--frobnicate"});
  EXPECT_NE(err.error_message().find("--frobnicate"), std::string::npos);
}

TEST(ParseCli, ValidatesNumericValues) {
  // atoi-style garbage-to-0 is exactly what this parser must not do.
  EXPECT_FALSE(cli::parse({"--jobs=abc"}).has_value());
  EXPECT_FALSE(cli::parse({"--jobs=3x"}).has_value());
  EXPECT_FALSE(cli::parse({"--jobs="}).has_value());
  EXPECT_FALSE(cli::parse({"--jobs=-2"}).has_value());
  EXPECT_FALSE(cli::parse({"--jobs"}).has_value());  // missing value
  EXPECT_FALSE(cli::parse({"-j", "nope"}).has_value());
  EXPECT_FALSE(cli::parse({"--jobs=99999999999999999999"}).has_value());
  EXPECT_TRUE(cli::parse({"--jobs=0"}).has_value());  // 0 = all cores
  // Digits only, like every integer of the shared value grammar.
  EXPECT_FALSE(cli::parse({"--jobs=+2"}).has_value());
  EXPECT_FALSE(cli::parse({"--jobs= 2"}).has_value());
  EXPECT_FALSE(cli::parse({"--scenario-family=diurnal,seed=+1"}).has_value());
}

TEST(ParseCli, HelpIsAFlagNotAnError) {
  const auto cli = cli::parse({"--help"});
  ASSERT_TRUE(cli.has_value());
  EXPECT_TRUE(cli.value().help);
  EXPECT_NE(cli_usage("prog").find("--trace"), std::string::npos);
  EXPECT_NE(cli_usage("prog").find("prog"), std::string::npos);
}

TEST(ParseCli, TraceDirDefaultsUnderOutDir) {
  const auto cli = cli::parse({"--trace", "--out", "my/out"});
  ASSERT_TRUE(cli.has_value());
  const RunnerOptions opts = to_runner_options(cli.value());
  EXPECT_EQ(opts.trace_dir, "my/out/traces");
  const auto expl = cli::parse({"--trace=elsewhere"});
  EXPECT_EQ(to_runner_options(expl.value()).trace_dir, "elsewhere");
  const auto off = cli::parse({"--out", "my/out"});
  EXPECT_TRUE(to_runner_options(off.value()).trace_dir.empty());
}

TEST(ParseCli, FaultsPlanIsValidatedEagerly) {
  // A well-formed plan is stored verbatim for the bench to merge.
  const auto ok =
      cli::parse({"--faults=seed=7,drop=stop:0.1,crash@1ms=app2"});
  ASSERT_TRUE(ok.has_value());
  EXPECT_EQ(ok.value().faults, "seed=7,drop=stop:0.1,crash@1ms=app2");
  EXPECT_EQ(to_runner_options(ok.value()).faults, ok.value().faults);

  const auto split = cli::parse({"--faults", "dram@10us=1us"});
  ASSERT_TRUE(split.has_value());
  EXPECT_EQ(split.value().faults, "dram@10us=1us");

  // Malformed plans fail at the CLI boundary (exit 64 in main), with the
  // plan parser's diagnostic surfaced, not deep inside a bench run.
  const auto bad = cli::parse({"--faults=explode=0.5"});
  ASSERT_FALSE(bad.has_value());
  EXPECT_NE(bad.error_message().find("invalid --faults plan"),
            std::string::npos);
  EXPECT_NE(bad.error_message().find("unknown fault"), std::string::npos);

  EXPECT_FALSE(cli::parse({"--faults=drop=1.5"}).has_value());
  EXPECT_FALSE(cli::parse({"--faults="}).has_value());
  EXPECT_FALSE(cli::parse({"--faults"}).has_value());  // missing value

  // Omitted entirely: no plan, and benches run fault-free.
  const auto none = cli::parse({});
  ASSERT_TRUE(none.has_value());
  EXPECT_TRUE(none.value().faults.empty());
}

TEST(ParseCli, ScenarioFlagsCollectInOrder) {
  const auto cli = cli::parse({"--scenario=a.pap", "--scenario", "b.pap",
                               "--scenario-family=flash_crowd,seed=7,n=3",
                               "--scenario-family", "hog_mix"});
  ASSERT_TRUE(cli.has_value()) << cli.error_message();
  ASSERT_EQ(cli.value().scenarios.size(), 2u);
  EXPECT_EQ(cli.value().scenarios[0], "a.pap");
  EXPECT_EQ(cli.value().scenarios[1], "b.pap");
  ASSERT_EQ(cli.value().scenario_families.size(), 2u);
  EXPECT_EQ(cli.value().scenario_families[0], "flash_crowd,seed=7,n=3");
  EXPECT_EQ(cli.value().scenario_families[1], "hog_mix");
  EXPECT_NE(cli_usage("prog").find("--scenario"), std::string::npos);
  EXPECT_NE(cli_usage("prog").find("--scenario-family"), std::string::npos);

  // The exp layer screens the spec shape eagerly (the scenario layer does
  // the deep validation — family names, seed ranges).
  EXPECT_FALSE(cli::parse({"--scenario="}).has_value());
  EXPECT_FALSE(cli::parse({"--scenario"}).has_value());
  EXPECT_FALSE(cli::parse({"--scenario-family="}).has_value());
  EXPECT_FALSE(cli::parse({"--scenario-family"}).has_value());
  EXPECT_FALSE(cli::parse({"--scenario-family=UPPER"}).has_value());
  EXPECT_FALSE(cli::parse({"--scenario-family=fam,seed=x"}).has_value());
  EXPECT_FALSE(cli::parse({"--scenario-family=fam,bogus=1"}).has_value());
  EXPECT_TRUE(cli::parse({"--scenario-family=fam,seed=1,n=50"}).has_value());
}

TEST_F(CacheTest, TracedSweepEmitsPerPointTracesAndIdenticalResults) {
  // End-to-end exp <-> trace plumbing: an Experiment with a run_traced
  // functor produces the same Results with tracing on, off, or absent, and
  // a traced run carries Chrome JSON + counter CSV per ran point, written
  // out by TraceDirSink.
  Experiment exp{"exp_test_traced", {}};
  exp.run_traced = [](const Params& p, trace::Tracer* tracer) {
    const int n = static_cast<int>(p.get_int("events"));
    sim::Kernel k;
    k.set_tracer(tracer);
    std::int64_t sum = 0;
    for (int i = 0; i < n; ++i) {
      k.schedule_at(Time::ns(10) * i, [&sum, &k, i] {
        sum += i;
        if (auto* t = k.tracer()) {
          t->instant("test", "tick", "unit");
          t->counter("test", "sum", static_cast<double>(sum),
                     trace::CounterKind::kGauge);
        }
      });
    }
    k.run();
    Result r(p.label());
    r.set("sum", sum).set("end (ns)", k.now());
    return r;
  };
  const auto sweep = SweepBuilder{}.axis("events", {3, 5}).build().value();

  RunnerOptions plain;
  plain.jobs = 1;
  RunnerOptions traced = plain;
  traced.trace_dir = (dir_ / "traces").string();
  TraceDirSink trace_sink(traced.trace_dir);

  const auto a = Runner(plain).run(exp, sweep);
  const auto b = Runner(traced).add_sink(&trace_sink).run(exp, sweep);
  EXPECT_EQ(a.results(), b.results());  // tracing never perturbs results

  for (const auto& p : a.points) EXPECT_TRUE(p.trace_json.empty());
  ASSERT_EQ(b.points.size(), 2u);
  for (const auto& p : b.points) {
    EXPECT_FALSE(p.trace_json.empty());
    EXPECT_NE(p.trace_json.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(p.trace_json.find("\"tick\""), std::string::npos);
    EXPECT_NE(p.counters_csv.find("test,sum"), std::string::npos);
  }
  EXPECT_EQ(trace_sink.files_written(), 2u);
  EXPECT_TRUE(std::filesystem::exists(dir_ / "traces" /
                                      "exp_test_traced-p0.trace.json"));
  EXPECT_TRUE(std::filesystem::exists(dir_ / "traces" /
                                      "exp_test_traced-p1.counters.csv"));
}

TEST(Stats, LatencyHistogramMerge) {
  LatencyHistogram a;
  LatencyHistogram b;
  for (int i = 0; i < 10; ++i) a.add(Time::ns(100 + i));
  for (int i = 0; i < 10; ++i) b.add(Time::ns(10 + i));
  LatencyHistogram whole;
  for (int i = 0; i < 10; ++i) whole.add(Time::ns(100 + i));
  for (int i = 0; i < 10; ++i) whole.add(Time::ns(10 + i));

  a.merge(b);
  EXPECT_EQ(a.count(), 20u);
  EXPECT_EQ(a.min(), Time::ns(10));
  EXPECT_EQ(a.max(), Time::ns(109));
  EXPECT_EQ(a.percentile(50), whole.percentile(50));
  EXPECT_EQ(a.mean(), whole.mean());

  LatencyHistogram empty;
  a.merge(empty);  // no-op
  EXPECT_EQ(a.count(), 20u);
  empty.merge(a);  // merge into empty adopts everything
  EXPECT_EQ(empty.count(), 20u);
  EXPECT_EQ(empty.percentile(99), a.percentile(99));
}

}  // namespace
}  // namespace pap::exp
