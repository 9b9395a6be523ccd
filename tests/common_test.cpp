// Unit tests for the common substrate: Time, Rate, statistics, RNG, tables.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "common/csv.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "common/time.hpp"
#include "common/units.hpp"

namespace pap {
namespace {

TEST(Time, ConstructionAndAccessors) {
  EXPECT_EQ(Time::ns(1).picos(), 1000);
  EXPECT_EQ(Time::us(1).picos(), 1'000'000);
  EXPECT_EQ(Time::ms(1).picos(), 1'000'000'000);
  EXPECT_EQ(Time::sec(1).picos(), 1'000'000'000'000);
  EXPECT_DOUBLE_EQ(Time::ns(5).nanos(), 5.0);
  EXPECT_DOUBLE_EQ(Time::us(2).micros(), 2.0);
  EXPECT_DOUBLE_EQ(Time::sec(3).seconds(), 3.0);
}

TEST(Time, FractionalNanosecondsAreExact) {
  // Table I values must round-trip exactly (they are ps multiples).
  EXPECT_EQ(Time::from_ns(13.75).picos(), 13750);
  EXPECT_EQ(Time::from_ns(1.25).picos(), 1250);
  EXPECT_EQ(Time::from_ns(7.5).picos(), 7500);
  EXPECT_EQ(Time::from_ns(2.5).picos(), 2500);
  EXPECT_EQ(Time::from_ns(1971.711).picos(), 1971711);
}

TEST(Time, Arithmetic) {
  const Time a = Time::ns(100);
  const Time b = Time::ns(30);
  EXPECT_EQ((a + b).picos(), 130'000);
  EXPECT_EQ((a - b).picos(), 70'000);
  EXPECT_EQ((a * 3).picos(), 300'000);
  EXPECT_EQ((a / 4).picos(), 25'000);
  EXPECT_DOUBLE_EQ(a / b, 100.0 / 30.0);
  Time c = a;
  c += b;
  EXPECT_EQ(c, Time::ns(130));
  c -= b;
  EXPECT_EQ(c, a);
}

TEST(Time, Comparisons) {
  EXPECT_LT(Time::ns(1), Time::ns(2));
  EXPECT_LE(Time::ns(2), Time::ns(2));
  EXPECT_GT(Time::us(1), Time::ns(999));
  EXPECT_EQ(Time::zero(), Time::ps(0));
}

TEST(Time, ToString) {
  EXPECT_EQ(Time::from_ns(13.75).to_string(), "13.750 ns");
  EXPECT_EQ(Time::ns(5).to_string(), "5.000 ns");
  EXPECT_EQ(Time::ps(1971711).to_string(), "1971.711 ns");
  EXPECT_EQ((Time::zero() - Time::from_ns(0.5)).to_string(), "-0.500 ns");
}

TEST(Time, FloorCeilDiv) {
  EXPECT_EQ(floor_div(Time::ns(100), Time::ns(30)), 3);
  EXPECT_EQ(floor_div(Time::ns(90), Time::ns(30)), 3);
}

TEST(Rate, Conversions) {
  const Rate r = Rate::gbps(4);
  EXPECT_DOUBLE_EQ(r.in_gbps(), 4.0);
  EXPECT_DOUBLE_EQ(r.in_bits_per_sec(), 4e9);
  EXPECT_DOUBLE_EQ(r.in_bytes_per_sec(), 0.5e9);
  // 4 Gbps over 64-byte requests: one request every 128 ns (Table II setup).
  EXPECT_DOUBLE_EQ(r.requests_per_sec(64), 4e9 / 512.0);
  EXPECT_EQ(r.period_per_request(64), Time::ns(128));
}

TEST(Rate, Arithmetic) {
  EXPECT_DOUBLE_EQ((Rate::gbps(2) + Rate::gbps(3)).in_gbps(), 5.0);
  EXPECT_DOUBLE_EQ((Rate::gbps(5) - Rate::gbps(3)).in_gbps(), 2.0);
  EXPECT_DOUBLE_EQ((Rate::gbps(2) * 2.0).in_gbps(), 4.0);
  EXPECT_DOUBLE_EQ(Rate::gbps(6) / Rate::gbps(2), 3.0);
  EXPECT_LT(Rate::mbps(999), Rate::gbps(1));
}

TEST(LatencyHistogram, ExactPercentiles) {
  LatencyHistogram h;
  for (int i = 100; i >= 1; --i) h.add(Time::ns(i));  // unsorted insert
  EXPECT_EQ(h.count(), 100u);
  EXPECT_EQ(h.min(), Time::ns(1));
  EXPECT_EQ(h.max(), Time::ns(100));
  EXPECT_EQ(h.percentile(50), Time::ns(50));
  EXPECT_EQ(h.percentile(99), Time::ns(99));
  EXPECT_EQ(h.percentile(100), Time::ns(100));
  EXPECT_EQ(h.percentile(0), Time::ns(1));
  EXPECT_EQ(h.mean(), Time::ps(50500));  // mean of 1..100 ns = 50.5 ns
}

TEST(LatencyHistogram, MeanIsExact) {
  LatencyHistogram h;
  h.add(Time::ns(10));
  h.add(Time::ns(20));
  h.add(Time::ns(40));
  EXPECT_EQ(h.mean(), Time::ps(23'333));
}

TEST(LatencyHistogram, SummaryAndChart) {
  LatencyHistogram h;
  for (int i = 0; i < 50; ++i) h.add(Time::ns(10 + i % 5));
  EXPECT_NE(h.summary().find("n=50"), std::string::npos);
}

TEST(Counters, IncrementAndLookup) {
  Counters c;
  const Counters::Id hits = c.id("hits");
  const Counters::Id misses = c.id("misses");
  EXPECT_EQ(c.id("hits").index, hits.index);  // one entry per name
  c.inc(hits);
  c.inc(hits, 4);
  c.inc(misses);
  EXPECT_EQ(c.get("hits"), 5);
  EXPECT_EQ(c.get(hits), 5);
  EXPECT_EQ(c.get("misses"), 1);
  EXPECT_EQ(c.get("unknown"), 0);
  EXPECT_EQ(c.entries().size(), 2u);
}

TEST(Rng, DeterministicForSeed) {
  Rng a(7);
  Rng b(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(Rng, UniformBounds) {
  Rng r(3);
  for (int i = 0; i < 1000; ++i) {
    const auto v = r.uniform(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
    const double d = r.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, ExponentialMean) {
  Rng r(11);
  double sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += r.exponential(100.0);
  EXPECT_NEAR(sum / n, 100.0, 3.0);
}

TEST(Rng, ChanceExtremes) {
  Rng r(5);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(r.chance(0.0));
    EXPECT_TRUE(r.chance(1.0));
  }
}

TEST(TextTable, RendersAlignedRows) {
  TextTable t({"Name", "Value"});
  t.row().cell("alpha").cell(static_cast<std::int64_t>(42));
  t.row().cell("beta").cell(3.14159, 2);
  t.row().cell("time").cell(Time::from_ns(13.75));
  const std::string out = t.render();
  EXPECT_NE(out.find("alpha"), std::string::npos);
  EXPECT_NE(out.find("42"), std::string::npos);
  EXPECT_NE(out.find("3.14"), std::string::npos);
  EXPECT_NE(out.find("13.750"), std::string::npos);
  EXPECT_EQ(t.num_rows(), 3u);
}

TEST(CsvWriter, WritesHeaderAndEscapes) {
  const std::string path = ::testing::TempDir() + "/pap_csv_test.csv";
  {
    CsvWriter w(path, {"a", "b"});
    ASSERT_TRUE(w.is_open());
    w.write_row({"1", "plain"});
    w.write_row({"2", "with,comma"});
    w.write_row({"3", "with\"quote"});
  }
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "a,b");
  std::getline(in, line);
  EXPECT_EQ(line, "1,plain");
  std::getline(in, line);
  EXPECT_EQ(line, "2,\"with,comma\"");
  std::getline(in, line);
  EXPECT_EQ(line, "3,\"with\"\"quote\"");
  std::remove(path.c_str());
}

}  // namespace
}  // namespace pap
