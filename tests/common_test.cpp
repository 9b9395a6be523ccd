// Unit tests for the common substrate: Time, Rate, statistics, RNG, tables,
// exact summation, the shared value grammar.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <malloc.h>
#include <random>
#include <vector>

#include "common/csv.hpp"
#include "common/exact_sum.hpp"
#include "common/grammar.hpp"
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

TEST(Grammar, IntegersAreDigitsOnly) {
  std::uint64_t u = 0;
  EXPECT_TRUE(parse_u64("18446744073709551615", &u));
  EXPECT_EQ(u, UINT64_MAX);
  for (const char* bad : {"", "-1", "+1", " 1", "1 ", "0x10", "1e3",
                          "18446744073709551616", "99999999999999999999"}) {
    EXPECT_FALSE(parse_u64(bad, &u)) << bad;
  }
  int i = 0;
  EXPECT_TRUE(parse_int("65535", 1, 65535, &i));
  EXPECT_EQ(i, 65535);
  EXPECT_FALSE(parse_int("65536", 1, 65535, &i));
  EXPECT_FALSE(parse_int("0", 1, 65535, &i));
  EXPECT_FALSE(parse_int("-5", -10, 10, &i));
}

TEST(Grammar, DoublesAreFinite) {
  double d = 0.0;
  EXPECT_TRUE(parse_double("2.5", &d));
  EXPECT_EQ(d, 2.5);
  EXPECT_TRUE(parse_double("-1e300", &d));
  for (const char* bad : {"", "nan", "inf", "-inf", "1e301", "1e400",
                          "1e-400", "2.5x", "2.5 "}) {
    EXPECT_FALSE(parse_double(bad, &d)) << bad;
  }
}

TEST(Grammar, DurationsFitInt64Picoseconds) {
  Time t;
  EXPECT_TRUE(parse_duration("1.5us", &t));
  EXPECT_EQ(t, Time::ns(1500));
  EXPECT_TRUE(parse_duration("13.75ns", &t));
  EXPECT_EQ(t, Time::ps(13750));
  // 2^63 ps is about 106 days: 9e9 ms fits, 1e10 ms does not.
  EXPECT_TRUE(parse_duration("9000000000ms", &t));
  EXPECT_EQ(t, Time::ms(9'000'000'000));
  for (const char* bad : {"", "10", "ms", "-1ns", "nanus", "infms", "1e10ms",
                          "1e300ms", "1e16us", "1s", "1 us"}) {
    EXPECT_FALSE(parse_duration(bad, &t)) << bad;
  }
}

TEST(Grammar, FormattersRoundTrip) {
  for (const double v : {0.1, 0.25, 1.0 / 3.0, 1e-5, 64.0, 100.0, 2.5e-7}) {
    double back = 0.0;
    ASSERT_TRUE(parse_double(format_double(v), &back)) << v;
    EXPECT_EQ(back, v);
  }
  EXPECT_EQ(format_double(0.1), "0.1");
  EXPECT_EQ(format_double(64.0), "64");
  EXPECT_EQ(format_double(100.0), "1e+02");  // shortest, not prettiest
  EXPECT_EQ(format_duration(Time::ms(2)), "2ms");
  EXPECT_EQ(format_duration(Time::us(1500)), "1500us");
  EXPECT_EQ(format_duration(Time::ns(500)), "500ns");
  EXPECT_EQ(format_duration(Time::ps(13750)), "13.750ns");
  EXPECT_EQ(format_duration(Time::ps(-1500)), "-1.500ns");
  // Picoseconds print exactly, beyond where a double would round them.
  const Time big = Time::ps(9'007'199'254'740'993);
  EXPECT_EQ(format_duration(big), "9007199254740.993ns");
}

/// The formatter format_double replaced: %.1g ... %.17g through snprintf,
/// read back with strtod.
std::string snprintf_format_double(double v) {
  char buf[64];
  for (int prec = 1; prec <= 17; ++prec) {
    std::snprintf(buf, sizeof buf, "%.*g", prec, v);
    if (std::strtod(buf, nullptr) == v) return buf;
  }
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

TEST(Grammar, FormatDoubleMatchesTheSnprintfLoop) {
  std::vector<double> values = {
      0.0,
      -0.0,
      std::numeric_limits<double>::denorm_min(),
      -std::numeric_limits<double>::denorm_min(),
      std::numeric_limits<double>::min(),
      std::nextafter(std::numeric_limits<double>::min(), 0.0),
      1e-310,
      std::numeric_limits<double>::max(),
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(),
      std::numeric_limits<double>::quiet_NaN(),
      -std::numeric_limits<double>::quiet_NaN(),
      1e308,
      0.1,
      100.0,
  };
  std::mt19937_64 rng(20261020);
  for (int i = 0; i < 100000; ++i) {
    values.push_back(std::bit_cast<double>(rng()));
  }
  for (const double v : values) {
    ASSERT_EQ(format_double(v), snprintf_format_double(v))
        << std::bit_cast<std::uint64_t>(v);
  }
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

// papd's per-endpoint latency stats: a long-running daemon records every
// request, so the histogram must not grow, and its percentiles must stay
// within the stated error of the exact histogram over the same samples.
TEST(LogHistogram, MillionRecordsDoNotGrowMemory) {
  LogHistogram h;
  std::mt19937_64 rng(17);
  std::lognormal_distribution<double> us(std::log(200.0), 1.0);
#if defined(__GLIBC__) && (__GLIBC__ > 2 || __GLIBC_MINOR__ >= 33)
  const std::size_t unused = mallinfo2().uordblks;
#endif
  h.add(Time::from_ns(us(rng) * 1000.0));  // allocates the buckets
#if defined(__GLIBC__) && (__GLIBC__ > 2 || __GLIBC_MINOR__ >= 33)
  const std::size_t before = mallinfo2().uordblks;
  EXPECT_LE(before - unused, 32u * 1024u);
#endif
  for (int i = 1; i < 1'000'000; ++i) h.add(Time::from_ns(us(rng) * 1000.0));
#if defined(__GLIBC__) && (__GLIBC__ > 2 || __GLIBC_MINOR__ >= 33)
  EXPECT_EQ(mallinfo2().uordblks, before);
#endif
  EXPECT_EQ(h.count(), 1'000'000u);
}

TEST(LogHistogram, PercentilesWithinStatedErrorOfExact) {
  LogHistogram approx;
  LatencyHistogram exact;
  std::mt19937_64 rng(23);
  std::lognormal_distribution<double> us(std::log(150.0), 1.5);
  for (int i = 0; i < 1'000'000; ++i) {
    // Mostly microseconds, with sub-64 ps samples and multi-second ones.
    const Time t = i % 1000 == 0   ? Time::ps(static_cast<std::int64_t>(i % 64))
                   : i % 997 == 0 ? Time::ms(1500 + i % 7)
                                  : Time::from_ns(us(rng) * 1000.0);
    approx.add(t);
    exact.add(t);
  }
  ASSERT_EQ(approx.count(), exact.count());
  EXPECT_EQ(approx.max(), exact.max());
  for (double p : {0.05, 1.0, 10.0, 50.0, 90.0, 95.0, 99.0, 99.9, 100.0}) {
    const double want = static_cast<double>(exact.percentile(p).picos());
    const double got = static_cast<double>(approx.percentile(p).picos());
    EXPECT_LE(std::abs(got - want), LogHistogram::kRelativeError * want)
        << "p" << p << ": " << got << " vs " << want;
  }
  LogHistogram tiny;  // below 64 ps every bucket is one value wide
  for (int v : {3, 9, 9, 40}) tiny.add(Time::ps(v));
  EXPECT_EQ(tiny.percentile(50), Time::ps(9));
  EXPECT_EQ(tiny.percentile(100), Time::ps(40));
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

double exact_sum_of(const std::vector<double>& terms) {
  ExactSum sum;
  for (const double t : terms) sum.add(t);
  return sum.value();
}

/// Python's math.fsum, written out plainly: the reference ExactSum's two
/// representations must both agree with.
double fsum_reference(const std::vector<double>& terms) {
  std::vector<double> partials;
  for (double x : terms) {
    std::size_t kept = 0;
    for (double y : partials) {
      if (std::fabs(x) < std::fabs(y)) std::swap(x, y);
      const double hi = x + y;
      const double lo = y - (hi - x);
      if (lo != 0.0) partials[kept++] = lo;
      x = hi;
    }
    partials.resize(kept);
    partials.push_back(x);
  }
  double hi = 0.0;
  std::size_t n = partials.size();
  if (n > 0) {
    hi = partials[--n];
    double lo = 0.0;
    while (n > 0) {
      const double x = hi;
      const double y = partials[--n];
      hi = x + y;
      lo = y - (hi - x);
      if (lo != 0.0) break;
    }
    if (n > 0 && ((lo < 0.0 && partials[n - 1] < 0.0) ||
                  (lo > 0.0 && partials[n - 1] > 0.0))) {
      const double y = lo * 2.0;
      const double x = hi + y;
      if (y == x - hi) hi = x;
    }
  }
  return hi + 0.0;
}

std::uint64_t bits_of(double v) { return std::bit_cast<std::uint64_t>(v); }

TEST(ExactSum, RoundsTheExactTotalOnce) {
  EXPECT_EQ(exact_sum_of({}), 0.0);
  // Left to right this reads 0.9999999999999999.
  EXPECT_EQ(exact_sum_of(std::vector<double>(10, 0.1)), 1.0);
  EXPECT_EQ(exact_sum_of({1e100, 1.0, -1e100}), 1.0);
  // Ties go to even unless a lower term pulls past the halfway point.
  EXPECT_EQ(exact_sum_of({1.0, std::ldexp(1.0, -53)}), 1.0);
  EXPECT_EQ(exact_sum_of({1.0, std::ldexp(1.0, -53), std::ldexp(1.0, -106)}),
            1.0 + std::ldexp(1.0, -52));
  EXPECT_EQ(exact_sum_of({1.0 + std::ldexp(1.0, -52), std::ldexp(1.0, -53)}),
            1.0 + std::ldexp(1.0, -51));
  EXPECT_EQ(exact_sum_of({1e-16, 1.0, 1e16}), 1.0000000000000002e16);
  EXPECT_EQ(bits_of(exact_sum_of({0.5, -0.5})), bits_of(0.0));
  EXPECT_EQ(exact_sum_of({-3.0, 1.0}), -2.0);
}

TEST(ExactSum, AgreesWithMathFsumAcrossRepresentations) {
  // Seeded term sets: a few binary orders of magnitude (fixed point),
  // hundreds (partials), subnormals, huge terms, and mixed signs with heavy
  // cancellation. value() and value_with() must both equal the reference.
  std::mt19937_64 rng(11);
  std::uniform_real_distribution<double> mantissa(1.0, 2.0);
  for (int trial = 0; trial < 400; ++trial) {
    const int spread = trial % 4 == 0 ? 4 : trial % 4 == 1 ? 60 : 600;
    const int n = 1 + static_cast<int>(rng() % 200);
    std::vector<double> terms;
    for (int i = 0; i < n; ++i) {
      const int e = static_cast<int>(rng() % spread) - spread / 2;
      double t = std::ldexp(mantissa(rng), e);
      if (rng() % 3 == 0) t = -t;
      if (trial % 7 == 0 && i % 5 == 0) t = std::ldexp(t, -1060);
      if (trial % 11 == 0 && i % 9 == 0 && spread < 600) {
        t = std::ldexp(t, 900);
      }
      ASSERT_TRUE(std::isfinite(t));
      terms.push_back(t);
    }
    if (trial % 5 == 0) {  // cancel most of the set again
      const std::vector<double> head(terms.begin(), terms.begin() + n / 2);
      for (const double t : head) terms.push_back(-t);
    }
    const double want = fsum_reference(terms);
    EXPECT_EQ(bits_of(exact_sum_of(terms)), bits_of(want)) << "trial " << trial;
    // value_with reads the same sum with its last terms left out of it.
    ExactSum head;
    for (std::size_t i = 0; i + 2 < terms.size(); ++i) head.add(terms[i]);
    if (terms.size() >= 2) {
      EXPECT_EQ(bits_of(head.value_with({terms[terms.size() - 2],
                                         terms.back()})),
                bits_of(want))
          << "trial " << trial;
    }
  }
}

TEST(ExactSum, ValueDependsOnTheMultisetOnly) {
  // Terms over 40 and over 400 binary orders of magnitude, both signs:
  // every order of adding them, and any detour of adds and matching
  // subtractions, reads the same bits.
  std::mt19937_64 rng(7);
  std::uniform_real_distribution<double> mantissa(1.0, 2.0);
  for (const int spread : {40, 400}) {
    std::vector<double> terms;
    for (int i = 0; i < 200; ++i) {
      const double sign = i % 3 == 0 ? -1.0 : 1.0;
      terms.push_back(sign * std::ldexp(mantissa(rng), -(i % spread)));
    }
    const double want = exact_sum_of(terms);
    for (int trial = 0; trial < 20; ++trial) {
      std::shuffle(terms.begin(), terms.end(), rng);
      ExactSum sum;
      for (const double t : terms) {
        sum.add(t);
        sum.add(1e-3 * t);  // a detour, taken back below
      }
      for (const double t : terms) sum.add(-1e-3 * t);
      EXPECT_EQ(bits_of(sum.value()), bits_of(want))
          << "spread " << spread << " trial " << trial;
    }
  }
}

TEST(ExactSum, WideSumsCancelBackToFixedPoint) {
  // Terms 60 binary orders apart do not fit one fixed-point window; once
  // they cancel, the sum starts over and copies keep their own state.
  ExactSum sum;
  for (int k = 0; k < 12; ++k) sum.add(std::ldexp(1.0, 500 - 60 * k));
  EXPECT_EQ(sum.value(), std::ldexp(1.0, 500));
  const ExactSum copy = sum;
  for (int k = 11; k >= 0; --k) sum.add(-std::ldexp(1.0, 500 - 60 * k));
  EXPECT_EQ(bits_of(sum.value()), bits_of(0.0));
  sum.add(3.0);
  sum.add(1e-300);
  sum.add(-1e-300);
  EXPECT_EQ(sum.value(), 3.0);
  EXPECT_EQ(copy.value(), std::ldexp(1.0, 500));
}

}  // namespace
}  // namespace pap
