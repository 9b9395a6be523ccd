#include "common/grammar.hpp"

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iterator>

namespace pap {

bool parse_u64(std::string_view s, std::uint64_t* out) {
  if (s.empty() || s.size() > 20) return false;
  std::uint64_t v = 0;
  for (const char c : s) {
    if (c < '0' || c > '9') return false;
    const auto digit = static_cast<std::uint64_t>(c - '0');
    if (v > (UINT64_MAX - digit) / 10) return false;
    v = v * 10 + digit;
  }
  *out = v;
  return true;
}

bool parse_int(std::string_view s, int min, int max, int* out) {
  std::uint64_t v = 0;
  if (!parse_u64(s, &v) || v > static_cast<std::uint64_t>(max) ||
      static_cast<std::int64_t>(v) < min) {
    return false;
  }
  *out = static_cast<int>(v);
  return true;
}

bool parse_double(std::string_view s, double* out) {
  if (s.empty()) return false;
  const std::string text(s);  // strtod needs the terminator
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(text.c_str(), &end);
  if (errno != 0 || end != text.c_str() + text.size()) return false;
  if (!std::isfinite(v) || std::fabs(v) > 1e300) return false;
  *out = v;
  return true;
}

namespace {

/// Duration units, largest first (the canonical spelling prefers it).
struct Unit {
  std::string_view suffix;
  long long ps;
};
constexpr Unit kUnits[] = {
    {"ms", 1'000'000'000}, {"us", 1'000'000}, {"ns", 1'000}};

}  // namespace

bool parse_duration(std::string_view s, Time* out) {
  for (const Unit& unit : kUnits) {
    if (s.size() < 3 || !s.ends_with(unit.suffix)) continue;
    double v = 0.0;
    if (!parse_double(s.substr(0, s.size() - 2), &v) || v < 0.0) return false;
    // Time::from_ns rounds `ns * 1000` to int64 picoseconds; 2^63 is the
    // first double that cast cannot represent.
    const double ns = v * (static_cast<double>(unit.ps) / 1000.0);
    if (!(ns * 1000.0 < 9223372036854775808.0)) return false;
    *out = Time::from_ns(ns);
    return true;
  }
  return false;
}

bool is_name(std::string_view s) {
  return !s.empty() && std::all_of(s.begin(), s.end(), [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') || c == '_';
  });
}

std::string format_double(double v) {
  // The first of %.1g ... %.17g that strtod reads back as `v` (NaN never
  // does): to_chars and from_chars are specified as printf and strtod.
  constexpr auto kGeneral = std::chars_format::general;
  char buf[64];
  char* end = buf;
  for (int prec = 1; prec <= 17; ++prec) {
    end = std::to_chars(buf, std::end(buf), v, kGeneral, prec).ptr;
    double back = 0.0;
    if (std::from_chars(buf, end, back).ec == std::errc() && back == v) break;
  }
  return std::string(buf, end);
}

std::string format_duration(Time t) {
  const long long ps = t.picos();
  for (const Unit& unit : kUnits) {
    if (ps % unit.ps == 0) {
      return std::to_string(ps / unit.ps).append(unit.suffix);
    }
  }
  // Exact picoseconds: no round trip through a double.
  unsigned long long mag = static_cast<unsigned long long>(ps);
  if (ps < 0) mag = 0 - mag;
  char buf[48];
  std::snprintf(buf, sizeof buf, "%s%llu.%03lluns", ps < 0 ? "-" : "",
                mag / 1000, mag % 1000);
  return buf;
}

}  // namespace pap
