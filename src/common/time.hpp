// Integer time base for all simulators and analyses.
//
// The paper's DRAM timing parameters (Table I) and delay-bound results
// (Table II) are expressed in nanoseconds with up to three decimals
// (e.g. tRCD = 13.75 ns, WCD = 1971.711 ns). All of these are exact
// multiples of one picosecond, so the library represents time as a signed
// 64-bit picosecond count. 2^63 ps is roughly 106 days of simulated time,
// far beyond any scenario in this repository.
#pragma once

#include <compare>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <string>

namespace pap {

/// A point in (or duration of) simulated time, in picoseconds.
///
/// `Time` is deliberately a strong type rather than a bare integer so that
/// times and unrelated counters cannot be mixed accidentally. Arithmetic
/// between two `Time` values and scaling by integers is provided; anything
/// else must go through explicit accessors.
class Time {
 public:
  constexpr Time() = default;

  /// Named constructors. Fractional nanoseconds are common in DRAM
  /// datasheets, hence the `double` overload; it rounds to the nearest
  /// picosecond.
  static constexpr Time ps(std::int64_t v) { return Time{v}; }
  static constexpr Time ns(std::int64_t v) { return Time{v * 1000}; }
  static constexpr Time us(std::int64_t v) { return Time{v * 1'000'000}; }
  static constexpr Time ms(std::int64_t v) { return Time{v * 1'000'000'000}; }
  static constexpr Time sec(std::int64_t v) {
    return Time{v * 1'000'000'000'000};
  }
  static constexpr Time from_ns(double v) {
    // constexpr-friendly round-half-away-from-zero
    const double scaled = v * 1000.0;
    return Time{static_cast<std::int64_t>(scaled < 0 ? scaled - 0.5
                                                     : scaled + 0.5)};
  }

  static constexpr Time zero() { return Time{0}; }
  static constexpr Time max() {
    return Time{std::numeric_limits<std::int64_t>::max()};
  }

  constexpr std::int64_t picos() const { return ps_; }
  constexpr double nanos() const { return static_cast<double>(ps_) / 1e3; }
  constexpr double micros() const { return static_cast<double>(ps_) / 1e6; }
  constexpr double seconds() const { return static_cast<double>(ps_) / 1e12; }

  constexpr bool is_zero() const { return ps_ == 0; }

  friend constexpr Time operator+(Time a, Time b) { return Time{a.ps_ + b.ps_}; }
  friend constexpr Time operator-(Time a, Time b) { return Time{a.ps_ - b.ps_}; }
  friend constexpr Time operator*(Time a, std::int64_t k) {
    return Time{a.ps_ * k};
  }
  friend constexpr Time operator*(std::int64_t k, Time a) { return a * k; }
  friend constexpr Time operator/(Time a, std::int64_t k) {
    return Time{a.ps_ / k};
  }
  /// Ratio of two durations (dimensionless).
  friend constexpr double operator/(Time a, Time b) {
    return static_cast<double>(a.ps_) / static_cast<double>(b.ps_);
  }

  constexpr Time& operator+=(Time o) {
    ps_ += o.ps_;
    return *this;
  }
  constexpr Time& operator-=(Time o) {
    ps_ -= o.ps_;
    return *this;
  }

  friend constexpr auto operator<=>(Time, Time) = default;

  /// "13.750 ns"-style rendering used by tables and logs.
  std::string to_string() const {
    // Render as nanoseconds with picosecond precision, trimming to three
    // decimals exactly (all quantities in this library are ps multiples).
    const bool neg = ps_ < 0;
    const std::int64_t abs_ps = neg ? -ps_ : ps_;
    char buf[40];
    std::snprintf(buf, sizeof buf, "%s%lld.%03lld ns", neg ? "-" : "",
                  static_cast<long long>(abs_ps / 1000),
                  static_cast<long long>(abs_ps % 1000));
    return buf;
  }

 private:
  constexpr explicit Time(std::int64_t v) : ps_(v) {}
  std::int64_t ps_ = 0;
};

/// How many whole periods of length `period` fit in `span` (floor).
constexpr std::int64_t floor_div(Time span, Time period) {
  return span.picos() / period.picos();
}

}  // namespace pap
