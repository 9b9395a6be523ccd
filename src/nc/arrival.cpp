#include "nc/arrival.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"

namespace pap::nc {

TokenBucket TokenBucket::from_rate(Rate line_rate, Bytes request_bytes,
                                   double burst_requests) {
  // requests per second -> requests per nanosecond
  const double req_per_ns = line_rate.requests_per_sec(request_bytes) / 1e9;
  return TokenBucket{burst_requests, req_per_ns};
}

TokenBucketShaper::TokenBucketShaper(TokenBucket params, Time start)
    : params_(params), last_update_(start), tokens_(params.burst) {
  PAP_CHECK(params.burst >= 0.0 && params.rate >= 0.0);
}

double TokenBucketShaper::level(Time when) const {
  PAP_CHECK(when >= last_update_);
  const double replenished =
      tokens_ + params_.rate * (when.nanos() - last_update_.nanos());
  return std::min(replenished, params_.burst);
}

Time TokenBucketShaper::earliest_release(Time now, double amount) const {
  PAP_CHECK_MSG(amount <= params_.burst + 1e-12,
                "release larger than the burst can never conform");
  const double have = level(now);
  if (have >= amount) return now;
  PAP_CHECK_MSG(params_.rate > 0.0, "zero-rate shaper cannot replenish");
  const double wait_ns = (amount - have) / params_.rate;
  // Round *up* to the next picosecond: rounding down would release a
  // fraction of a token early and break conformance.
  const auto wait_ps = static_cast<std::int64_t>(std::ceil(wait_ns * 1e3));
  return now + Time::ps(wait_ps);
}

bool TokenBucketShaper::conformant(Time now, double amount) const {
  return level(now) + 1e-6 >= amount;  // same tolerance as on_release
}

void TokenBucketShaper::on_release(Time when, double amount) {
  const double have = level(when);
  // Tolerance covers picosecond-grid rounding of the release instant.
  PAP_CHECK_MSG(have + 1e-6 >= amount, "non-conformant release");
  tokens_ = std::max(0.0, have - amount);
  last_update_ = when;
}

Time TokenBucketShaper::reserve(Time now, double amount) {
  const Time from = std::max(now, last_update_);
  const Time at = earliest_release(from, amount);
  on_release(at, amount);
  return at;
}

void TokenBucketShaper::reconfigure(TokenBucket params, Time when) {
  // Reservations may already extend past `when`; never rewind the state.
  const Time at = std::max(when, last_update_);
  tokens_ = std::min(level(at), params.burst);
  last_update_ = at;
  params_ = params;
}

Curve periodic_arrival(double size, Time period, Time jitter) {
  PAP_CHECK(period.picos() > 0);
  const double rate = size / period.nanos();
  const double burst = size * (1.0 + jitter.nanos() / period.nanos());
  return Curve::affine(burst, rate);
}

}  // namespace pap::nc
